#include "probes.hpp"

#include <set>

#include "common/check.hpp"
#include "core/worker_pool.hpp"
#include "svc/frame.hpp"

namespace pb {

namespace {

constexpr double kProbeBudgetS = 0.03;

// Probed results land here, so the calls cannot be optimized away.
volatile std::uint64_t g_sink = 0;

// Calls fn(sender, receiver) over the n² links in row-major order until all
// were visited or the budget ran out; returns ns per call.
template <typename Fn>
double per_link_ns(std::size_t n, Fn&& fn) {
  const auto t0 = Clock::now();
  std::uint64_t calls = 0;
  for (anon::ProcId s = 0; s < n; ++s) {
    for (anon::ProcId r = 0; r < n; ++r) {
      fn(s, r);
      // The clock is read every 256 calls, so it barely shows in cheap ones.
      if (++calls % 256 == 0 && seconds_since(t0) > kProbeBudgetS) break;
    }
    if (seconds_since(t0) > kProbeBudgetS) break;
  }
  return seconds_since(t0) * 1e9 / static_cast<double>(calls);
}

}  // namespace

void probe_env(const anon::DelayModel& model, const anon::FaultPlan& plan,
               std::size_t n, anon::Round k, Metrics& layers) {
  std::uint64_t sink = 0;
  {
    ScopedSpan span("env.delay");
    layers.set_if_absent("env.delay_ns", per_link_ns(n, [&](anon::ProcId s, anon::ProcId r) {
      sink += model.delay(k, s, r);
    }), "ns");
  }
  {
    ScopedSpan span("env.planned_source");
    layers.set_if_absent("env.planned_source_ns", per_link_ns(n, [&](anon::ProcId, anon::ProcId) {
      sink += model.planned_source(k).value_or(0);
    }), "ns");
  }
  {
    ScopedSpan span("faults.fate");
    layers.set_if_absent("faults.fate_ns", per_link_ns(n, [&](anon::ProcId s, anon::ProcId r) {
      const anon::LinkFate f = plan.fate(k, s, r);
      sink += f.deliver + f.extra_delay;
    }), "ns");
  }
  g_sink = sink;
}

void probe_pool(Metrics& layers) {
  ScopedSpan span("core.parallel_for");
  anon::WorkerPool& pool = anon::WorkerPool::shared();
  const std::size_t tasks = hardware_threads();
  std::vector<double> us;
  const auto t0 = Clock::now();
  while (us.size() < 200 || (seconds_since(t0) < kProbeBudgetS && us.size() < 20000)) {
    const auto a = Clock::now();
    pool.parallel_for(tasks, [](std::size_t) {}, tasks);
    us.push_back(seconds_since(a) * 1e6);
  }
  layers.set_if_absent("core.pool_dispatch_us", median(us), "us");
}

void probe_frames(const std::vector<anon::Value>& proposals, Metrics& layers) {
  ScopedSpan span("svc.frame_codec");
  const std::set<anon::Value> distinct(proposals.begin(), proposals.end());
  std::vector<anon::ValueSet> batch;
  anon::ValueSet all;
  for (const anon::Value& v : distinct) {
    if (batch.size() == 8) break;
    batch.push_back(anon::ValueSet{v});
    all.insert(v);
  }
  batch.push_back(all);

  anon::ServiceFrame round_frame;
  round_frame.kind = anon::SvcFrameKind::kConsensusRound;
  round_frame.epoch = 7;
  round_frame.round = 12;
  round_frame.payload = anon::encode_valueset_batch(batch);

  anon::AbdWire abd;
  abd.type = anon::AbdWireType::kQueryResp;
  abd.op_id = 41;
  abd.origin = 2;
  abd.replica = 3;
  abd.ts = 17;
  abd.wid = 1;
  abd.has_value = true;
  abd.value = 123456;
  anon::ServiceFrame abd_frame;
  abd_frame.kind = anon::SvcFrameKind::kAbd;
  abd_frame.epoch = 7;
  abd_frame.payload = anon::encode_abd_wire(abd);

  const std::vector<const anon::ServiceFrame*> frames = {&round_frame,
                                                         &abd_frame};
  std::uint64_t iters = 0;
  double enc_s = 0, dec_s = 0;
  std::size_t sink = 0;
  const auto t0 = Clock::now();
  while (iters < 1000 || seconds_since(t0) < kProbeBudgetS) {
    for (const anon::ServiceFrame* f : frames) {
      const auto a = Clock::now();
      const anon::Bytes wire = anon::encode_service_frame(*f);
      const auto b = Clock::now();
      const auto back = anon::decode_service_frame(wire);
      const auto c = Clock::now();
      ANON_CHECK_MSG(back.has_value() && *back == *f,
                     "service frame codec must round-trip");
      sink += wire.size();
      enc_s += seconds_between(a, b);
      dec_s += seconds_between(b, c);
      ++iters;
    }
  }
  g_sink = sink;
  layers.set_if_absent("svc.frame_encode_ns", enc_s * 1e9 / static_cast<double>(iters), "ns");
  layers.set_if_absent("svc.frame_decode_ns", dec_s * 1e9 / static_cast<double>(iters), "ns");
}

}  // namespace pb
