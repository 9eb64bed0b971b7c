// The two simulated consensus workloads (Algorithm 2 in ES).
//
// consensus-scale: the sharded expanded engine at n = 10^5 with a 64-value
//   proposal cycle and mid-run crashes, plus the cohort engine on a
//   non-collapsing run (distinct proposals, n = 512).  After round 0 every
//   round is uniform-delay, so the expanded engine takes its per-payload
//   group path and there are almost no per-link calls.
// consensus-faulty: n = 512 with a pre-GST prefix under a seeded,
//   source-exempt fault plan (loss, duplication, reorder, one omission
//   sender, one churn window).  An active plan forces the per-link path in
//   every round, through env/ and env/faults — the opposite use of net/.
//
// Both drive LockstepNet/CohortNet directly, so the traced run can time
// the engine between stop-callback calls and wrap the automatons.
#include <algorithm>
#include <set>

#include "algo/es_consensus.hpp"
#include "algo/runner.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "net/cohort.hpp"
#include "probes.hpp"
#include "timed_automaton.hpp"

namespace pb {

namespace {

using anon::EsConsensus;
using anon::EsMessage;
using anon::ProcId;
using anon::Round;
using anon::Value;

struct ConsensusCase {
  const char* span = "";       // span name of the engine run
  const char* round_metric = "";  // layer metric of its per-round time
  anon::EnvParams env;
  anon::CrashPlan crashes;
  std::vector<Value> initial;
  anon::FaultParams faults;
  anon::LockstepOptions net;
  bool cohort = false;
  // The instances whose wall time is the workload's unit operation.
  bool primary = true;
};

// What must repeat exactly, across repetitions and thread counts.
struct CaseKey {
  Round rounds = 0;
  std::uint64_t sends = 0, deliveries = 0, drops = 0, dups = 0;
  std::optional<Value> value;
  Round last_decision = 0;
  friend bool operator==(const CaseKey&, const CaseKey&) = default;
};

struct CaseResult {
  anon::ConsensusReport rep;
  CaseKey key;
  std::vector<std::optional<Value>> decisions;
  std::vector<Round> decision_rounds;
  std::vector<double> round_ms;  // traced runs only
  std::size_t classes_max = 0;
  double wall_s = 0;
};

// Checks a finished run against the proposals the benchmark generated:
// termination of every correct process, agreement, validity, and the
// conserved transport count.
void check_case(const ConsensusCase& c, const CaseResult& r, Verdict& v) {
  const anon::ConsensusReport& rep = r.rep;
  const std::set<Value> proposed(c.initial.begin(), c.initial.end());
  std::optional<Value> agreed;
  bool agreement = true, validity = true, terminated = true;
  for (ProcId p = 0; p < c.env.n; ++p) {
    const auto& d = r.decisions[p];
    if (!d.has_value()) {
      if (!c.crashes.ever_crashes(p)) terminated = false;
      continue;
    }
    if (agreed.has_value() && !(*agreed == *d)) agreement = false;
    if (!agreed.has_value()) agreed = d;
    if (proposed.count(*d) == 0) validity = false;
  }
  const std::string what = std::string(c.span) + " n=" + std::to_string(c.env.n);
  v.require(terminated && !rep.hit_round_limit,
            what + ": every correct process decides");
  v.require(agreement, what + ": agreement");
  v.require(validity, what + ": validity against the generated proposals");
  // Every attempted send is delivered, dropped by the plan, lost to a dead
  // receiver or still in flight; duplicates add deliveries.
  v.require(rep.deliveries + rep.fault_drops <= rep.sends + rep.fault_dups,
            what + ": deliveries + drops <= sends + duplicates");
  const bool quiescent = c.crashes.crash_count() == 0 && !c.faults.active() &&
                         c.env.stabilization == 0 &&
                         c.env.kind == anon::EnvKind::kES;
  if (quiescent)
    v.require(rep.deliveries == rep.sends,
              what + ": all-timely run delivers every send");
}

template <typename Net>
anon::RunResult drive(Net& net, bool traced, std::vector<double>& round_ms) {
  if (!traced) return net.run_until_all_correct_decided();
  auto last = Clock::now();
  bool first = true;
  return net.run([&](const Net& n) {
    const auto t = Clock::now();
    if (!first) round_ms.push_back(seconds_between(last, t) * 1e3);
    first = false;
    last = t;
    return n.all_correct_decided();
  });
}

CaseResult run_case(const ConsensusCase& c, std::size_t engine_threads,
                    bool traced) {
  CaseResult out;
  const auto t0 = Clock::now();
  const anon::EnvDelayModel delays(c.env, c.crashes);
  const anon::FaultPlan plan(c.faults, c.net.seed, c.env.n, &delays);
  anon::LockstepOptions opt = c.net;
  opt.engine_threads = engine_threads;
  if (plan.active()) opt.faults = &plan;

  auto finish = [&](auto& net, anon::RunResult run) {
    out.rep =
        anon::summarize_consensus_run(net, c.initial, c.crashes, run, false);
    const anon::ConsensusReport& rep = out.rep;
    out.key = {rep.rounds_executed, rep.sends,        rep.deliveries,
               rep.fault_drops,     rep.fault_dups,   rep.value,
               rep.last_decision_round};
    out.decisions.resize(c.env.n);
    out.decision_rounds.resize(c.env.n);
    for (ProcId p = 0; p < c.env.n; ++p) {
      out.decisions[p] = net.decision(p);
      out.decision_rounds[p] = net.decision_round(p);
    }
  };

  ScopedSpan span(c.span);
  if (c.cohort) {
    anon::CohortNet<EsMessage> net(
        anon::groups_by_initial_value<EsMessage>(
            c.initial,
            [](const Value& v) { return std::make_unique<EsConsensus>(v); }),
        delays, c.crashes, anon::CohortOptions::from(opt));
    const anon::RunResult run = drive(net, traced, out.round_ms);
    out.classes_max = net.stats().max_cohorts;
    finish(net, run);
  } else {
    std::vector<std::unique_ptr<anon::Automaton<EsMessage>>> autos;
    autos.reserve(c.env.n);
    for (const Value& v : c.initial) {
      auto a = std::make_unique<EsConsensus>(v);
      if (traced)
        autos.push_back(std::make_unique<TimedAutomaton<EsMessage>>(std::move(a)));
      else
        autos.push_back(std::move(a));
    }
    anon::LockstepNet<EsMessage> net(std::move(autos), delays, c.crashes, opt);
    finish(net, drive(net, traced, out.round_ms));
  }
  out.wall_s = seconds_since(t0);
  return out;
}

std::vector<Value> cycle_values(std::size_t n, std::size_t period,
                                std::uint64_t seed) {
  // A seed-chosen odd stride and offset permute the cycle's residues, so
  // every value still covers n / period processes.
  const std::uint64_t stride = (mix(seed, 11) % period) | 1;
  const std::uint64_t offset = mix(seed, 12) % period;
  std::vector<Value> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(Value(100 + static_cast<std::int64_t>((i * stride + offset) % period)));
  return out;
}

std::vector<Value> shuffled_distinct(std::size_t n, std::uint64_t seed) {
  std::vector<Value> out = anon::distinct_values(n);
  anon::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i)
    std::swap(out[i - 1], out[static_cast<std::size_t>(rng.below(i))]);
  return out;
}

class ConsensusInstance final : public Instance {
 public:
  explicit ConsensusInstance(std::vector<ConsensusCase> cases)
      : cases_(std::move(cases)), threads_(hardware_threads()) {}

  std::uint64_t ops_per_repetition() const override { return cases_.size(); }

  double repetition(bool traced, Verdict& verdict, Metrics& layers) override {
    std::vector<CaseResult> results;
    results.reserve(cases_.size());
    if (traced) compute_clock().reset();
    const AllocCounts a0 = alloc_counts();
    const auto t0 = Clock::now();
    for (const ConsensusCase& c : cases_)
      results.push_back(run_case(c, threads_, traced));
    const double wall = seconds_since(t0);
    const AllocCounts a1 = alloc_counts();

    for (std::size_t i = 0; i < cases_.size(); ++i) {
      check_case(cases_[i], results[i], verdict);
      if (keys_.size() < cases_.size()) {
        keys_.push_back(results[i].key);
      } else {
        verdict.require(keys_[i] == results[i].key,
                        std::string(cases_[i].span) +
                            ": counters and decision repeat across repetitions");
      }
      if (!traced && cases_[i].primary) ops_us_.push_back(results[i].wall_s * 1e6);
    }
    if (traced) record_layers(results, a1.count - a0.count, a1.bytes - a0.bytes, layers);
    return wall;
  }

  const std::vector<double>& op_samples_us() const override { return ops_us_; }

  void verify_once(Verdict& verdict) override {
    // 1 engine thread against hardware_threads() on the same shard cut, once
    // per engine: the first case and every cohort case.
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      if (i > 0 && !cases_[i].cohort) continue;
      const CaseResult one = run_case(cases_[i], 1, false);
      verdict.require(one.key == keys_.at(i),
                      std::string(cases_[i].span) +
                          ": 1 engine thread reproduces the multi-thread run");
    }
    // Cohort runs against the expanded engine on the same inputs.
    for (const ConsensusCase& c : cases_) {
      if (!c.cohort) continue;
      ConsensusCase expanded = c;
      expanded.cohort = false;
      const CaseResult a = run_case(c, threads_, false);
      const CaseResult b = run_case(expanded, threads_, false);
      check_case(expanded, b, verdict);
      verdict.require(a.key == b.key && a.decisions == b.decisions &&
                          a.decision_rounds == b.decision_rounds,
                      "cohort engine equals the expanded engine");
    }
  }

  void probe_layers(Metrics& layers) override {
    const ConsensusCase& c = cases_.front();
    const anon::EnvDelayModel delays(c.env, c.crashes);
    const anon::FaultPlan plan(c.faults, c.net.seed, c.env.n, &delays);
    probe_env(delays, plan, c.env.n, 1, layers);
    probe_frames(c.initial, layers);
  }

 private:
  void record_layers(const std::vector<CaseResult>& results,
                     std::uint64_t allocs, std::uint64_t bytes,
                     Metrics& layers) {
    std::map<std::string, std::vector<double>> rounds_by_metric;
    std::uint64_t rounds = 0, sends = 0, deliveries = 0;
    std::size_t classes_max = 0;
    std::vector<double> cells;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      auto& v = rounds_by_metric[cases_[i].round_metric];
      v.insert(v.end(), r.round_ms.begin(), r.round_ms.end());
      rounds += r.key.rounds;
      sends += r.key.sends;
      deliveries += r.key.deliveries;
      if (cases_[i].cohort) classes_max = std::max(classes_max, r.classes_max);
      cells.push_back(r.wall_s);
    }
    for (const auto& [name, v] : rounds_by_metric) {
      layers.set_if_absent(name + ".round_ms", median(v), "ms");
      layers.set_if_absent(name + ".round_max_ms", max_of(v), "ms");
    }
    if (classes_max > 0)
      layers.set_if_absent("net.cohort.classes_max", static_cast<double>(classes_max), "count");
    layers.set_if_absent("net.rounds", static_cast<double>(rounds), "count");
    layers.set_if_absent("net.sends", static_cast<double>(sends), "count");
    layers.set_if_absent("net.deliveries", static_cast<double>(deliveries), "count");
    layers.set_if_absent("algo.compute_ns", compute_clock().ns_per_call(), "ns");
    layers.set_if_absent("alloc.count", static_cast<double>(allocs), "count");
    layers.set_if_absent("alloc.bytes", static_cast<double>(bytes), "B");
    layers.set_if_absent("sweep.cell_p50_s", median(cells), "s");
    layers.set_if_absent("sweep.cell_max_s", max_of(cells), "s");
  }

  std::vector<ConsensusCase> cases_;
  std::size_t threads_;
  std::vector<CaseKey> keys_;
  std::vector<double> ops_us_;
};

anon::LockstepOptions net_options(std::uint64_t seed) {
  anon::LockstepOptions o;
  o.seed = seed;
  o.record_trace = false;
  o.record_deliveries = false;
  o.engine_shards = 8;  // one fixed cut, so 1 and N threads run the same shards
  o.max_rounds = 4000;
  return o;
}

}  // namespace

std::unique_ptr<Instance> make_consensus_scale(std::uint64_t seed, Scale s) {
  const bool full = s == Scale::kFull;
  std::vector<ConsensusCase> cases(2);

  ConsensusCase& big = cases[0];
  big.span = "net.expanded.run";
  big.round_metric = "net.expanded";
  big.env.kind = anon::EnvKind::kES;
  big.env.n = full ? 100000 : 4096;
  big.env.seed = mix(seed, 1);
  big.env.stabilization = 0;
  big.initial = cycle_values(big.env.n, 64, mix(seed, 2));
  big.crashes = anon::random_crashes(big.env.n, 8, 9, mix(seed, 3));
  big.net = net_options(mix(seed, 4));

  ConsensusCase& cohort = cases[1];
  cohort.span = "net.cohort.run";
  cohort.round_metric = "net.cohort";
  cohort.cohort = true;
  cohort.primary = false;
  cohort.env.kind = anon::EnvKind::kES;
  cohort.env.n = full ? 512 : 64;
  cohort.env.seed = mix(seed, 5);
  cohort.env.stabilization = 0;
  cohort.initial = shuffled_distinct(cohort.env.n, mix(seed, 6));
  cohort.net = net_options(mix(seed, 7));
  cohort.net.engine_shards = 0;  // one class shard per participant
  return std::make_unique<ConsensusInstance>(std::move(cases));
}

std::unique_ptr<Instance> make_consensus_faulty(std::uint64_t seed, Scale s) {
  const bool full = s == Scale::kFull;
  const std::size_t instances = full ? 2 : 1;
  const std::size_t n = full ? 512 : 48;
  std::vector<ConsensusCase> cases(instances);
  for (std::size_t i = 0; i < instances; ++i) {
    const std::uint64_t sub = mix(seed, 100 + i);
    ConsensusCase& c = cases[i];
    c.span = "net.perlink.run";
    c.round_metric = "net.perlink";
    c.env.kind = anon::EnvKind::kES;
    c.env.n = n;
    c.env.seed = mix(sub, 1);
    c.env.stabilization = 4;
    c.env.max_delay = 3;
    c.env.timely_prob = 0.25;
    c.initial = cycle_values(n, 8, mix(sub, 2));
    c.faults.loss_prob = 0.15;
    c.faults.dup_prob = 0.075;
    c.faults.dup_extra_delay = 2;
    c.faults.reorder_prob = 0.15;
    c.faults.max_extra_delay = 3;
    const ProcId omission = static_cast<ProcId>(mix(sub, 3) % n);
    const ProcId churner = static_cast<ProcId>((omission + 1 + mix(sub, 4) % (n - 1)) % n);
    c.faults.omission_senders = {omission};
    c.faults.churn = {{churner, 8, 20}};
    c.faults.exempt_source = true;
    c.net = net_options(mix(sub, 5));
  }
  return std::make_unique<ConsensusInstance>(std::move(cases));
}

}  // namespace pb
