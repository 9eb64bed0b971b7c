// emulation-stack: the §5 objects on a seed sweep.
//
// One cell per sub-seed runs Algorithm 4's weak set with scripted adds and
// gets, the Proposition-1 register over it, Algorithm 5's MS emulation on
// the interned and the cohort engines (the interned run is certified as an
// MS execution), and the Proposition-2/3 register constructions, each
// history passed through the library's spec checker.  weakset/, emul/,
// shm/ and the checkers do the work; consensus does not run.
#include <map>

#include "bench.hpp"
#include "emul/echo.hpp"
#include "emul/ms_emulation.hpp"
#include "emul/ms_emulation_cohort.hpp"
#include "emul/ms_emulation_ref.hpp"
#include "env/validate.hpp"
#include "probes.hpp"
#include "timed_automaton.hpp"
#include "weakset/ms_weak_set.hpp"
#include "weakset/reference_checkers.hpp"
#include "weakset/ws_from_mwmr.hpp"
#include "weakset/ws_from_swmr.hpp"
#include "weakset/ws_register.hpp"

namespace pb {

namespace {

using anon::ProcId;
using anon::Round;
using anon::Value;
using anon::ValueSet;

struct Sizes {
  std::size_t cells;
  std::size_t ws_n, ws_ops;
  std::size_t reg_n, reg_ops;
  std::size_t emul_n;
  Round emul_rounds;
  std::size_t cohort_n;
  Round cohort_rounds;
  std::size_t swmr_n, swmr_ops, mwmr_ops;
};

constexpr Sizes kFull = {8, 16, 48, 9, 8, 32, 120, 256, 30, 16, 1000, 100};
constexpr Sizes kPanel = {1, 8, 12, 5, 4, 8, 30, 32, 10, 8, 100, 40};

// Inputs of one cell, all derived from its sub-seed.
struct CellInput {
  std::uint64_t seed = 0;
  anon::EnvParams ws_env, reg_env;
  std::vector<anon::WsScriptOp> ws_script;
  std::vector<anon::RegScriptOp> reg_script;
  anon::MsEmulationOptions emul_opt;
  std::vector<std::int64_t> cohort_probes;  // echo seed per process
  std::vector<anon::ShmWsScriptOp> swmr_script;
  std::vector<Value> mwmr_domain;
  std::vector<anon::MwmrWsScriptOp> mwmr_script;
};

// Everything the benchmark checks or compares after the timed section.
struct CellOutput {
  anon::MsWeakSetRunResult ws;
  anon::WsCheckResult ws_check;
  anon::RegisterRunResult reg;
  bool emul_ran = false, emul_ms_ok = false;
  std::uint64_t emul_deliveries = 0;
  bool cohort_ran = false;
  std::uint64_t cohort_deliveries = 0;
  std::vector<anon::WsOpRecord> swmr, mwmr;
  anon::WsCheckResult swmr_check, mwmr_check;
  double wall_s = 0;
  // Traced runs: per-call milliseconds.
  std::map<std::string, double> ms;
};

anon::EnvParams ms_env(std::size_t n, std::uint64_t seed) {
  anon::EnvParams e;
  e.kind = anon::EnvKind::kMS;
  e.n = n;
  e.seed = seed;
  e.max_delay = 3;
  e.timely_prob = 0.25;
  return e;
}

CellInput make_cell(const Sizes& z, std::uint64_t seed) {
  CellInput in;
  in.seed = seed;
  in.ws_env = ms_env(z.ws_n, mix(seed, 1));
  const std::size_t ws_shift = mix(seed, 2) % z.ws_n;
  for (std::size_t i = 0; i < z.ws_ops; ++i) {
    in.ws_script.push_back({static_cast<Round>(2 + 3 * i), (i + ws_shift) % z.ws_n,
                            true, Value(100 + static_cast<std::int64_t>(i))});
    in.ws_script.push_back(
        {static_cast<Round>(3 + 3 * i), (i + ws_shift + 1) % z.ws_n, false, Value()});
  }
  in.reg_env = ms_env(z.reg_n, mix(seed, 3));
  const std::size_t reader = 2 + mix(seed, 4) % (z.reg_n - 2);
  for (std::size_t i = 0; i < z.reg_ops; ++i) {
    in.reg_script.push_back({static_cast<Round>(2 + 5 * i), i % 2, true,
                             Value(10 + static_cast<std::int64_t>(i))});
    in.reg_script.push_back({static_cast<Round>(4 + 5 * i), reader, false, Value()});
  }
  in.emul_opt.seed = mix(seed, 5);
  for (std::size_t p = 0; p < z.cohort_n; ++p)
    in.cohort_probes.push_back(static_cast<std::int64_t>((p + mix(seed, 6)) % 8));
  const std::uint64_t domain = 13;
  for (std::uint64_t i = 0; i < z.swmr_ops; ++i) {
    in.swmr_script.push_back({i * 2, i % z.swmr_n, true,
                              Value(static_cast<std::int64_t>((i + seed) % domain))});
    in.swmr_script.push_back({i * 2 + 1, (i + 1) % z.swmr_n, false, Value()});
  }
  for (std::int64_t v = 0; v < 64; ++v) in.mwmr_domain.push_back(Value(v));
  for (std::uint64_t k = 0; k < z.mwmr_ops; ++k) {
    in.mwmr_script.push_back({k * 2, k % 5, true,
                              Value(static_cast<std::int64_t>((k * 7 + seed) % 64))});
    in.mwmr_script.push_back({k * 2 + 1, (k + 2) % 5, false, Value()});
  }
  return in;
}

std::vector<ProcId> all_processes(std::size_t n) {
  std::vector<ProcId> v(n);
  for (ProcId p = 0; p < n; ++p) v[p] = p;
  return v;
}

std::vector<std::unique_ptr<anon::Automaton<ValueSet>>> echoes(std::size_t n,
                                                               bool timed) {
  std::vector<std::unique_ptr<anon::Automaton<ValueSet>>> autos;
  for (std::size_t i = 0; i < n; ++i) {
    auto a = std::make_unique<anon::EchoAutomaton>(static_cast<std::int64_t>(i));
    if (timed)
      autos.push_back(std::make_unique<TimedAutomaton<ValueSet>>(std::move(a)));
    else
      autos.push_back(std::move(a));
  }
  return autos;
}

// Times one library call; records its milliseconds when traced.
template <typename Fn>
auto timed_call(const char* span, bool traced, CellOutput& out, Fn&& fn) {
  ScopedSpan s(span);
  const auto t0 = Clock::now();
  auto r = fn();
  if (traced) out.ms[span] += seconds_since(t0) * 1e3;
  return r;
}

CellOutput run_cell(const Sizes& z, const CellInput& in, bool traced) {
  CellOutput out;
  const auto t0 = Clock::now();
  anon::WsRunOptions ws_opt;
  ws_opt.extra_rounds = 50;
  ws_opt.validate_env = true;
  out.ws = timed_call("weakset.run", traced, out, [&] {
    return anon::run_ms_weak_set(in.ws_env, anon::CrashPlan{}, in.ws_script, ws_opt);
  });
  out.ws_check = timed_call("weakset.check_spec", traced, out, [&] {
    return anon::check_weak_set_spec(out.ws.records);
  });

  anon::WsRunOptions reg_opt;
  reg_opt.extra_rounds = 60;
  reg_opt.validate_env = false;
  out.reg = timed_call("register.run", traced, out, [&] {
    return anon::run_register_over_ms(in.reg_env, anon::CrashPlan{}, in.reg_script,
                                      reg_opt);
  });
  // run_register_over_ms already checked regularity; time the checker alone.
  timed_call("register.check", traced, out, [&] {
    return anon::check_regular_register(out.reg.records);
  });

  {
    anon::MsEmulation<ValueSet> emu(echoes(z.emul_n, traced), in.emul_opt);
    out.emul_ran = timed_call("emul.interned.run", traced, out,
                              [&] { return emu.run_until_round(z.emul_rounds); });
    out.emul_deliveries = emu.trace().deliveries().size();
    out.emul_ms_ok = timed_call("env.check_environment", traced, out, [&] {
                       return anon::check_environment(emu.trace(), z.emul_n,
                                                      all_processes(z.emul_n));
                     }).ms_ok;
  }
  {
    std::map<std::int64_t, std::vector<ProcId>> by_seed;
    for (ProcId p = 0; p < in.cohort_probes.size(); ++p)
      by_seed[in.cohort_probes[p]].push_back(p);
    std::vector<anon::MsEmulationCohort<ValueSet>::InitGroup> groups;
    for (auto& [s, members] : by_seed)
      groups.push_back({std::make_unique<anon::EchoAutomaton>(s), members});
    anon::MsEmulationCohortOptions copt;
    copt.base = in.emul_opt;
    anon::MsEmulationCohort<ValueSet> emu(std::move(groups), copt);
    out.cohort_ran = timed_call("emul.cohort.run", traced, out,
                                [&] { return emu.run_until_round(z.cohort_rounds); });
    out.cohort_deliveries = emu.deliveries();
  }

  out.swmr = timed_call("shm.run", traced, out, [&] {
    return anon::run_ws_from_swmr(z.swmr_n, in.swmr_script, in.seed);
  });
  out.mwmr = timed_call("shm.run", traced, out, [&] {
    return anon::run_ws_from_mwmr(in.mwmr_domain, in.mwmr_script, in.seed);
  });
  out.swmr_check = timed_call("weakset.check_spec", traced, out,
                              [&] { return anon::check_weak_set_spec(out.swmr); });
  out.mwmr_check = timed_call("weakset.check_spec", traced, out,
                              [&] { return anon::check_weak_set_spec(out.mwmr); });
  out.wall_s = seconds_since(t0);
  return out;
}

// The benchmark's own checks: every verdict clean, and the brute-force
// reference checkers agree with the library's sweep checkers.
void check_cell(const CellOutput& o, Verdict& v) {
  v.require(o.ws.all_adds_completed && o.ws.env_check.ms_ok,
            "weak set: every add completes in a certified MS run");
  v.require(o.ws_check.ok && anon::ref_check_weak_set_spec(o.ws.records).ok,
            "weak set history passes both spec checkers");
  v.require(o.reg.check.ok && o.reg.writes_completed > 0 &&
                anon::check_regular_register(o.reg.records).ok &&
                anon::ref_check_regular_register(o.reg.records).ok,
            "register history passes both regularity checkers");
  v.require(o.emul_ran && o.emul_ms_ok,
            "interned emulation completes and certifies as MS");
  v.require(o.cohort_ran, "cohort emulation completes");
  v.require(o.swmr_check.ok && anon::ref_check_weak_set_spec(o.swmr).ok,
            "SWMR weak set passes both spec checkers");
  v.require(o.mwmr_check.ok && anon::ref_check_weak_set_spec(o.mwmr).ok,
            "MWMR weak set passes both spec checkers");
}

bool same_trace(const anon::Trace& a, const anon::Trace& b) {
  const auto& da = a.deliveries();
  const auto& db = b.deliveries();
  if (da.size() != db.size() || a.end_of_rounds().size() != b.end_of_rounds().size())
    return false;
  for (std::size_t i = 0; i < da.size(); ++i)
    if (da[i].sender != db[i].sender || da[i].receiver != db[i].receiver ||
        da[i].msg_round != db[i].msg_round ||
        da[i].receiver_round != db[i].receiver_round || da[i].time != db[i].time)
      return false;
  for (std::size_t i = 0; i < a.end_of_rounds().size(); ++i) {
    const auto& x = a.end_of_rounds()[i];
    const auto& y = b.end_of_rounds()[i];
    if (x.process != y.process || x.round != y.round || x.time != y.time)
      return false;
  }
  return true;
}

class EmulationInstance final : public Instance {
 public:
  EmulationInstance(const Sizes& z, std::uint64_t seed)
      : z_(z), threads_(hardware_threads()) {
    for (std::size_t i = 0; i < z.cells; ++i)
      inputs_.push_back(make_cell(z, mix(seed, 200 + i)));
  }

  std::uint64_t ops_per_repetition() const override { return inputs_.size(); }

  double repetition(bool traced, Verdict& verdict, Metrics& layers) override {
    if (traced) compute_clock().reset();
    const AllocCounts a0 = alloc_counts();
    const auto t0 = Clock::now();
    anon::SweepOptions sweep;
    sweep.threads = threads_;
    std::vector<CellOutput> outs = anon::parallel_sweep(
        inputs_.size(),
        [&](std::size_t i) { return run_cell(z_, inputs_[i], traced); }, sweep);
    const double wall = seconds_since(t0);
    const AllocCounts a1 = alloc_counts();

    std::vector<double> cells;
    for (std::size_t i = 0; i < outs.size(); ++i) {
      check_cell(outs[i], verdict);
      const auto key = std::make_pair(outs[i].emul_deliveries, outs[i].cohort_deliveries);
      if (keys_.size() < outs.size())
        keys_.push_back(key);
      else
        verdict.require(keys_[i] == key, "emulation deliveries repeat across repetitions");
      cells.push_back(outs[i].wall_s);
    }
    // One sample per repetition: the mean cell time.  Cells of different
    // sub-seeds differ in cost, and a median over that mixture jumps
    // between them.
    if (!traced) {
      double total = 0;
      for (double c : cells) total += c;
      ops_us_.push_back(total / static_cast<double>(cells.size()) * 1e6);
    }
    if (traced) {
      std::map<std::string, std::vector<double>> per_call;
      for (const CellOutput& o : outs)
        for (const auto& [name, ms] : o.ms) per_call[name].push_back(ms);
      for (const auto& [name, v] : per_call)
        layers.set_if_absent(name + "_ms", median(v), "ms");
      layers.set_if_absent("algo.compute_ns", compute_clock().ns_per_call(), "ns");
      layers.set_if_absent("alloc.count", static_cast<double>(a1.count - a0.count), "count");
      layers.set_if_absent("alloc.bytes", static_cast<double>(a1.bytes - a0.bytes), "B");
      layers.set_if_absent("sweep.cell_p50_s", median(cells), "s");
      layers.set_if_absent("sweep.cell_max_s", max_of(cells), "s");
    }
    return wall;
  }

  const std::vector<double>& op_samples_us() const override { return ops_us_; }

  void verify_once(Verdict& verdict) override {
    const CellInput& in = inputs_.front();
    // The interned engine against the retained reference engine, at a size
    // the reference runs quickly.
    {
      anon::MsEmulation<ValueSet> fast(echoes(8, false), in.emul_opt);
      anon::MsEmulationRef<ValueSet> ref(echoes(8, false), in.emul_opt);
      const bool a = fast.run_until_round(30);
      const bool b = ref.run_until_round(30);
      verdict.require(a && b && same_trace(fast.trace(), ref.trace()),
                      "interned emulation equals MsEmulationRef");
    }
    // The cohort engine against the interned engine on the cohort inputs.
    {
      std::vector<std::unique_ptr<anon::Automaton<ValueSet>>> autos;
      for (std::int64_t s : in.cohort_probes)
        autos.push_back(std::make_unique<anon::EchoAutomaton>(s));
      anon::MsEmulation<ValueSet> expanded(std::move(autos), in.emul_opt);
      expanded.run_until_round(z_.cohort_rounds);
      verdict.require(keys_.at(0).second == expanded.trace().deliveries().size(),
                      "cohort emulation equals the interned engine");
    }
  }

  void probe_layers(Metrics& layers) override {
    const CellInput& in = inputs_.front();
    const anon::EnvDelayModel delays(in.ws_env, anon::CrashPlan{});
    const anon::FaultPlan plan(anon::FaultParams{}, in.seed, in.ws_env.n, &delays);
    probe_env(delays, plan, in.ws_env.n, 1, layers);
    // The weak set's messages carry the scripted add values.
    std::vector<Value> added;
    for (const anon::WsScriptOp& op : in.ws_script)
      if (op.is_add) added.push_back(op.value);
    probe_frames(added, layers);
  }

 private:
  Sizes z_;
  std::size_t threads_;
  std::vector<CellInput> inputs_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> keys_;
  std::vector<double> ops_us_;
};

}  // namespace

std::unique_ptr<Instance> make_emulation_stack(std::uint64_t seed, Scale s) {
  return std::make_unique<EmulationInstance>(s == Scale::kFull ? kFull : kPanel,
                                             seed);
}

}  // namespace pb
