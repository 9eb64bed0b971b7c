// perfbench: one command for every workload of the benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 prints the end-to-end metrics of untraced repetitions;
// --trace 1 prints the per-layer metrics of a traced run (spans around the
// library calls, allocation counts, direct layer probes) together with the
// tracing overhead against untraced repetitions of the same run.  The last
// line of standard output is the result object; diagnostics go to stderr.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "probes.hpp"

namespace pb {
namespace {

const WorkloadDef kWorkloads[] = {
    {"consensus-scale", make_consensus_scale},
    {"consensus-faulty", make_consensus_faulty},
    {"emulation-stack", make_emulation_stack},
    {"live-service", make_live_service},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (key == "--spans") {
        a.spans_path = val;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

// Repeats the workload until `seconds` have passed (at least once).
std::vector<double> repeat_for(Instance& inst, double seconds, bool traced,
                               Verdict& v, Metrics& layers) {
  std::vector<double> walls;
  const auto t0 = Clock::now();
  do {
    walls.push_back(inst.repetition(traced, v, layers));
  } while (seconds_since(t0) < seconds);
  return walls;
}

void print_number(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", x);
  std::cout << buf;
}

int run(const Args& args) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads)
    if (args.workload == w.name) def = &w;
  if (def == nullptr) usage("unknown workload " + args.workload);

  std::unique_ptr<Instance> inst = def->make(args.seed, Scale::kFull);
  const double setup_s = seconds_since(process_start());

  Verdict verdict;
  Metrics out;
  std::uint64_t repetitions = 0;
  if (!args.trace) {
    Metrics unused;
    const std::vector<double> walls =
        repeat_for(*inst, args.seconds, false, verdict, unused);
    repetitions = walls.size();
    inst->verify_once(verdict);
    out.set("setup_s", setup_s, "s");
    out.set("run_s", median(walls), "s");
    out.set("op_p50_us", median(inst->op_samples_us()), "us");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::cerr << "[perfbench] " << def->name << ": " << walls.size()
              << " repetitions, " << inst->op_samples_us().size()
              << " operations timed, " << hardware_threads()
              << " hardware threads\n[perfbench] repetition seconds:";
    for (double w : walls) std::cerr << " " << w;
    std::cerr << "\n";
  } else {
    Metrics unused;
    const std::vector<double> plain =
        repeat_for(*inst, args.seconds / 2, false, verdict, unused);
    tracer().enable(mix(args.seed, static_cast<std::uint64_t>(getpid())));
    set_alloc_counting(true);
    const std::vector<double> traced =
        repeat_for(*inst, args.seconds / 2, true, verdict, out);
    repetitions = plain.size() + traced.size();
    set_alloc_counting(false);
    out.set("trace.run_s", median(traced), "s");
    out.set("trace.overhead_s", median(traced) - median(plain), "s");
    inst->probe_layers(out);
    probe_pool(out);
    // Layers this workload does not reach come from reduced runs of the
    // workloads that do; a workload's own values always win.
    for (const WorkloadDef& w : kWorkloads) {
      if (&w == def) continue;
      std::unique_ptr<Instance> panel = w.make(args.seed, Scale::kPanel);
      panel->repetition(true, verdict, out);
      panel->probe_layers(out);
    }
    tracer().disable();
    inst->verify_once(verdict);
    for (const auto& [layer, s] : tracer().self_seconds_by_layer())
      std::cerr << "[perfbench] self time " << layer << ": " << s << " s\n";
    if (!args.spans_path.empty() && !tracer().write(args.spans_path))
      std::cerr << "[perfbench] could not write spans to " << args.spans_path
                << "\n";
  }
  if (!verdict.correct)
    std::cerr << "[perfbench] CHECK FAILED: " << verdict.first_failure << "\n";

  std::cout << "{\"correct\": " << (verdict.correct ? "true" : "false")
            << ", \"attempted\": " << repetitions * inst->ops_per_repetition()
            << ", \"failed\": 0, \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out.all()) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": ";
    print_number(m.value);
    std::cout << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::run(pb::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
