// Shared machinery of the benchmark program: metrics, the span tracer,
// allocation counting, statistics and the workload interface.
//
// Everything here sits outside the library: spans wrap calls into the
// library's public functions from the benchmark's side, so an untraced run
// executes exactly the library code a user would.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

// The origin of `setup_s`: the instant the launcher started this process
// (PERFBENCH_SPAWN_NS), else static initialization of this program.
Clock::time_point process_start();

double seconds_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point t);

// Worker threads the benchmark may use: the CPUs this process may run on
// (what `nproc` prints), at least 1.
std::size_t hardware_threads();

// Peak resident set of this process, in MB.
double peak_rss_mb();

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> v);
// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);
double max_of(const std::vector<double>& v);

// ---- metrics ----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  // Keeps a value a workload's own section already produced.
  void set_if_absent(const std::string& name, double value,
                     const std::string& unit) {
    values_.emplace(name, Metric{value, unit});
  }
  const std::map<std::string, Metric>& all() const { return values_; }

 private:
  std::map<std::string, Metric> values_;
};

// ---- correctness ------------------------------------------------------------

// What the run checked.  A failed check clears `correct` and keeps the first
// reason; main() prints it on stderr.
struct Verdict {
  bool correct = true;
  std::string first_failure;
  void require(bool ok, const std::string& what) {
    if (ok) return;
    if (correct) first_failure = what;
    correct = false;
  }
};

// ---- span tracer --------------------------------------------------------------

// One wrapped public call: name ("layer.call"), interval and the span that
// was open when it started (-1 at top level).  Spans are recorded on the
// thread that enabled the tracer; calls a worker thread makes are timed by
// their workload but not spanned.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

class Tracer {
 public:
  bool on() const { return on_ && std::this_thread::get_id() == owner_; }
  void enable(std::uint64_t run_id);
  void disable() { on_ = false; }
  std::int32_t open(const char* name);
  void close(std::int32_t id);

  // Self time per layer (span minus the part its children cover), seconds.
  std::map<std::string, double> self_seconds_by_layer() const;
  // Writes every span as one JSON line; returns false if the file failed.
  bool write(const std::string& path) const;

 private:
  bool on_ = false;
  std::thread::id owner_;
  std::uint64_t run_id_ = 0;
  std::int32_t current_ = -1;
  std::vector<Span> spans_;
};

Tracer& tracer();

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(tracer().on() ? tracer().open(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer().close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t id_;
};

// ---- allocation counting (alloc.cpp) ------------------------------------------

struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
// Counting is off unless a traced section turns it on; the replaced
// operator new then adds to process-wide counters.
void set_alloc_counting(bool on);
AllocCounts alloc_counts();

// ---- workloads ----------------------------------------------------------------

enum class Scale {
  kFull,   // the workload as measured
  kPanel,  // a reduced run, for layer metrics other workloads do not reach
};

// One workload instance: inputs are built by the factory (set-up), then the
// main loop repeats `repetition` for the measured time.  Every repetition does
// the same operations on the same inputs.
class Instance {
 public:
  virtual ~Instance() = default;

  // Operations one repetition attempts (consensus instances, cells, client
  // requests); `attempted` is repetitions times this.
  virtual std::uint64_t ops_per_repetition() const = 0;

  // Runs one repetition.  Returns the wall seconds of its timed section.
  // Output checks that are part of the library's surface (spec checkers)
  // are inside the timed section; the benchmark's own cross-checks are not.
  // With `traced`, spans wrap the library calls and layer metrics go to
  // `layers` (first producer wins).
  virtual double repetition(bool traced, Verdict& verdict,
                            Metrics& layers) = 0;

  // Latency samples of the workload's unit operation (microseconds),
  // accumulated over untraced repetitions; their median is `op_p50_us`.
  virtual const std::vector<double>& op_samples_us() const = 0;

  // Checks made once per run, outside the timed section: counters that
  // must repeat exactly (across repetitions and thread counts) and
  // cross-engine equalities.
  virtual void verify_once(Verdict& verdict) = 0;

  // Direct probes of single layers on inputs shaped like this workload.
  virtual void probe_layers(Metrics& layers) = 0;
};

struct WorkloadDef {
  const char* name;
  std::unique_ptr<Instance> (*make)(std::uint64_t seed, Scale scale);
};

std::unique_ptr<Instance> make_consensus_scale(std::uint64_t seed, Scale s);
std::unique_ptr<Instance> make_consensus_faulty(std::uint64_t seed, Scale s);
std::unique_ptr<Instance> make_emulation_stack(std::uint64_t seed, Scale s);
std::unique_ptr<Instance> make_live_service(std::uint64_t seed, Scale s);

// 64-bit mixing for seed-derived inputs.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

}  // namespace pb
