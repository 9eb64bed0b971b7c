#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace pb {

namespace {

// The launcher passes the CLOCK_MONOTONIC instant at which it started this
// process, so that exec and dynamic loading count towards set-up too;
// steady_clock reads the same clock.  Without it, static initialization of
// this file is the origin.
Clock::time_point start_instant() {
  const Clock::time_point here = Clock::now();
  if (const char* env = std::getenv("PERFBENCH_SPAWN_NS")) {
    const Clock::time_point spawn{std::chrono::nanoseconds(std::strtoll(env, nullptr, 10))};
    if (spawn <= here && here - spawn < std::chrono::seconds(60)) return spawn;
  }
  return here;
}

const Clock::time_point g_start = start_instant();

}  // namespace

Clock::time_point process_start() { return g_start; }

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_since(Clock::time_point t) {
  return seconds_between(t, Clock::now());
}

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::size_t hardware_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// ---- tracer -------------------------------------------------------------------

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::enable(std::uint64_t run_id) {
  on_ = true;
  owner_ = std::this_thread::get_id();
  run_id_ = run_id;
  current_ = -1;
  if (spans_.capacity() < 4096) spans_.reserve(4096);
}

std::int32_t Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = current_;
  s.start_ns = now_ns();
  spans_.push_back(s);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Tracer::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  current_ = spans_[static_cast<std::size_t>(id)].parent;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    out[layer] +=
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                            child_ns[i]) * 1e-9;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"run\":" << run_id_ << ",\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace pb
