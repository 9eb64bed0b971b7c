// live-service: a five-node anonsvc cluster over loopback UDP (2 ms
// pacemaker period, the e17 presets' shape).
//
// One cycle boots clusters to their first decision, then drives a fresh
// service cluster with an open-loop client schedule: ABD writes and reads
// from every client connection, then weak-set adds from one connection,
// then weak-set gets from every connection.  Each request is timed from
// the instant it was due, so a stalled node also charges the requests
// queued behind it.
//
// Gets do not overlap adds: a get sent right after an add returns can
// miss the value, because the service's add certificate counts the node's
// own looped-back frame (see CHANGES.md).  The get phase starts a few
// pacemaker periods after the last add.
// This is the only workload that reaches svc/, runtime/codec and the
// pacemaker.
#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "probes.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "weakset/reference_checkers.hpp"
#include "weakset/weak_set.hpp"
#include "weakset/ws_register.hpp"

namespace pb {

namespace {

using anon::Value;
using std::chrono::milliseconds;

constexpr std::size_t kNodes = 5;
constexpr milliseconds kPeriod{2};
constexpr milliseconds kOpTimeout{5000};

struct Sizes {
  std::size_t boots;       // boot-to-decision samples per cycle
  std::size_t abd_ops;     // per client
  double abd_interval_ms;  // per client
  std::size_t gets;        // per client
  double get_interval_ms;
  std::size_t adds;        // by the adder client
  double add_interval_ms;
};

constexpr Sizes kFull = {3, 60, 3.0, 60, 2.5, 8, 25.0};
constexpr Sizes kPanel = {1, 10, 3.0, 10, 2.5, 2, 25.0};

// Logical stamps for the checkers: drawn at the real start/end instants, so
// real-time order between operations is preserved across client threads.
std::atomic<std::uint64_t> g_stamp{1};

struct OpSample {
  double latency_us = 0;  // completion minus due time
  double late_us = 0;     // send time minus due time
};

struct ClientLog {
  bool ok = true;
  std::string failure;
  std::vector<anon::RegOpRecord> abd;
  std::vector<anon::WsOpRecord> ws;
  std::vector<OpSample> abd_samples, get_samples, add_samples;
};

anon::LiveClusterOptions cluster_options(std::uint64_t seed,
                                         std::vector<Value> proposals) {
  anon::LiveClusterOptions o;
  o.n = kNodes;
  o.seed = seed;
  o.epoch = seed | 1;
  o.period = kPeriod;
  o.proposals = std::move(proposals);
  return o;
}

// Runs `count` requests of a client on a fixed schedule starting at t0.
template <typename Fn>
void open_loop(Clock::time_point t0, double offset_ms, double interval_ms,
               std::size_t count, Fn&& send) {
  for (std::size_t k = 0; k < count; ++k) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  offset_ms + interval_ms * static_cast<double>(k)));
    std::this_thread::sleep_until(due);
    send(due, k);
  }
}

class LiveInstance final : public Instance {
 public:
  LiveInstance(const Sizes& z, std::uint64_t seed)
      : z_(z),
        seed_(seed),
        clients_(std::min<std::size_t>(4, hardware_threads())) {
    for (std::size_t i = 0; i < kNodes; ++i)
      proposals_.push_back(Value(1000 + static_cast<std::int64_t>(mix(seed, i) % 1000)));
    boot_next();  // the first service cluster is part of set-up
  }

  ~LiveInstance() override {
    if (next_ != nullptr) {
      next_->stop_all();
      next_->join();
    }
  }

  std::uint64_t ops_per_repetition() const override {
    return z_.boots + clients_ * (z_.abd_ops + z_.gets) + z_.adds;
  }

  double repetition(bool traced, Verdict& verdict, Metrics& layers) override {
    const AllocCounts a0 = alloc_counts();
    const auto t0 = Clock::now();
    std::vector<double> decide_ms, round_ms, rounds_to_decide;
    for (std::size_t b = 0; b < z_.boots; ++b)
      boot_to_decision(cycle_ * 31 + b, verdict, decide_ms, round_ms,
                       rounds_to_decide);

    std::unique_ptr<anon::LiveCluster> cluster = std::move(next_);
    std::vector<ClientLog> logs(clients_);
    {
      ScopedSpan span("svc.abd_phase");
      run_clients(*cluster, logs, Phase::kAbd, milliseconds(2));
    }
    {
      ScopedSpan span("svc.ws_add_phase");
      run_clients(*cluster, logs, Phase::kAdds, milliseconds(2));
    }
    {
      ScopedSpan span("svc.ws_get_phase");
      run_clients(*cluster, logs, Phase::kGets, kPeriod * 5);
    }
    const double wall = seconds_since(t0);
    const AllocCounts a1 = alloc_counts();

    cluster->stop_all();
    cluster->join();
    std::uint64_t frames = 0, bytes = 0;
    for (std::size_t i = 0; i < cluster->n(); ++i) {
      frames += cluster->node(i).frames_sent();
      bytes += cluster->node(i).bytes_sent();
    }
    cluster.reset();
    check_histories(logs, verdict);
    ++cycle_;
    boot_next();

    std::vector<double> abd, get, add, late;
    for (const ClientLog& l : logs) {
      for (const OpSample& s : l.abd_samples) abd.push_back(s.latency_us);
      for (const OpSample& s : l.get_samples) get.push_back(s.latency_us);
      for (const OpSample& s : l.add_samples) add.push_back(s.latency_us / 1e3);
      for (const auto* v : {&l.abd_samples, &l.get_samples, &l.add_samples})
        for (const OpSample& s : *v) late.push_back(s.late_us);
    }
    if (!traced) ops_us_.insert(ops_us_.end(), abd.begin(), abd.end());
    if (traced) {
      const double ops = static_cast<double>(abd.size() + get.size() + add.size());
      layers.set_if_absent("svc.boot_ms", median(boot_ms_), "ms");
      layers.set_if_absent("svc.decide_ms", median(decide_ms), "ms");
      layers.set_if_absent("svc.round_ms", median(round_ms), "ms");
      layers.set_if_absent("svc.rounds_to_decide", median(rounds_to_decide), "count");
      layers.set_if_absent("svc.abd_op_us", median(abd), "us");
      layers.set_if_absent("svc.abd_op_p99_us", percentile(abd, 0.99), "us");
      layers.set_if_absent("svc.abd_op_max_us", max_of(abd), "us");
      layers.set_if_absent("svc.ws_get_us", median(get), "us");
      layers.set_if_absent("svc.ws_get_p99_us", percentile(get, 0.99), "us");
      layers.set_if_absent("svc.ws_add_ms", median(add), "ms");
      layers.set_if_absent("svc.generator_late_us", percentile(late, 0.99), "us");
      layers.set_if_absent("svc.frames_per_op", static_cast<double>(frames) / ops, "count");
      layers.set_if_absent("svc.bytes_per_op", static_cast<double>(bytes) / ops, "B");
      layers.set_if_absent("alloc.count", static_cast<double>(a1.count - a0.count), "count");
      layers.set_if_absent("alloc.bytes", static_cast<double>(a1.bytes - a0.bytes), "B");
    }
    return wall;
  }

  const std::vector<double>& op_samples_us() const override { return ops_us_; }

  // Every cycle is checked as it ends (check_histories, boot_to_decision).
  void verify_once(Verdict&) override {}

  void probe_layers(Metrics& layers) override {
    probe_frames(proposals_, layers);
    anon::EnvParams env;
    env.kind = anon::EnvKind::kES;
    env.n = kNodes;
    env.seed = seed_;
    const anon::EnvDelayModel delays(env, anon::CrashPlan{});
    const anon::FaultPlan plan(anon::FaultParams{}, seed_, kNodes, &delays);
    probe_env(delays, plan, kNodes, 1, layers);
  }

 private:
  void boot_next() {
    next_ = std::make_unique<anon::LiveCluster>(
        cluster_options(mix(seed_, 1000 + cycle_), proposals_));
    ScopedSpan span("svc.start");
    const auto t = Clock::now();
    if (!next_->start())
      throw std::runtime_error("live cluster failed to start: " + next_->error());
    boot_ms_.push_back(seconds_since(t) * 1e3);
  }

  // Boots a cluster, waits for node 0's decision as a client sees it, then
  // collects every node's decision for the agreement and validity checks.
  void boot_to_decision(std::uint64_t k, Verdict& verdict,
                        std::vector<double>& decide_ms,
                        std::vector<double>& round_ms,
                        std::vector<double>& rounds_to_decide) {
    std::vector<Value> proposals;
    for (std::size_t i = 0; i < kNodes; ++i)
      proposals.push_back(Value(static_cast<std::int64_t>(mix(seed_ + k, i) % 100000)));
    anon::LiveCluster cluster(cluster_options(mix(seed_, k), proposals));
    ScopedSpan span("svc.boot_to_decision");
    const auto t0 = Clock::now();
    if (!cluster.start())
      throw std::runtime_error("live cluster failed to start: " + cluster.error());
    std::vector<Value> decisions;
    for (std::size_t i = 0; i < kNodes; ++i) {
      anon::SvcClient client;
      const bool connected = client.connect(cluster.client_port(i));
      const auto r = connected ? client.decision(kOpTimeout) : anon::SvcClient::Result{};
      if (i == 0) decide_ms.push_back(seconds_since(t0) * 1e3);
      verdict.require(r.ok() && r.values.size() == 1,
                      "live: every node answers its decision");
      if (r.ok() && r.values.size() == 1) decisions.push_back(r.values[0]);
    }
    cluster.stop_all();
    cluster.join();
    const anon::Round r0 = cluster.node(0).decision_round();
    if (r0 > 0) {
      rounds_to_decide.push_back(static_cast<double>(r0));
      round_ms.push_back(decide_ms.back() / static_cast<double>(r0));
    }
    const std::set<Value> proposed(proposals.begin(), proposals.end());
    for (const Value& d : decisions) {
      verdict.require(d == decisions.front(), "live: agreement across nodes");
      verdict.require(proposed.count(d) == 1, "live: the decision was proposed");
    }
  }

  enum class Phase { kAbd, kAdds, kGets };

  // Runs one phase's clients, their schedules starting `lead` from now.
  void run_clients(anon::LiveCluster& cluster, std::vector<ClientLog>& logs,
                   Phase phase, milliseconds lead) {
    std::vector<std::thread> threads;
    const auto t0 = Clock::now() + lead;
    const std::size_t count = phase == Phase::kAdds ? 1 : clients_;
    for (std::size_t c = 0; c < count; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[c];
        anon::SvcClient client;
        const std::size_t node = c % cluster.n();
        if (!client.connect(cluster.client_port(node))) {
          log.ok = false;
          log.failure = "connect: " + client.error();
          return;
        }
        switch (phase) {
          case Phase::kAbd:
            abd_client(client, c, node, t0, log);
            break;
          case Phase::kAdds:
            adder_client(client, node, t0, log);
            break;
          case Phase::kGets:
            getter_client(client, c, node, t0, log);
            break;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  static OpSample sample(Clock::time_point due, Clock::time_point sent) {
    OpSample s;
    s.late_us = seconds_between(due, sent) * 1e6;
    s.latency_us = seconds_since(due) * 1e6;
    return s;
  }

  void abd_client(anon::SvcClient& client, std::size_t c, std::size_t node,
                  Clock::time_point t0, ClientLog& log) {
    const double stagger = z_.abd_interval_ms * static_cast<double>(c) /
                           static_cast<double>(clients_);
    open_loop(t0, stagger, z_.abd_interval_ms, z_.abd_ops,
              [&](Clock::time_point due, std::size_t k) {
                if (!log.ok) return;
                anon::RegOpRecord rec;
                rec.process = node;
                const bool write = (k + c) % 2 == 0;
                const std::int64_t value = static_cast<std::int64_t>(
                    (cycle_ * 16 + c) * 1000 + k + 1);
                const auto sent = Clock::now();
                rec.start = g_stamp.fetch_add(1);
                const auto r = write ? client.reg_write(value, kOpTimeout)
                                     : client.reg_read(kOpTimeout);
                rec.end = g_stamp.fetch_add(1);
                log.abd_samples.push_back(sample(due, sent));
                if (!r.ok()) {
                  log.ok = false;
                  log.failure = "ABD operation failed";
                  return;
                }
                rec.kind = write ? anon::RegOpRecord::Kind::kWrite
                                 : anon::RegOpRecord::Kind::kRead;
                if (write)
                  rec.value = Value(value);
                else if (!r.values.empty())
                  rec.value = r.values[0];
                log.abd.push_back(rec);
              });
  }

  void adder_client(anon::SvcClient& client, std::size_t node,
                    Clock::time_point t0, ClientLog& log) {
    open_loop(t0, 0, z_.add_interval_ms, z_.adds,
              [&](Clock::time_point due, std::size_t k) {
                if (!log.ok) return;
                anon::WsOpRecord rec;
                rec.kind = anon::WsOpRecord::Kind::kAdd;
                rec.value = Value(static_cast<std::int64_t>(cycle_ * 1000 + k + 1));
                rec.process = node;
                const auto sent = Clock::now();
                rec.start = g_stamp.fetch_add(1);
                const auto r = client.ws_add(rec.value.get(), kOpTimeout);
                rec.end = g_stamp.fetch_add(1);
                log.add_samples.push_back(sample(due, sent));
                if (!r.ok()) {
                  log.ok = false;
                  log.failure = "weak-set add failed";
                  return;
                }
                log.ws.push_back(rec);
              });
  }

  void getter_client(anon::SvcClient& client, std::size_t c, std::size_t node,
                     Clock::time_point t0, ClientLog& log) {
    const double stagger = z_.get_interval_ms * static_cast<double>(c) /
                           static_cast<double>(clients_);
    open_loop(t0, stagger, z_.get_interval_ms, z_.gets,
              [&](Clock::time_point due, std::size_t) {
                if (!log.ok) return;
                anon::WsOpRecord rec;
                rec.kind = anon::WsOpRecord::Kind::kGet;
                rec.process = node;
                const auto sent = Clock::now();
                rec.start = g_stamp.fetch_add(1);
                const auto r = client.ws_get(kOpTimeout);
                rec.end = g_stamp.fetch_add(1);
                log.get_samples.push_back(sample(due, sent));
                if (!r.ok()) {
                  log.ok = false;
                  log.failure = "weak-set get failed";
                  return;
                }
                for (const Value& v : r.values) rec.result.insert(v);
                log.ws.push_back(rec);
              });
  }

  void check_histories(const std::vector<ClientLog>& logs, Verdict& verdict) {
    std::vector<anon::RegOpRecord> abd;
    std::vector<anon::WsOpRecord> ws;
    for (const ClientLog& l : logs) {
      verdict.require(l.ok, "live client: " + l.failure);
      abd.insert(abd.end(), l.abd.begin(), l.abd.end());
      ws.insert(ws.end(), l.ws.begin(), l.ws.end());
    }
    verdict.require(anon::check_regular_register(abd).ok &&
                        anon::ref_check_regular_register(abd).ok,
                    "live ABD history passes both regularity checkers");
    const anon::WsCheckResult fast = anon::check_weak_set_spec(ws);
    const anon::WsCheckResult ref = anon::ref_check_weak_set_spec(ws);
    verdict.require(fast.ok && ref.ok,
                    "live weak-set history passes both spec checkers: " +
                        fast.violation + " / " + ref.violation);
    // Directly: a get holds every value whose add completed before it
    // began, and nothing that was never added.
    std::set<Value> added;
    for (const anon::WsOpRecord& op : ws)
      if (op.kind == anon::WsOpRecord::Kind::kAdd) added.insert(op.value);
    for (const anon::WsOpRecord& g : ws) {
      if (g.kind != anon::WsOpRecord::Kind::kGet) continue;
      for (const Value& v : g.result)
        verdict.require(added.count(v) == 1, "live get returns only added values");
      for (const anon::WsOpRecord& a : ws)
        if (a.kind == anon::WsOpRecord::Kind::kAdd && a.end < g.start)
          verdict.require(g.result.count(a.value) == 1,
                          "live get holds every add completed before it");
    }
  }

  Sizes z_;
  std::uint64_t seed_;
  std::size_t clients_;
  std::vector<Value> proposals_;
  std::uint64_t cycle_ = 0;
  std::unique_ptr<anon::LiveCluster> next_;
  std::vector<double> boot_ms_;
  std::vector<double> ops_us_;
};

}  // namespace

std::unique_ptr<Instance> make_live_service(std::uint64_t seed, Scale s) {
  return std::make_unique<LiveInstance>(s == Scale::kFull ? kFull : kPanel, seed);
}

}  // namespace pb
