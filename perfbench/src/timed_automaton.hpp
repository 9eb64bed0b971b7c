// A forwarding Automaton that times the wrapped algorithm's compute().
//
// Engines accept caller-built automatons, so the benchmark can observe the
// algorithm layer from outside: every call is forwarded unchanged (cohort
// hooks included, unwrapping the other side of state_equals), and compute
// time is added to process-wide counters shared by the engine's worker
// threads.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>

#include "giraf/automaton.hpp"

namespace pb {

struct ComputeClock {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
  void reset() {
    calls.store(0);
    ns.store(0);
  }
  double ns_per_call() const {
    const std::uint64_t c = calls.load();
    return c == 0 ? 0.0 : static_cast<double>(ns.load()) / static_cast<double>(c);
  }
};

inline ComputeClock& compute_clock() {
  static ComputeClock c;
  return c;
}

template <anon::GirafMessage M>
class TimedAutomaton final : public anon::Automaton<M> {
 public:
  explicit TimedAutomaton(std::unique_ptr<anon::Automaton<M>> inner)
      : inner_(std::move(inner)) {}

  M initialize() override { return inner_->initialize(); }

  M compute(anon::Round k, const anon::Inboxes<M>& inboxes) override {
    const auto t0 = std::chrono::steady_clock::now();
    M out = inner_->compute(k, inboxes);
    const auto dt = std::chrono::steady_clock::now() - t0;
    ComputeClock& c = compute_clock();
    c.calls.fetch_add(1, std::memory_order_relaxed);
    c.ns.fetch_add(static_cast<std::uint64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                           .count()),
                   std::memory_order_relaxed);
    return out;
  }

  std::optional<anon::Value> decision() const override {
    return inner_->decision();
  }
  std::uint64_t state_digest() const override { return inner_->state_digest(); }
  bool state_equals(const anon::Automaton<M>& other) const override {
    const auto* o = dynamic_cast<const TimedAutomaton*>(&other);
    return o != nullptr && inner_->state_equals(*o->inner_);
  }
  std::unique_ptr<anon::Automaton<M>> clone_state() const override {
    auto inner = inner_->clone_state();
    if (inner == nullptr) return nullptr;
    return std::make_unique<TimedAutomaton>(std::move(inner));
  }

  const anon::Automaton<M>& inner() const { return *inner_; }
  anon::Automaton<M>& inner() { return *inner_; }

 private:
  std::unique_ptr<anon::Automaton<M>> inner_;
};

}  // namespace pb
