// Direct probes of single layers, called on inputs shaped like the
// workload that asks for them.
#pragma once

#include <cstddef>
#include <vector>

#include "bench.hpp"
#include "common/value.hpp"
#include "env/faults.hpp"
#include "net/schedule.hpp"

namespace pb {

// env.delay_ns, env.planned_source_ns, faults.fate_ns: per-call cost over
// round k's n² links, row-major, each function time-boxed so that a model
// at n = 10^5 finishes in a bounded time.
void probe_env(const anon::DelayModel& model, const anon::FaultPlan& plan,
               std::size_t n, anon::Round k, Metrics& layers);

// core.pool_dispatch_us: WorkerPool::parallel_for over hardware_threads()
// empty tasks.
void probe_pool(Metrics& layers);

// svc.frame_encode_ns / svc.frame_decode_ns on an ABD quorum frame and on
// a round frame shaped like the workload's batches: up to eight of its
// distinct proposals as singletons plus their union.
void probe_frames(const std::vector<anon::Value>& proposals, Metrics& layers);

}  // namespace pb
