// Fault-aware batch routing: route_batch's drain loop (drain_batch in
// parallel/route_batch.hpp) with FaultAwareRouter::route_segments_with_faults
// as the per-packet call, keeping each packet's recovery outcome. Because
// both the fault schedule and the packet streams are counter-derived, the
// produced paths AND the per-packet statuses are bit-identical for any
// thread count and claim order.
//
// Accounting contract: every demand is either delivered (clean, retried,
// or detoured) or dropped -- delivered + dropped == demands.size() is
// checked before returning; a packet can never wedge or vanish.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_router.hpp"
#include "mesh/segment_path.hpp"
#include "parallel/route_batch.hpp"
#include "workloads/problem.hpp"

namespace oblivious {

// Deterministic batch-level recovery tally: integer sums over the
// per-packet outcomes, reduced after the batch.
struct FaultBatchStats {
  std::int64_t demands = 0;    // packets presented to the router
  std::int64_t delivered = 0;  // clean + retried + detoured
  std::int64_t dropped = 0;    // budget exhausted, counted losses
  std::int64_t clean = 0;      // first draw avoided every failed edge
  std::int64_t retried = 0;    // recovered by re-randomization
  std::int64_t detoured = 0;   // recovered by the greedy detour
  std::int64_t attempts = 0;   // total inner draws consumed
  std::int64_t backoff_steps = 0;  // total backoff charged
};

// Routes demands[i] into out[i] and statuses[i] (both resized to match).
// For a dropped packet, out[i] holds the last inner draw (see
// FaultAwareRouter::route_with_faults); statuses[i] says whether to trust
// it. Pass statuses as nullptr to keep only the aggregate stats.
// \pre every demand's endpoints are node ids of the router's mesh.
FaultBatchStats route_batch_with_faults(
    const FaultAwareRouter& router, std::span<const Demand> demands,
    ThreadPool& pool, const RouteBatchOptions& options,
    std::vector<SegmentPath>& out,
    std::vector<FaultRouteStatus>* statuses = nullptr);

}  // namespace oblivious
