#include "fault/fault_router.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/contracts.hpp"

namespace oblivious {

void RetryPolicy::require_valid() const {
  OBLV_REQUIRE(max_attempts >= 1, "retry policy needs >= 1 attempt");
  OBLV_REQUIRE(backoff_base >= 0, "backoff base must be non-negative");
}

FaultAwareRouter::FaultAwareRouter(const Router& inner,
                                   const FaultModel& faults,
                                   const RetryPolicy& policy,
                                   std::int64_t query_step)
    : Router(inner.mesh()),
      inner_(&inner),
      faults_(&faults),
      policy_(policy),
      query_step_(query_step) {
  OBLV_REQUIRE(&inner.mesh() == &faults.mesh(),
               "router and fault model must share one mesh");
  policy.require_valid();
  OBLV_REQUIRE(policy.detour_cap_factor >= 1,
               "detour cap factor must be >= 1");
}

void FaultAwareRouter::record_outcome(const Mesh& mesh, NodeId s, NodeId t,
                                      const FaultRouteOutcome& outcome,
                                      std::int64_t path_length) const {
  if (outcome.status == FaultRouteStatus::kClean) return;
  OBLV_COUNTER_ADD("fault.retries",
                   static_cast<std::uint64_t>(outcome.attempts - 1));
  OBLV_COUNTER_ADD("fault.backoff_steps",
                   static_cast<std::uint64_t>(outcome.backoff_steps));
  if (outcome.status == FaultRouteStatus::kDetoured) {
    OBLV_COUNTER_ADD("fault.detours", 1);
  }
  if (outcome.delivered()) {
    OBLV_COUNTER_ADD("fault.delivered_despite_faults", 1);
    // Degraded stretch: hops actually walked plus the backoff steps the
    // packet sat out, over the fault-free shortest distance.
    const double dist =
        static_cast<double>(std::max<std::int64_t>(mesh.distance(s, t), 1));
    OBLV_HISTOGRAM_ADD(
        "fault.degraded_stretch",
        (static_cast<double>(path_length) +
         static_cast<double>(outcome.backoff_steps)) /
            dist);
  }
}

FaultRouteOutcome FaultAwareRouter::route_with_faults(NodeId s, NodeId t,
                                                      Rng& rng,
                                                      RouteScratch& scratch,
                                                      Path& out) const {
  const FaultRouteOutcome outcome =
      route_segments_with_faults(s, t, rng, scratch, scratch.segments);
  path_from_segments_into(*mesh_, scratch.segments, out);
  return outcome;
}

FaultRouteOutcome FaultAwareRouter::route_segments_with_faults(
    NodeId s, NodeId t, Rng& rng, RouteScratch& scratch,
    SegmentPath& out) const {
  FaultRouteOutcome outcome;
  if (faults_->fault_free()) {
    inner_->route_segments_into(s, t, rng, scratch, out);
    return outcome;
  }
  expects_route_args(s, t);
  inner_->route_segments_into(s, t, rng, scratch, out);
  if (faults_->node_failed(s) || faults_->node_failed(t)) {
    // A dead endpoint is unrecoverable: no re-draw or detour can help.
    outcome.status = FaultRouteStatus::kDropped;
    OBLV_COUNTER_ADD("fault.drops", 1);
    record_outcome(*mesh_, s, t, outcome, out.length());
    return outcome;
  }
  if (!faults_->segments_failed(out, query_step_)) {
    return outcome;  // first draw is clean
  }
  while (outcome.attempts < policy_.max_attempts) {
    ++outcome.attempts;
    outcome.backoff_steps += policy_.backoff(outcome.attempts - 1);
    inner_->route_segments_into(s, t, rng, scratch, out);
    if (!faults_->segments_failed(out, query_step_)) {
      outcome.status = FaultRouteStatus::kRetried;
      record_outcome(*mesh_, s, t, outcome, out.length());
      return outcome;
    }
  }
  if (greedy_detour(s, t, query_step_, rng, scratch.fault_detour)) {
    out = segments_from_path(*mesh_, scratch.fault_detour);
    outcome.status = FaultRouteStatus::kDetoured;
    outcome.detour_hops = out.length();
    record_outcome(*mesh_, s, t, outcome, out.length());
    return outcome;
  }
  // Budget exhausted: the packet is dropped and counted; `out` keeps the
  // last inner draw so Router-interface callers still see a valid path.
  outcome.status = FaultRouteStatus::kDropped;
  OBLV_COUNTER_ADD("fault.drops", 1);
  record_outcome(*mesh_, s, t, outcome, out.length());
  return outcome;
}

bool FaultAwareRouter::greedy_detour(NodeId s, NodeId t, std::int64_t step,
                                     Rng& rng, Path& out) const {
  const Mesh& mesh = *mesh_;
  out.nodes.clear();
  out.nodes.push_back(s);
  if (s == t) return true;
  const std::int64_t cap =
      policy_.detour_cap_factor * std::max<std::int64_t>(mesh.distance(s, t), 1) +
      16;
  const Coord target = mesh.coord(t);
  NodeId cur = s;
  NodeId prev = kInvalidNode;
  for (std::int64_t hops = 0; hops < cap && cur != t; ++hops) {
    const Coord cc = mesh.coord(cur);
    NodeId next = kInvalidNode;
    // Productive steps first, largest remaining displacement first (ties
    // break toward the lower dimension: fully deterministic).
    struct ProductiveDim {
      std::int64_t neg_abs;  // -|displacement|: ascending sort = biggest first
      std::int32_t d;
    };
    SmallVec<ProductiveDim, 8> productive;
    for (int d = 0; d < mesh.dim(); ++d) {
      const std::int64_t disp = mesh.displacement(
          cc[static_cast<std::size_t>(d)],
          target[static_cast<std::size_t>(d)], d);
      if (disp != 0) {
        productive.push_back({std::min(disp, -disp), d});
      }
    }
    std::sort(productive.begin(), productive.end(),
              [](const ProductiveDim& a, const ProductiveDim& b) {
                return a.neg_abs != b.neg_abs ? a.neg_abs < b.neg_abs
                                              : a.d < b.d;
              });
    for (const auto& [neg_abs, d] : productive) {
      (void)neg_abs;
      const std::int64_t disp = mesh.displacement(
          cc[static_cast<std::size_t>(d)],
          target[static_cast<std::size_t>(d)], d);
      const NodeId v = mesh.step(cur, d, disp > 0 ? +1 : -1);
      if (v == kInvalidNode) continue;
      if (faults_->edge_failed(mesh.edge_between(cur, v), step)) continue;
      next = v;
      break;
    }
    if (next == kInvalidNode) {
      // Boxed in: sidestep through any live edge except straight back,
      // rng-picked so repeated dead ends become a random walk rather than
      // a deterministic ping-pong.
      SmallVec<NodeId, 16> alive;
      for (int d = 0; d < mesh.dim(); ++d) {
        for (const int dir : {+1, -1}) {
          const NodeId v = mesh.step(cur, d, dir);
          if (v == kInvalidNode || v == prev) continue;
          if (faults_->edge_failed(mesh.edge_between(cur, v), step)) continue;
          alive.push_back(v);
        }
      }
      if (!alive.empty()) {
        next = alive[static_cast<std::size_t>(rng.uniform_below(
            static_cast<std::uint64_t>(alive.size())))];
      } else if (prev != kInvalidNode &&
                 !faults_->edge_failed(mesh.edge_between(cur, prev), step)) {
        next = prev;  // dead end: backtrack
      } else {
        return false;  // stranded: every incident edge is dead
      }
    }
    prev = cur;
    cur = next;
    out.nodes.push_back(cur);
  }
  return cur == t;
}

void FaultAwareRouter::route_segments_into(NodeId s, NodeId t, Rng& rng,
                                           RouteScratch& scratch,
                                           SegmentPath& out) const {
  (void)route_segments_with_faults(s, t, rng, scratch, out);
  ensures_route_result(s, t, out);
}

std::unique_ptr<FaultAwareRouter> wrap_if_faulty(const Router& inner,
                                                 const FaultModel& faults,
                                                 const RetryPolicy& policy,
                                                 std::int64_t query_step) {
  if (faults.fault_free()) return nullptr;
  return std::make_unique<FaultAwareRouter>(inner, faults, policy, query_step);
}

}  // namespace oblivious
