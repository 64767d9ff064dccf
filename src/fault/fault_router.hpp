// Retry-with-rerandomization recovery around any oblivious router.
//
// Because path selection is oblivious (Section 1), recovery from a dead
// link needs no global state: the packet simply re-draws its path with
// fresh random bits -- the new draw is independent of the old one, so the
// congestion guarantees keep applying to whatever traffic is delivered.
// FaultAwareRouter wraps any Router with exactly that policy:
//
//   1. bounded retry: up to `max_attempts` inner draws, each validated
//      against the FaultModel; attempt k is charged an exponential
//      backoff of backoff_base * 2^(k-1) simulator steps;
//   2. last-resort greedy detour: a deterministic locally-greedy walk
//      (productive dimension first, randomized sidestep when boxed in)
//      around the failed edges;
//   3. drop: a packet that exhausts both is dropped and *counted*
//      (fault.drops) -- never wedged, never silently lost.
//
// Determinism: every decision consumes the packet's own rng stream, so
// the decorator composes with the counter-derived per-packet streams of
// route_batch -- output is bit-identical for any thread count. With a
// fault_free() model the decorator forwards straight to the inner router
// and is draw-for-draw identical to the unwrapped engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "fault/fault_model.hpp"
#include "routing/router.hpp"

namespace oblivious {

struct RetryPolicy {
  // Total inner draws per packet (>= 1); attempts beyond the first are
  // the "retries" in the fault.* accounting.
  int max_attempts = 4;
  // Backoff charged before retry k (k = 1 is the first retry):
  // backoff_base * 2^(k-1) simulator steps. 0 disables backoff.
  std::int64_t backoff_base = 1;
  // Greedy-detour hop budget: detour_cap_factor * dist(s, t) + 16.
  std::int64_t detour_cap_factor = 8;

  // Backoff charged before retry k (k >= 1): backoff_base * 2^(k-1),
  // shift-capped so pathological budgets cannot overflow.
  std::int64_t backoff(int k) const {
    return backoff_base << std::min(k - 1, 32);
  }
  // Throws std::invalid_argument unless max_attempts >= 1 and
  // backoff_base >= 0.
  void require_valid() const;
};

enum class FaultRouteStatus {
  kClean,     // first draw avoided every failed edge
  kRetried,   // a re-draw (attempt >= 2) succeeded
  kDetoured,  // the greedy detour delivered a path
  kDropped,   // budget exhausted; the packet is counted as lost
};

struct FaultRouteOutcome {
  FaultRouteStatus status = FaultRouteStatus::kClean;
  int attempts = 1;                // inner draws consumed
  std::int64_t backoff_steps = 0;  // total backoff charged
  std::int64_t detour_hops = 0;    // length of the detour path, if any

  bool delivered() const { return status != FaultRouteStatus::kDropped; }
};

class FaultAwareRouter final : public Router {
 public:
  // `inner` and `faults` must outlive the decorator and share the mesh.
  // `query_step` is the instant the fault schedule is probed at (batch
  // routing selects every path at one point in time).
  // \pre inner.mesh() and faults.mesh() are the same object, and the
  // policy has max_attempts >= 1, backoff_base >= 0, detour_cap_factor
  // >= 1 (violations throw).
  FaultAwareRouter(const Router& inner, const FaultModel& faults,
                   const RetryPolicy& policy = {},
                   std::int64_t query_step = 0);

  const Router& inner() const { return *inner_; }
  const FaultModel& faults() const { return *faults_; }
  const RetryPolicy& policy() const { return policy_; }
  std::int64_t query_step() const { return query_step_; }

  // Full-outcome entry point: the retry/detour loop. On kDropped, `out`
  // holds the last inner draw (a valid mesh path that crosses a failed
  // edge) so callers that ignore the outcome still satisfy the Router
  // postconditions; callers that honor it must treat the packet as
  // undeliverable.
  FaultRouteOutcome route_segments_with_faults(NodeId s, NodeId t, Rng& rng,
                                               RouteScratch& scratch,
                                               SegmentPath& out) const;
  // The same loop, its result staged in scratch.segments (overwriting
  // it) and expanded in place into the node list `out`.
  FaultRouteOutcome route_with_faults(NodeId s, NodeId t, Rng& rng,
                                      RouteScratch& scratch, Path& out) const;

  // Router interface: the same recovery policy, outcome reported only
  // through the fault.* metrics. Draw-for-draw identical to the inner
  // router when the model is fault_free().
  void route_segments_into(NodeId s, NodeId t, Rng& rng,
                           RouteScratch& scratch,
                           SegmentPath& out) const override;

  std::string name() const override { return inner_->name() + "+fault"; }
  bool deterministic() const override { return inner_->deterministic(); }

  // Deterministic greedy walk from s to t avoiding failed edges: steps
  // along the dimension with the largest remaining displacement whose
  // edge is alive, and sidesteps (rng tie-broken, avoiding immediate
  // backtrack) when every productive edge is dead. Returns false when the
  // hop budget runs out before reaching t; `out` then holds the partial
  // walk. Exposed for tests.
  bool greedy_detour(NodeId s, NodeId t, std::int64_t step, Rng& rng,
                     Path& out) const;

 private:
  void record_outcome(const Mesh& mesh, NodeId s, NodeId t,
                      const FaultRouteOutcome& outcome,
                      std::int64_t path_length) const;

  const Router* inner_;
  const FaultModel* faults_;
  RetryPolicy policy_;
  std::int64_t query_step_;
};

// Convenience: wraps `inner` only when the model can actually fail
// something; otherwise returns nullptr (callers keep using `inner`).
std::unique_ptr<FaultAwareRouter> wrap_if_faulty(
    const Router& inner, const FaultModel& faults,
    const RetryPolicy& policy = {}, std::int64_t query_step = 0);

}  // namespace oblivious
