#include "fault/fault_batch.hpp"

#include "util/check.hpp"

namespace oblivious {

FaultBatchStats route_batch_with_faults(
    const FaultAwareRouter& router, std::span<const Demand> demands,
    ThreadPool& pool, const RouteBatchOptions& options,
    std::vector<SegmentPath>& out, std::vector<FaultRouteStatus>* statuses) {
  require_mesh_endpoints(router.mesh(), demands);
  const std::size_t n = demands.size();
  out.resize(n);
  // One outcome slot per packet, owned by the worker that routes it: the
  // tally is reduced after the batch, so workers share nothing to lock.
  std::vector<FaultRouteOutcome> outcomes(n);
  drain_batch(n, pool, options.seed,
              [&](std::size_t i, Rng& rng, RouteScratch& scratch)
                  -> const SegmentPath& {
                outcomes[i] = router.route_segments_with_faults(
                    demands[i].src, demands[i].dst, rng, scratch, out[i]);
                return out[i];
              });

  if (statuses != nullptr) statuses->resize(n);
  FaultBatchStats stats;
  stats.demands = static_cast<std::int64_t>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const FaultRouteOutcome& outcome = outcomes[i];
    if (statuses != nullptr) (*statuses)[i] = outcome.status;
    stats.attempts += outcome.attempts;
    stats.backoff_steps += outcome.backoff_steps;
    switch (outcome.status) {
      case FaultRouteStatus::kClean:
        ++stats.clean;
        break;
      case FaultRouteStatus::kRetried:
        ++stats.retried;
        break;
      case FaultRouteStatus::kDetoured:
        ++stats.detoured;
        break;
      case FaultRouteStatus::kDropped:
        // oblv-lint: allow(D005) tally of a drop the router already
        // counted into fault.drops at the decision site
        ++stats.dropped;
        break;
    }
  }
  stats.delivered = stats.clean + stats.retried + stats.detoured;
  OBLV_CHECK(stats.delivered + stats.dropped == stats.demands,
             "fault batch accounting: delivered + dropped must equal the "
             "demand count");
  return stats;
}

}  // namespace oblivious
