#include "fault/fault_batch.hpp"

#include <algorithm>
#include <atomic>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace oblivious {

namespace {

inline FaultRouteOutcome route_one(const FaultAwareRouter& router,
                                   const Demand& demand, Rng& rng,
                                   RouteScratch& scratch, Path& out) {
  return router.route_with_faults(demand.src, demand.dst, rng, scratch, out);
}
inline FaultRouteOutcome route_one(const FaultAwareRouter& router,
                                   const Demand& demand, Rng& rng,
                                   RouteScratch& scratch, SegmentPath& out) {
  return router.route_segments_with_faults(demand.src, demand.dst, rng,
                                           scratch, out);
}

template <typename OutT>
FaultBatchStats run_fault_batch(const FaultAwareRouter& router,
                                std::span<const Demand> demands,
                                ThreadPool& pool,
                                const RouteBatchOptions& options,
                                std::vector<OutT>& out,
                                std::vector<FaultRouteStatus>* statuses) {
  const Mesh& mesh = router.mesh();
  for (const Demand& demand : demands) {
    OBLV_REQUIRE(demand.src >= 0 && demand.src < mesh.num_nodes() &&
                     demand.dst >= 0 && demand.dst < mesh.num_nodes(),
                 "demand endpoints must be mesh nodes");
  }
  const std::size_t n = demands.size();
  out.resize(n);
  if (statuses != nullptr) statuses->resize(n);
  FaultBatchStats stats;
  stats.demands = static_cast<std::int64_t>(n);
  if (n == 0) return stats;

  WallTimer timer;
  const std::size_t workers = std::max<std::size_t>(1, pool.num_threads());
  const std::size_t chunk =
      options.chunk_size != 0
          ? options.chunk_size
          : std::max<std::size_t>(1, n / (workers * 8));
  std::atomic<std::size_t> cursor{0};
  // Function-local merge lock: the analysis cannot attach GUARDED_BY to
  // a stack variable, but the annotated type keeps the D008 discipline
  // (no naked std sync primitives) uniform across the tree.
  oblv::Mutex stats_mutex;

  const auto drain = [&]() {
    RouteScratch scratch;
    FaultBatchStats local;
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::size_t end = std::min(n, begin + chunk);
      for (std::size_t i = begin; i < end; ++i) {
        Rng rng = packet_rng(options.seed, i);
        const FaultRouteOutcome outcome =
            route_one(router, demands[i], rng, scratch, out[i]);
        if (statuses != nullptr) (*statuses)[i] = outcome.status;
        local.attempts += outcome.attempts;
        local.backoff_steps += outcome.backoff_steps;
        switch (outcome.status) {
          case FaultRouteStatus::kClean:
            ++local.clean;
            break;
          case FaultRouteStatus::kRetried:
            ++local.retried;
            break;
          case FaultRouteStatus::kDetoured:
            ++local.detoured;
            break;
          case FaultRouteStatus::kDropped:
            // oblv-lint: allow(D005) tally of a drop the router already
            // counted into fault.drops at the decision site
            ++local.dropped;
            break;
        }
      }
    }
    // Integer sums merge associatively: the lock only serializes the
    // merge, it cannot change the totals.
    oblv::MutexLock lock(stats_mutex);
    stats.clean += local.clean;
    stats.retried += local.retried;
    stats.detoured += local.detoured;
    stats.dropped += local.dropped;
    stats.attempts += local.attempts;
    stats.backoff_steps += local.backoff_steps;
  };

  if (workers == 1) {
    drain();
  } else {
    for (std::size_t w = 0; w < workers; ++w) {
      pool.submit(drain);
    }
    pool.wait_idle();
  }
  stats.delivered = stats.clean + stats.retried + stats.detoured;
  OBLV_CHECK(stats.delivered + stats.dropped == stats.demands,
             "fault batch accounting: delivered + dropped must equal the "
             "demand count");
  OBLV_STAT_RECORD("routing.route_seconds", timer.elapsed_seconds());
  return stats;
}

}  // namespace

FaultBatchStats route_batch_with_faults(
    const FaultAwareRouter& router, std::span<const Demand> demands,
    ThreadPool& pool, const RouteBatchOptions& options,
    std::vector<SegmentPath>& out, std::vector<FaultRouteStatus>* statuses) {
  return run_fault_batch(router, demands, pool, options, out, statuses);
}

FaultBatchStats route_batch_paths_with_faults(
    const FaultAwareRouter& router, std::span<const Demand> demands,
    ThreadPool& pool, const RouteBatchOptions& options, std::vector<Path>& out,
    std::vector<FaultRouteStatus>* statuses) {
  return run_fault_batch(router, demands, pool, options, out, statuses);
}

}  // namespace oblivious
