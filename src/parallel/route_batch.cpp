#include "parallel/route_batch.hpp"

#include <algorithm>
#include <atomic>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace oblivious {

namespace {

inline void check_endpoints(const Path& p, const Demand& demand) {
  OBLV_CHECK(!p.nodes.empty() && p.source() == demand.src &&
                 p.destination() == demand.dst,
             "router returned a path with wrong endpoints");
}
inline void check_endpoints(const SegmentPath& sp, const Demand& demand) {
  OBLV_CHECK(sp.source == demand.src && sp.destination() == demand.dst,
             "router returned a path with wrong endpoints");
}

inline void route_one(const Router& router, const Demand& demand, Rng& rng,
                      RouteScratch& scratch, Path& out) {
  router.route_into(demand.src, demand.dst, rng, scratch, out);
}
inline void route_one(const Router& router, const Demand& demand, Rng& rng,
                      RouteScratch& scratch, SegmentPath& out) {
  router.route_segments_into(demand.src, demand.dst, rng, scratch, out);
}

template <typename OutT>
void run_batch(const Router& router, std::span<const Demand> demands,
               ThreadPool& pool, const RouteBatchOptions& options,
               std::vector<OutT>& out) {
  const Mesh& mesh = router.mesh();
  if (options.validate_demands) {
    for (const Demand& demand : demands) {
      OBLV_REQUIRE(demand.src >= 0 && demand.src < mesh.num_nodes() &&
                       demand.dst >= 0 && demand.dst < mesh.num_nodes(),
                   "demand endpoints must be mesh nodes");
    }
  }
  const std::size_t n = demands.size();
  out.resize(n);
  if (n == 0) return;

  WallTimer timer;
  const std::size_t workers = std::max<std::size_t>(1, pool.num_threads());

  // ~8 chunks per worker: small enough to steal tail work, large enough
  // to keep the cursor off the hot path.
  const std::size_t chunk = options.chunk_size != 0
                                ? options.chunk_size
                                : std::max<std::size_t>(1, n / (workers * 8));
  // Lock-free by design (DESIGN.md section 13): the cursor is the only
  // shared mutable state in the batch loop -- every output slot and
  // scratch buffer is owned by exactly one worker per chunk claim, so
  // there is nothing for a mutex (or a GUARDED_BY annotation) to guard.
  // Relaxed suffices: fetch_add's atomicity alone partitions [0, n).
  std::atomic<std::size_t> cursor{0};

  const auto drain = [&]() {
    RouteScratch scratch;
    const bool obs_on = obs::metrics_enabled();
    IntHistogram path_lengths;
    std::size_t routed = 0;
    std::size_t chunks = 0;
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      const std::size_t end = std::min(n, begin + chunk);
      for (std::size_t i = begin; i < end; ++i) {
        const Demand& demand = demands[i];
        Rng rng = packet_rng(options.seed, i);
        route_one(router, demand, rng, scratch, out[i]);
        check_endpoints(out[i], demand);
        if (obs_on && path_length_sampled(i)) {
          path_lengths.add(out[i].length(), kPathLengthSampleStride);
        }
      }
      routed += end - begin;
      ++chunks;
    }
    // Per-worker tallies are flushed in one registry visit per worker, into
    // its own thread-local shard.
    if (!obs_on || chunks == 0) return;
    OBLV_COUNTER_ADD("routing.batch.chunks", chunks);
    IntHistogram per_worker;
    per_worker.add(static_cast<std::int64_t>(routed));
    OBLV_HISTOGRAM_MERGE("routing.batch.packets_per_worker", per_worker);
    OBLV_COUNTER_ADD("routing.packets", routed);
    OBLV_HISTOGRAM_MERGE("routing.path_length", path_lengths);
  };

  if (workers == 1) {
    drain();
  } else {
    for (std::size_t w = 0; w < workers; ++w) {
      pool.submit(drain);
    }
    pool.wait_idle();
  }
  OBLV_STAT_RECORD("routing.route_seconds", timer.elapsed_seconds());
}

}  // namespace

void route_batch(const Router& router, std::span<const Demand> demands,
                 ThreadPool& pool, const RouteBatchOptions& options,
                 std::vector<SegmentPath>& out) {
  run_batch(router, demands, pool, options, out);
}

void route_batch_paths(const Router& router, std::span<const Demand> demands,
                       ThreadPool& pool, const RouteBatchOptions& options,
                       std::vector<Path>& out) {
  run_batch(router, demands, pool, options, out);
}

}  // namespace oblivious
