#include "parallel/route_batch.hpp"

#include "util/check.hpp"

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
  if (options.validate_demands) require_mesh_endpoints(router.mesh(), demands);
  out.resize(demands.size());
  drain_batch(demands.size(), pool, options.seed,
              [&](std::size_t i, Rng& rng, RouteScratch& scratch)
                  -> const OutT& {
                route_one(router, demands[i], rng, scratch, out[i]);
                check_endpoints(out[i], demands[i]);
                return out[i];
              });
}

}  // namespace

void require_mesh_endpoints(const Mesh& mesh,
                            std::span<const Demand> demands) {
  for (const Demand& demand : demands) {
    OBLV_REQUIRE(demand.src >= 0 && demand.src < mesh.num_nodes() &&
                     demand.dst >= 0 && demand.dst < mesh.num_nodes(),
                 "demand endpoints must be mesh nodes");
  }
}

namespace detail {

ChunkCursor::ChunkCursor(std::size_t n, std::size_t workers)
    : n_(n), chunk_(std::max<std::size_t>(1, n / (workers * 8))) {}

bool ChunkCursor::claim(std::size_t& begin, std::size_t& end) {
  // Lock-free by design (DESIGN.md section 13): the cursor is the only
  // shared mutable state in the batch loop -- every output slot and
  // scratch buffer is owned by exactly one worker per chunk claim, so
  // there is nothing for a mutex (or a GUARDED_BY annotation) to guard.
  // Relaxed suffices: fetch_add's atomicity alone partitions [0, n).
  begin = next_.fetch_add(chunk_, std::memory_order_relaxed);
  if (begin >= n_) return false;
  end = std::min(n_, begin + chunk_);
  return true;
}

void record_worker_metrics(std::size_t routed, std::size_t chunks,
                           const IntHistogram& path_lengths) {
  OBLV_COUNTER_ADD("routing.batch.chunks", chunks);
  IntHistogram per_worker;
  per_worker.add(static_cast<std::int64_t>(routed));
  OBLV_HISTOGRAM_MERGE("routing.batch.packets_per_worker", per_worker);
  OBLV_COUNTER_ADD("routing.packets", routed);
  OBLV_HISTOGRAM_MERGE("routing.path_length", path_lengths);
}

}  // namespace detail

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
