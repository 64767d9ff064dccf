// Chunked work-stealing batch routing driver.
//
// Path selection is oblivious, so a batch of packets is embarrassingly
// parallel: each packet's path depends only on (source, destination,
// private random bits). drain_batch is the one loop that exploits it: an
// atomic chunk cursor over the packet indices -- workers claim chunks
// until the batch is drained, which self-balances when per-packet cost
// varies (hierarchical chains are longer for distant pairs). Each worker
// threads its own RouteScratch, so the steady state allocates nothing per
// packet, and each packet's rng stream is derived from (seed, index) by
// the counter scheme shared with the analysis layer: the output is
// bit-identical for any thread count and claim order. route_batch,
// route_batch_paths and route_batch_with_faults differ only in the
// per-packet call they hand it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "mesh/path.hpp"
#include "mesh/segment_path.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "routing/router.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "workloads/problem.hpp"

namespace oblivious {

// Per-packet RNG stream shared by every parallel routing entry point: the
// stream depends only on (seed, packet index), never on threading.
inline Rng packet_rng(std::uint64_t seed, std::size_t i) {
  return Rng(splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(i))));
}

// Path-length histograms sample every 16th packet (weighted by the
// stride): an exhaustive per-packet bump would blow the <2% observability
// budget enforced by bench_p5_obs_overhead. The stride is a power of two
// and keyed on the packet index, so the sample set is deterministic and
// identical for the serial and parallel entry points.
inline constexpr std::size_t kPathLengthSampleStride = 16;
static_assert((kPathLengthSampleStride & (kPathLengthSampleStride - 1)) == 0 &&
                  kPathLengthSampleStride != 0,
              "the sample set is selected with an index mask, which is only "
              "uniform when the stride is a power of two");

// True when packet i belongs to the deterministic path-length sample set.
// The single definition shared by every batch driver and the analysis
// pipeline: the sample set must be identical everywhere or per-engine
// histograms drift apart.
inline constexpr bool path_length_sampled(std::size_t i) {
  return (i & (kPathLengthSampleStride - 1)) == 0;
}

// Ignored: route_batch has one drain loop; kept only for perfbench's probe.
enum class BatchEngine { kAuto, kScalar, kSoa };

struct RouteBatchOptions {
  std::uint64_t seed = 1;
  // Validate that every demand's endpoints are mesh nodes before routing.
  // The check is O(n) per call; replaying a pre-validated demand set can
  // switch it off (the endpoints cannot have changed).
  bool validate_demands = true;
  // Ignored; kept only for perfbench's probe.
  BatchEngine engine = BatchEngine::kAuto;
};

// \throws std::invalid_argument unless every demand's endpoints are node
// ids of `mesh`.
void require_mesh_endpoints(const Mesh& mesh, std::span<const Demand> demands);

namespace detail {

// The drain loop's only shared mutable state: a cursor over [0, n) that
// hands out chunks of ~n / (8 * workers) packets -- small enough to steal
// tail work, large enough to keep the cursor off the hot path.
class ChunkCursor {
 public:
  ChunkCursor(std::size_t n, std::size_t workers);
  // Claims the next chunk [begin, end); false once [0, n) is drained.
  bool claim(std::size_t& begin, std::size_t& end);

 private:
  std::size_t n_;
  std::size_t chunk_;
  std::atomic<std::size_t> next_{0};
};

// Flushes one worker's tallies in one registry visit, into its own
// thread-local shard.
void record_worker_metrics(std::size_t routed, std::size_t chunks,
                           const IntHistogram& path_lengths);

}  // namespace detail

// The one batch drain loop. Calls route_packet(i, rng, scratch) once for
// every i in [0, n), where rng is packet_rng(seed, i) and scratch belongs
// to the calling worker, on every worker of `pool` (inline when it has
// one); returns when [0, n) is drained. route_packet routes packet i into
// the caller's slot i and returns that path, whose length feeds the
// sampled routing.path_length histogram. It is a template parameter, so
// the per-packet call inlines; a throw from it on a pool worker ends the
// program (ThreadPool tasks must not throw).
template <typename RoutePacket>
void drain_batch(std::size_t n, ThreadPool& pool, std::uint64_t seed,
                 RoutePacket&& route_packet) {
  if (n == 0) return;
  const WallTimer timer;
  const std::size_t workers = std::max<std::size_t>(1, pool.num_threads());
  detail::ChunkCursor cursor(n, workers);
  const auto drain = [&]() {
    RouteScratch scratch;
    const bool obs_on = obs::metrics_enabled();
    IntHistogram path_lengths;
    std::size_t routed = 0;
    std::size_t chunks = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    while (cursor.claim(begin, end)) {
      for (std::size_t i = begin; i < end; ++i) {
        Rng rng = packet_rng(seed, i);
        const auto& path = route_packet(i, rng, scratch);
        if (obs_on && path_length_sampled(i)) {
          path_lengths.add(path.length(), kPathLengthSampleStride);
        }
      }
      routed += end - begin;
      ++chunks;
    }
    if (obs_on && chunks > 0) {
      detail::record_worker_metrics(routed, chunks, path_lengths);
    }
  };
  if (workers == 1) {
    drain();
  } else {
    for (std::size_t w = 0; w < workers; ++w) pool.submit(drain);
    pool.wait_idle();
  }
  OBLV_STAT_RECORD("routing.route_seconds", timer.elapsed_seconds());
}

// Routes demands[i] into out[i] (resizing `out` to match; entry capacity
// is retained across calls, so reusing the same vector avoids per-batch
// allocation). Deterministic: out depends only on (router, demands, seed).
// \pre every demand's endpoints are node ids of the router's mesh.
void route_batch(const Router& router, std::span<const Demand> demands,
                 ThreadPool& pool, const RouteBatchOptions& options,
                 std::vector<SegmentPath>& out);

// Node-list twin of route_batch (same rng streams; each path is the
// in-place expansion of the segment form, see Router::route_into).
// \pre every demand's endpoints are node ids of the router's mesh.
void route_batch_paths(const Router& router, std::span<const Demand> demands,
                       ThreadPool& pool, const RouteBatchOptions& options,
                       std::vector<Path>& out);

}  // namespace oblivious
