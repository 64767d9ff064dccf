// Chunked work-stealing batch routing driver.
//
// Path selection is oblivious, so a batch of packets is embarrassingly
// parallel: each packet's path depends only on (source, destination,
// private random bits). route_batch exploits that with an atomic chunk
// cursor over the demand array -- workers claim fixed-size chunks until
// the array is drained, which self-balances when per-packet cost varies
// (hierarchical chains are longer for distant pairs). Each worker threads
// its own RouteScratch, so the steady state allocates nothing per packet,
// and each packet's rng stream is derived from (seed, index) by the
// counter scheme shared with the analysis layer: the output is
// bit-identical for any thread count, chunk size, and claim order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/path.hpp"
#include "mesh/segment_path.hpp"
#include "rng/rng.hpp"
#include "routing/router.hpp"
#include "workloads/problem.hpp"

namespace oblivious {

class ThreadPool;

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
  // Packets claimed per cursor bump. 0 picks a size that gives every
  // worker ~8 chunks, small enough to steal tail work, large enough to
  // keep the cursor off the hot path.
  std::size_t chunk_size = 0;
  // Validate that every demand's endpoints are mesh nodes before routing.
  // The check is O(n) per call; replaying a pre-validated demand set can
  // switch it off (the endpoints cannot have changed).
  bool validate_demands = true;
  // Ignored; kept only for perfbench's probe.
  BatchEngine engine = BatchEngine::kAuto;
};

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
