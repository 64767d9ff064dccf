// Streaming route-and-account: congestion accounting for demand sets too
// large to materialize.
//
// route_and_account never stores demands: a DemandSource yields demand i
// as a pure function of i (a borrowed span, or counter-derived random
// pairs), each packet is routed with the shared (seed, index) rng stream
// and charged straight into a LoadAccountant, and the paths are dropped
// unless the caller passes a span to keep them. Without one, peak memory
// is O(workers * accountant size) regardless of the packet count -- with a
// sketch accountant, 10^8 packets on a 10^9-edge mesh fit in a few
// megabytes.
//
// Determinism: work is claimed in blocks of accountant.block_size()
// packets (independent of the thread count) and finished blocks are
// handed to fold_block under a mutex, so the accountant's final state is
// bit-identical for any pool size and block completion order.
#pragma once

#include <cstdint>
#include <span>

#include "analysis/sketch/load_accountant.hpp"
#include "mesh/mesh.hpp"
#include "mesh/segment_path.hpp"
#include "routing/router.hpp"
#include "workloads/problem.hpp"

namespace oblivious {

class ThreadPool;

// A demand set addressed by index instead of stored in memory.
class DemandSource {
 public:
  // Borrows an in-memory demand set (caller keeps it alive).
  static DemandSource from_span(std::span<const Demand> demands);

  // `count` uniform random (src, dst) pairs: demand i is a pure function
  // of (seed, i), so nothing is ever materialized and any index range can
  // be regenerated at will.
  static DemandSource random_pairs(const Mesh& mesh, std::size_t count,
                                   std::uint64_t seed);

  std::size_t size() const { return count_; }

  // \pre i < size().
  Demand demand(std::size_t i) const {
    OBLV_EXPECTS(i < count_, "demand index out of range");
    if (!demands_.empty()) return demands_[i];
    const std::uint64_t n = static_cast<std::uint64_t>(mesh_->num_nodes());
    const std::uint64_t base = 2 * static_cast<std::uint64_t>(i);
    return Demand{static_cast<NodeId>(splitmix64(seed_ + base) % n),
                  static_cast<NodeId>(splitmix64(seed_ + base + 1) % n)};
  }

 private:
  DemandSource() = default;

  std::span<const Demand> demands_;
  const Mesh* mesh_ = nullptr;
  std::size_t count_ = 0;
  std::uint64_t seed_ = 0;
};

struct StreamAccountOptions {
  std::uint64_t seed = 1;
};

struct StreamAccountResult {
  std::size_t packets = 0;
  std::size_t blocks = 0;
  double seconds = 0.0;
};

// Routes every demand of `source` with the shared counter-derived rng
// stream (packet_rng(seed, i)) and charges it into `accountant`. With a
// non-empty `out`, packet i is routed into out[i] and kept there.
// Deterministic for any thread count; see the file comment.
// \pre every demand's endpoints are node ids of the router's mesh, which
//      is also the accountant's mesh; `out` is empty or holds one slot per
//      demand.
StreamAccountResult route_and_account(const Router& router,
                                      const DemandSource& source,
                                      ThreadPool& pool,
                                      const StreamAccountOptions& options,
                                      LoadAccountant& accountant,
                                      std::span<SegmentPath> out = {});

}  // namespace oblivious
