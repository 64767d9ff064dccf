#include "fault/fault_model.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace oblivious {

namespace {

// Deterministic per-edge stream, decorrelated from the per-packet routing
// streams (parallel/route_batch.hpp) by a domain tag.
inline Rng edge_rng(std::uint64_t seed, EdgeId e) {
  constexpr std::uint64_t kFaultDomain = 0x5fa017f5u;
  return Rng(splitmix64(seed ^ kFaultDomain ^
                        splitmix64(static_cast<std::uint64_t>(e))));
}

// Integer Bernoulli threshold: probability p as a 32-bit fixed-point
// cutoff, matching the arrival sampling in simulator/online.cpp. No
// floating-point accumulates across draws, so the timeline replays
// bit-for-bit on every platform.
inline std::uint64_t threshold32(double p) {
  return static_cast<std::uint64_t>(p * 4294967296.0);  // p * 2^32
}

}  // namespace

FaultModel::FaultModel(const Mesh& mesh, const FaultConfig& config)
    : mesh_(&mesh), config_(config) {
  OBLV_REQUIRE(
      config.edge_fail_prob >= 0.0 && config.edge_fail_prob <= 1.0,
      "edge_fail_prob must be in [0, 1]");
  OBLV_REQUIRE(
      config.edge_repair_prob >= 0.0 && config.edge_repair_prob <= 1.0,
      "edge_repair_prob must be in [0, 1]");
  OBLV_REQUIRE(config.horizon >= 0, "fault horizon must be non-negative");
  const auto num_edges = static_cast<std::size_t>(mesh.num_edges());
  const auto num_nodes = static_cast<std::size_t>(mesh.num_nodes());

  static_edge_failed_.assign(num_edges, 0);
  if (!config.failed_nodes.empty()) node_failed_.assign(num_nodes, 0);
  for (const NodeId u : config.failed_nodes) {
    OBLV_REQUIRE(u >= 0 && u < mesh.num_nodes(),
                 "failed node id off the mesh");
    node_failed_[static_cast<std::size_t>(u)] = 1;
    // A dead node refuses all traversal: kill its incident edges.
    for (int d = 0; d < mesh.dim(); ++d) {
      for (const int dir : {+1, -1}) {
        const NodeId v = mesh.step(u, d, dir);
        if (v != kInvalidNode) {
          static_edge_failed_[static_cast<std::size_t>(
              mesh.edge_between(u, v))] = 1;
        }
      }
    }
  }
  for (const EdgeId e : config.failed_edges) {
    OBLV_REQUIRE(e >= 0 && e < mesh.num_edges(),
                 "failed edge id off the mesh");
    static_edge_failed_[static_cast<std::size_t>(e)] = 1;
  }
  for (const std::uint8_t f : static_edge_failed_) {
    static_failed_count_ += f;
  }
  failures_injected_ = static_failed_count_;

  const bool dynamic =
      config.edge_fail_prob > 0.0 && config.horizon > 0;
  fault_free_ = static_failed_count_ == 0 && !dynamic;

  interval_offsets_.assign(num_edges + 1, 0);
  if (dynamic) {
    // Walk each edge's two-state Markov chain over [0, horizon) with its
    // own counter-derived stream. The initial state is drawn from the
    // chain's stationary distribution p / (p + r) so a horizon-1 model is
    // a meaningful static snapshot.
    const std::uint64_t fail_cut = threshold32(config.edge_fail_prob);
    const std::uint64_t repair_cut = threshold32(config.edge_repair_prob);
    const double p = config.edge_fail_prob;
    const double r = config.edge_repair_prob;
    const std::uint64_t initial_cut =
        p + r > 0.0 ? threshold32(p / (p + r)) : 0;
    for (std::size_t e = 0; e < num_edges; ++e) {
      Rng rng = edge_rng(config.seed, static_cast<EdgeId>(e));
      bool down = rng.bits(32) < initial_cut;
      std::int64_t down_start = 0;
      for (std::int64_t step = 1; step < config.horizon; ++step) {
        if (down) {
          if (rng.bits(32) < repair_cut) {
            intervals_.emplace_back(down_start, step);
            down = false;
          }
        } else if (rng.bits(32) < fail_cut) {
          down_start = step;
          down = true;
        }
      }
      if (down) intervals_.emplace_back(down_start, config.horizon);
      interval_offsets_[e + 1] = intervals_.size();
    }
    failures_injected_ += static_cast<std::int64_t>(intervals_.size());
  } else {
    // No dynamic schedule: every edge's interval range is empty.
    for (std::size_t e = 0; e < num_edges; ++e) interval_offsets_[e + 1] = 0;
  }

  OBLV_COUNTER_ADD("fault.failures_injected",
                   static_cast<std::uint64_t>(failures_injected_));
}

bool FaultModel::dynamic_edge_failed(EdgeId e, std::int64_t step) const {
  const auto idx = static_cast<std::size_t>(e);
  const std::size_t lo = interval_offsets_[idx];
  const std::size_t hi = interval_offsets_[idx + 1];
  if (lo == hi || step < 0 || step >= config_.horizon) return false;
  // Last interval starting at or before `step`.
  const auto* begin = intervals_.data() + lo;
  const auto* end = intervals_.data() + hi;
  const auto* it = std::upper_bound(
      begin, end, step, [](std::int64_t s, const auto& iv) {
        return s < iv.first;
      });
  if (it == begin) return false;
  --it;
  return step < it->second;
}

bool FaultModel::path_failed(const Path& path, std::int64_t step) const {
  if (fault_free_) return false;
  for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    if (edge_failed(mesh_->edge_between(path.nodes[i], path.nodes[i + 1]),
                    step)) {
      return true;
    }
  }
  return false;
}

bool FaultModel::segments_failed(const SegmentPath& sp,
                                 std::int64_t step) const {
  if (fault_free_ || sp.empty()) return false;
  Coord c = mesh_->coord(sp.source);
  for (const Segment& seg : sp.segments) {
    const int d = static_cast<int>(seg.dim);
    const int dir = seg.run > 0 ? +1 : -1;
    for (std::int64_t k = 0; k < std::abs(seg.run); ++k) {
      // edge_id keys on the lower endpoint of the hop along dimension d.
      Coord lower = c;
      if (dir < 0) {
        lower[static_cast<std::size_t>(d)] -= 1;
        if (mesh_->torus()) lower = mesh_->wrap(lower);
      }
      if (edge_failed(mesh_->edge_id(lower, d), step)) return true;
      c[static_cast<std::size_t>(d)] += dir;
      if (mesh_->torus()) c = mesh_->wrap(c);
    }
  }
  return false;
}

std::vector<std::pair<std::int64_t, std::int64_t>> FaultModel::intervals(
    EdgeId e) const {
  OBLV_REQUIRE(e >= 0 && e < mesh_->num_edges(), "edge id off the mesh");
  const auto idx = static_cast<std::size_t>(e);
  return {intervals_.begin() + static_cast<std::ptrdiff_t>(
                                   interval_offsets_[idx]),
          intervals_.begin() + static_cast<std::ptrdiff_t>(
                                   interval_offsets_[idx + 1])};
}

}  // namespace oblivious
