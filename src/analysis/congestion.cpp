#include "analysis/congestion.hpp"

#include <algorithm>

#include "mesh/contracts.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/contracts.hpp"
#include "util/simd.hpp"

namespace oblivious {

namespace {

// Adds a prefix-summed difference line into the (contiguous) edge loads
// of that line and clears it. Pure integer lane-wise arithmetic, so the
// vector and scalar versions are bit-identical; the AVX2 clone only
// exists to let the compiler pick wider registers when the CPU has them.
#define OBLV_ADD_LINE_BODY(diff, loads, n)                  \
  do {                                                      \
    OBLV_PRAGMA_SIMD                                        \
    for (std::int64_t i = 0; i < (n); ++i) {                \
      (loads)[i] += static_cast<std::uint32_t>((diff)[i]);  \
      (diff)[i] = 0;                                        \
    }                                                       \
  } while (0)

void add_line_portable(std::int64_t* diff, std::uint32_t* loads,
                       std::int64_t n) {
  OBLV_ADD_LINE_BODY(diff, loads, n);
}

#if OBLV_SIMD_X86_DISPATCH
__attribute__((target("avx2"))) void add_line_avx2(std::int64_t* diff,
                                                   std::uint32_t* loads,
                                                   std::int64_t n) {
  OBLV_ADD_LINE_BODY(diff, loads, n);
}
#endif

inline void add_line(std::int64_t* diff, std::uint32_t* loads,
                     std::int64_t n) {
#if OBLV_SIMD_X86_DISPATCH
  if (simd_avx2_enabled()) {
    add_line_avx2(diff, loads, n);
    return;
  }
#endif
  add_line_portable(diff, loads, n);
}

#undef OBLV_ADD_LINE_BODY

}  // namespace

EdgeLoadMap::EdgeLoadMap(const Mesh& mesh)
    : mesh_(&mesh), loads_(static_cast<std::size_t>(mesh.num_edges()), 0) {}

void EdgeLoadMap::add_path(const Path& path) {
  // Hop validity is enforced by Mesh::decode_hop's always-on per-hop
  // check; no gated precondition here so the thrown type is
  // build-independent.
  ++paths_added_;
  if (path.nodes.size() < 2) return;
  edge_charges_ += static_cast<std::uint64_t>(path.length());
  max_valid_ = false;
  // Walk the path with an incrementally maintained coordinate so each hop
  // costs O(d) instead of a full id->coord conversion per node.
  Coord cur = mesh_->coord(path.nodes.front());
  for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    const Mesh::Hop hop =
        mesh_->decode_hop(cur, path.nodes[i + 1] - path.nodes[i]);
    loads_[static_cast<std::size_t>(mesh_->hop_edge(cur, hop))]++;
  }
}

void EdgeLoadMap::add_paths(const std::vector<Path>& paths) {
  for (const Path& p : paths) add_path(p);
}

void EdgeLoadMap::add_segments(const SegmentPath& sp) {
  OBLV_REQUIRE(!sp.empty(), "cannot account an empty segment path");
  OBLV_EXPECTS(contracts::validate_segment_path(*mesh_, sp),
               "add_segments needs a valid segment path");
  segments_charged_ += sp.segments.size();
  if (sp.segments.empty()) return;
  // Every unit step of every run (laps included) crosses exactly one edge.
  edge_charges_ += static_cast<std::uint64_t>(sp.length());
  max_valid_ = false;
  if (diff_.empty()) {
    diff_.resize(static_cast<std::size_t>(mesh_->dim()));
    for (int d = 0; d < mesh_->dim(); ++d) {
      diff_[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(mesh_->edge_dim_offset(d + 1) -
                                   mesh_->edge_dim_offset(d)),
          0);
    }
  }
  dirty_ = true;
  for_each_line_range(
      *mesh_, sp,
      [this](int d, std::int64_t line, std::int64_t lo, std::int64_t hi,
             std::int64_t count) {
        auto& diff = diff_[static_cast<std::size_t>(d)];
        const std::int64_t radix = mesh_->edge_dim_radix(d);
        const std::size_t base = static_cast<std::size_t>(line * radix);
        diff[base + static_cast<std::size_t>(lo)] += count;
        // A range closing at the end of the line needs no closing marker:
        // the prefix sum stops at radix-1.
        if (hi < radix) diff[base + static_cast<std::size_t>(hi)] -= count;
      },
      [](int, std::int64_t, std::int64_t) {});
}

void EdgeLoadMap::add_segment_paths(const std::vector<SegmentPath>& sps) {
  for (const SegmentPath& sp : sps) add_segments(sp);
}

void EdgeLoadMap::flush() const {
  if (!dirty_) return;
  OBLV_SCOPED_TIMER("loads.flush_seconds");
  dirty_ = false;
  for (int d = 0; d < mesh_->dim(); ++d) {
    auto& diff = diff_[static_cast<std::size_t>(d)];
    const std::int64_t radix = mesh_->edge_dim_radix(d);
    const std::int64_t lines =
        static_cast<std::int64_t>(diff.size()) / std::max<std::int64_t>(radix, 1);
    // Edge ids of a line advance by node_stride(d) (Mesh::line_edge).
    const std::int64_t stride = mesh_->node_stride(d);
    std::size_t idx = 0;
    if (stride == 1) {
      // Innermost dimension: the line's edges are contiguous, so after
      // the (inherently serial) in-place prefix sum the accumulate into
      // loads_ is a straight lane-wise add -- the widened kernel.
      for (std::int64_t line = 0; line < lines; ++line, idx += radix) {
        std::int64_t running = 0;
        for (std::int64_t pos = 0; pos < radix; ++pos) {
          running += diff[idx + static_cast<std::size_t>(pos)];
          diff[idx + static_cast<std::size_t>(pos)] = running;
        }
        add_line(diff.data() + idx,
                 loads_.data() +
                     static_cast<std::size_t>(mesh_->line_edge(d, line, 0)),
                 radix);
      }
    } else {
      for (std::int64_t line = 0; line < lines; ++line) {
        const EdgeId edge_base = mesh_->line_edge(d, line, 0);
        std::int64_t running = 0;
        for (std::int64_t pos = 0; pos < radix; ++pos, ++idx) {
          running += diff[idx];
          diff[idx] = 0;
          if (running != 0) {
            loads_[static_cast<std::size_t>(edge_base + pos * stride)] +=
                static_cast<std::uint32_t>(running);
          }
        }
      }
    }
  }
}

void EdgeLoadMap::merge(const EdgeLoadMap& other) {
  OBLV_REQUIRE(mesh_->num_edges() == other.mesh_->num_edges(),
               "cannot merge load maps over different meshes");
  flush();
  other.flush();
  for (std::size_t e = 0; e < loads_.size(); ++e) {
    loads_[e] += other.loads_[e];
  }
  segments_charged_ += other.segments_charged_;
  paths_added_ += other.paths_added_;
  edge_charges_ += other.edge_charges_;
  max_valid_ = false;
  OBLV_ENSURES(contracts::validate_load_map_consistency(*this),
               "merged loads must sum to the merged hop count");
}

void EdgeLoadMap::clear() {
  std::fill(loads_.begin(), loads_.end(), 0U);
  for (auto& diff : diff_) std::fill(diff.begin(), diff.end(), 0);
  dirty_ = false;
  edge_charges_ = 0;
  max_cache_ = 0;
  max_valid_ = true;
}

std::uint32_t EdgeLoadMap::load(EdgeId e) const {
  OBLV_REQUIRE(e >= 0 && e < mesh_->num_edges(), "edge id out of range");
  flush();
  return loads_[static_cast<std::size_t>(e)];
}

std::uint32_t EdgeLoadMap::max_load() const {
  if (max_valid_) return max_cache_;
  flush();
  std::uint32_t best = 0;
  for (const std::uint32_t l : loads_) best = std::max(best, l);
  max_cache_ = best;
  max_valid_ = true;
  return best;
}

EdgeId EdgeLoadMap::argmax() const {
  flush();
  std::size_t best = 0;
  for (std::size_t i = 1; i < loads_.size(); ++i) {
    if (loads_[i] > loads_[best]) best = i;
  }
  return static_cast<EdgeId>(best);
}

double EdgeLoadMap::mean_nonzero() const {
  flush();
  std::uint64_t sum = 0;
  std::int64_t used = 0;
  for (const std::uint32_t l : loads_) {
    if (l > 0) {
      sum += l;
      ++used;
    }
  }
  return used > 0 ? static_cast<double>(sum) / static_cast<double>(used) : 0.0;
}

std::int64_t EdgeLoadMap::edges_used() const {
  flush();
  std::int64_t used = 0;
  for (const std::uint32_t l : loads_) {
    if (l > 0) ++used;
  }
  return used;
}

IntHistogram EdgeLoadMap::histogram() const {
  flush();
  IntHistogram h;
  for (const std::uint32_t l : loads_) h.add(static_cast<std::int64_t>(l));
  return h;
}

void EdgeLoadMap::record_metrics(const std::string& prefix) const {
  if (!obs::metrics_enabled()) return;
  auto& registry = obs::MetricsRegistry::global();
  const IntHistogram h = histogram();  // flushes
  registry.gauge(prefix + ".max_edge_load")
      .set(static_cast<double>(max_load()));
  registry.gauge(prefix + ".p50_edge_load")
      .set(static_cast<double>(h.quantile(0.5)));
  registry.gauge(prefix + ".p99_edge_load")
      .set(static_cast<double>(h.quantile(0.99)));
  registry.gauge(prefix + ".edges_used")
      .set(static_cast<double>(edges_used()));
  registry.gauge(prefix + ".mean_nonzero_load").set(mean_nonzero());
  registry.histogram(prefix + ".edge_load").merge_int_histogram(h);
  // Counters report the charges accumulated since the previous call, so
  // repeated snapshots of a long-lived map do not double count.
  registry.counter(prefix + ".segments_charged")
      .add(segments_charged_ - reported_segments_);
  registry.counter(prefix + ".paths_added").add(paths_added_ - reported_paths_);
  reported_segments_ = segments_charged_;
  reported_paths_ = paths_added_;
}

namespace contracts {

bool validate_load_map_consistency(const EdgeLoadMap& loads) {
  std::uint64_t sum = 0;
  for (EdgeId e = 0; e < loads.mesh().num_edges(); ++e) {
    sum += loads.load(e);  // first call flushes pending difference arrays
  }
  return sum == loads.total_edge_charges();
}

}  // namespace contracts

}  // namespace oblivious
