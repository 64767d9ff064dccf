#include "decomposition/decomposition.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace oblivious {

DecompositionConfig DecompositionConfig::section3() {
  return DecompositionConfig{.shift_divisor_log2 = 1, .discard_corners = true};
}

DecompositionConfig DecompositionConfig::section4(int dim) {
  OBLV_REQUIRE(dim >= 1, "dimension must be >= 1");
  return DecompositionConfig{
      .shift_divisor_log2 = ceil_log2(static_cast<std::uint64_t>(dim) + 1),
      .discard_corners = false};
}

std::string RegularSubmesh::describe() const {
  std::ostringstream os;
  os << "level " << level << " type " << type << " " << region.describe();
  if (truncated) os << " (truncated)";
  return os.str();
}

Decomposition::Decomposition(const Mesh& mesh, DecompositionConfig config)
    : mesh_(&mesh), config_(config) {
  WallTimer build_timer;
  OBLV_REQUIRE(mesh.is_square(), "decomposition requires a square mesh");
  OBLV_REQUIRE(mesh.sides_power_of_two(),
               "decomposition requires power-of-two side lengths");
  OBLV_REQUIRE(config_.shift_divisor_log2 >= 1, "shift divisor must be >= 2");
  side_ = mesh.side(0);
  k_ = floor_log2(static_cast<std::uint64_t>(side_));
  if (obs::metrics_enabled()) {
    // Closed-form counts only (the decomposition is implicit, so the build
    // itself is O(1); enumerating truncated shifted pieces would be O(n)).
    double type1_submeshes = 0.0;
    std::int64_t bridge_families = 0;
    for (int l = 0; l <= k_; ++l) {
      const std::int64_t cells = side_ / side_at(l);  // per dimension
      double count = 1.0;
      for (int d = 0; d < mesh.dim(); ++d) count *= static_cast<double>(cells);
      type1_submeshes += count;
      bridge_families += num_types(l) - 1;
    }
    OBLV_COUNTER_ADD("decomposition.builds", 1);
    OBLV_GAUGE_SET("decomposition.levels", k_ + 1);
    OBLV_GAUGE_SET("decomposition.type1_submeshes", type1_submeshes);
    OBLV_GAUGE_SET("decomposition.bridge_families", bridge_families);
    OBLV_STAT_RECORD("decomposition.build_seconds",
                     build_timer.elapsed_seconds());
  }
}

Decomposition Decomposition::section3(const Mesh& mesh) {
  return Decomposition(mesh, DecompositionConfig::section3());
}

Decomposition Decomposition::section4(const Mesh& mesh) {
  return Decomposition(mesh, DecompositionConfig::section4(mesh.dim()));
}

std::int64_t Decomposition::side_at(int level) const {
  OBLV_REQUIRE(level >= 0 && level <= k_, "level out of range");
  return std::int64_t{1} << (k_ - level);
}

std::int64_t Decomposition::shift_lambda(int level) const {
  const std::int64_t m = side_at(level);
  return std::max<std::int64_t>(1, m >> config_.shift_divisor_log2);
}

int Decomposition::num_types(int level) const {
  if (level == 0) return 1;  // the root has no shifted copies
  const std::int64_t m = side_at(level);
  const std::int64_t families =
      std::min<std::int64_t>(std::int64_t{1} << config_.shift_divisor_log2, m);
  return static_cast<int>(families);
}

std::int64_t Decomposition::cell_index(std::int64_t x, std::int64_t shift,
                                       std::int64_t m) const {
  if (mesh_->torus()) return pos_mod(x - shift, side_) / m;
  return floor_div(x - shift, m);
}

bool Decomposition::discarded_corner(int type, bool truncated_all) const {
  // Section 3.1: corner pieces (truncated in every dimension) are
  // discarded -- they coincide with type-1 submeshes of the next level.
  return type > 1 && config_.discard_corners && truncated_all &&
         !mesh_->torus();
}

std::optional<RegularSubmesh> Decomposition::make_submesh(int level, int type,
                                                          const Coord& indices) const {
  const std::int64_t m = side_at(level);
  const std::int64_t shift =
      static_cast<std::int64_t>(type - 1) * shift_lambda(level);
  const std::int64_t cells = side_ / m;
  const std::int64_t key_radix = cells + 2;

  Coord anchor;
  Coord extent;
  anchor.resize(indices.size());
  extent.resize(indices.size());
  std::int64_t key = 0;
  bool truncated_any = false;
  bool truncated_all = true;

  for (std::size_t d = 0; d < indices.size(); ++d) {
    const std::int64_t i = indices[d];
    key = key * key_radix + (i + 1);
    if (mesh_->torus()) {
      anchor[d] = pos_mod(shift + i * m, side_);
      extent[d] = m;
      truncated_all = false;
      continue;
    }
    const std::int64_t raw = shift + i * m;
    const std::int64_t lo = std::max<std::int64_t>(raw, 0);
    const std::int64_t hi = std::min<std::int64_t>(raw + m - 1, side_ - 1);
    if (lo > hi) return std::nullopt;  // empty intersection with the mesh
    const bool trunc = (raw < 0) || (raw + m > side_);
    truncated_any = truncated_any || trunc;
    truncated_all = truncated_all && trunc;
    anchor[d] = lo;
    extent[d] = hi - lo + 1;
  }

  if (discarded_corner(type, truncated_all)) return std::nullopt;

  RegularSubmesh sm;
  sm.level = level;
  sm.type = type;
  sm.region = Region(std::move(anchor), std::move(extent));
  sm.grid_key = key;
  sm.truncated = !mesh_->torus() && truncated_any;
  return sm;
}

RegularSubmesh Decomposition::type1_at(const Coord& p, int level) const {
  auto sm = submesh_at(p, level, 1);
  OBLV_CHECK(sm.has_value(), "type-1 submesh must always exist");
  return *std::move(sm);
}

void Decomposition::append_type1_region(const Coord& p, int level,
                                        std::vector<Region>& out) const {
  OBLV_REQUIRE(level >= 0 && level <= k_, "level out of range");
  const int h = k_ - level;
  Coord anchor;
  Coord extent;
  anchor.resize(p.size());
  extent.resize(p.size(), std::int64_t{1} << h);
  for (std::size_t d = 0; d < p.size(); ++d) anchor[d] = (p[d] >> h) << h;
  out.emplace_back(std::move(anchor), std::move(extent));
}

std::optional<RegularSubmesh> Decomposition::submesh_at(const Coord& p, int level,
                                                        int type) const {
  OBLV_REQUIRE(p.size() == static_cast<std::size_t>(mesh_->dim()),
               "coordinate dimension mismatch");
  OBLV_REQUIRE(level >= 0 && level <= k_, "level out of range");
  OBLV_REQUIRE(type >= 1 && type <= num_types(level), "type out of range");
  const std::int64_t m = side_at(level);
  const std::int64_t shift =
      static_cast<std::int64_t>(type - 1) * shift_lambda(level);
  Coord indices;
  indices.resize(p.size());
  for (std::size_t d = 0; d < p.size(); ++d) {
    OBLV_REQUIRE(p[d] >= 0 && p[d] < side_, "coordinate out of range");
    indices[d] = cell_index(p[d], shift, m);
  }
  auto sm = make_submesh(level, type, indices);
  OBLV_CHECK(!sm.has_value() || sm->region.contains(*mesh_, p),
             "containment query produced a submesh missing the point");
  return sm;
}

bool Decomposition::shares_cell(const Coord& s, const Coord& t,
                                int inner_height, int level, int type,
                                Coord& indices) const {
  const std::int64_t m = side_at(level);
  const std::int64_t shift =
      static_cast<std::int64_t>(type - 1) * shift_lambda(level);
  const std::int64_t inner_mask = (std::int64_t{1} << inner_height) - 1;
  bool truncated_all = true;
  indices.resize(s.size());
  for (std::size_t d = 0; d < s.size(); ++d) {
    // The cell is an interval per dimension, so it holds an aligned box
    // exactly when it holds the box's first and last coordinate.
    const std::int64_t i = cell_index(s[d] & ~inner_mask, shift, m);
    if (cell_index(s[d] | inner_mask, shift, m) != i ||
        cell_index(t[d] & ~inner_mask, shift, m) != i ||
        cell_index(t[d] | inner_mask, shift, m) != i) {
      return false;
    }
    const std::int64_t raw = shift + i * m;
    truncated_all = truncated_all && (raw < 0 || raw + m > side_);
    indices[d] = i;
  }
  return !discarded_corner(type, truncated_all);
}

RegularSubmesh Decomposition::shared_submesh(int level, int type,
                                             const Coord& indices,
                                             const Coord& s,
                                             const Coord& t) const {
  auto sm = make_submesh(level, type, indices);
  OBLV_CHECK(sm.has_value() && sm->region.contains(*mesh_, s) &&
                 sm->region.contains(*mesh_, t),
             "a shared submesh must contain both endpoints");
  return *std::move(sm);
}

std::optional<RegularSubmesh> Decomposition::common_submesh(const Coord& s,
                                                            const Coord& t,
                                                            int level,
                                                            int type) const {
  OBLV_REQUIRE(level >= 0 && level <= k_, "level out of range");
  OBLV_REQUIRE(type >= 1 && type <= num_types(level), "type out of range");
  Coord indices;
  if (!shares_cell(s, t, 0, level, type, indices)) return std::nullopt;
  return shared_submesh(level, type, indices, s, t);
}

RegularSubmesh Decomposition::deepest_common(const Coord& s, const Coord& t,
                                             bool use_shifted_types) const {
  OBLV_REQUIRE(s.size() == static_cast<std::size_t>(mesh_->dim()) &&
                   t.size() == s.size(),
               "coordinate dimension mismatch");
  std::uint64_t differing = 0;  // OR over dimensions of s_d xor t_d
  std::uint64_t spread = 0;     // max per-dimension distance
  for (std::size_t d = 0; d < s.size(); ++d) {
    OBLV_REQUIRE(s[d] >= 0 && s[d] < side_ && t[d] >= 0 && t[d] < side_,
                 "coordinate out of range");
    differing |= static_cast<std::uint64_t>(s[d] ^ t[d]);
    std::int64_t gap = s[d] > t[d] ? s[d] - t[d] : t[d] - s[d];
    if (mesh_->torus()) gap = std::min(gap, side_ - gap);
    spread = std::max(spread, static_cast<std::uint64_t>(gap));
  }
  // Type-1 cells at height h are coord >> h, so s and t first share one
  // at the height of the highest differing bit.
  const int type1_level = k_ - static_cast<int>(std::bit_width(differing));
  Coord indices;
  if (use_shifted_types) {
    // Deeper levels can only hold both endpoints in a shifted cell, and
    // only where the cell side exceeds their spread in every dimension.
    const int deepest = k_ - static_cast<int>(std::bit_width(spread));
    for (int level = deepest; level > type1_level; --level) {
      for (int type = 2; type <= num_types(level); ++type) {
        if (shares_cell(s, t, 0, level, type, indices)) {
          return shared_submesh(level, type, indices, s, t);
        }
      }
    }
  }
  indices.resize(s.size());
  const int height = k_ - type1_level;
  for (std::size_t d = 0; d < s.size(); ++d) indices[d] = s[d] >> height;
  return shared_submesh(type1_level, 1, indices, s, t);
}

RegularSubmesh Decomposition::first_cover(const Coord& s, const Coord& t,
                                          int inner_level,
                                          int from_level) const {
  OBLV_REQUIRE(inner_level >= 0 && inner_level <= k_ && from_level >= 0 &&
                   from_level < inner_level,
               "first_cover needs 0 <= from_level < inner_level <= k");
  const int inner_height = k_ - inner_level;
  Coord indices;
  for (int level = from_level; level >= 0; --level) {
    for (int type = 1; type <= num_types(level); ++type) {
      if (shares_cell(s, t, inner_height, level, type, indices)) {
        return shared_submesh(level, type, indices, s, t);
      }
    }
  }
  OBLV_UNREACHABLE("the root submesh contains everything");
}

void Decomposition::for_each_submesh(
    int level, int type,
    const std::function<void(const RegularSubmesh&)>& fn) const {
  OBLV_REQUIRE(level >= 0 && level <= k_, "level out of range");
  OBLV_REQUIRE(type >= 1 && type <= num_types(level), "type out of range");
  const std::int64_t m = side_at(level);
  const std::int64_t cells = side_ / m;
  const std::int64_t lo = (type == 1 || mesh_->torus()) ? 0 : -1;
  const std::int64_t hi = cells - 1;
  // For shifted families on the mesh the index range is [-1, cells-1]
  // (the grid extended by one layer before translation, Section 3.1).
  const int dim = mesh_->dim();
  Coord indices;
  indices.resize(static_cast<std::size_t>(dim), lo);
  for (;;) {
    if (auto sm = make_submesh(level, type, indices)) fn(*sm);
    int d = dim - 1;
    while (d >= 0) {
      const std::size_t dd = static_cast<std::size_t>(d);
      if (indices[dd] < hi) {
        ++indices[dd];
        break;
      }
      indices[dd] = lo;
      --d;
    }
    if (d < 0) break;
  }
}

void Decomposition::for_each_submesh(
    int level, const std::function<void(const RegularSubmesh&)>& fn) const {
  for (int type = 1; type <= num_types(level); ++type) {
    for_each_submesh(level, type, fn);
  }
}

std::int64_t Decomposition::count_submeshes(int level) const {
  std::int64_t count = 0;
  for_each_submesh(level, [&count](const RegularSubmesh&) { ++count; });
  return count;
}

}  // namespace oblivious
