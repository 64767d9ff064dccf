// The hierarchical mesh decomposition of Sections 3.1 and 4.1.
//
// The mesh (side 2^k per dimension) is decomposed into k+1 levels of
// *type-1* submeshes: level l partitions the mesh into cubes of side
// m_l = 2^{k-l} (level 0 is the whole mesh, level k the individual nodes).
// On top of these, each level has *shifted* families ("type-2" in the 2D
// construction, "type-j" in d dimensions): the type-1 grid translated by
// (j-1)*lambda_l per dimension, where
//
//     lambda_l = max(1, m_l / 2^shift_divisor_log2).
//
// Two configurations from the paper:
//   * Section 3 (2D): shift_divisor_log2 = 1 (lambda = m_l/2, one shifted
//     family) with the external corner pieces discarded. This is also the
//     "direct generalization" to d dimensions whose stretch degrades to
//     O(2^d) -- we keep it available as an ablation.
//   * Section 4 (general d): shift_divisor_log2 = ceil(log2(d+1)), giving
//     at least d+1 families per level (at most 2(d+1)), which is what the
//     pigeonhole argument of Lemma 4.1 needs.
//
// On the torus all shifted submeshes wrap and are full-size; on the plain
// mesh, external shifted submeshes are truncated to their intersection
// with M (and, under the Section 3 rule, pieces truncated in every
// dimension -- the corners -- are discarded, since they coincide with
// type-1 submeshes of the next level).
//
// A *regular* submesh (type-1 or shifted) is identified implicitly by
// (level, type, grid index); nothing is materialized, so queries cost O(d)
// arithmetic even on meshes with millions of nodes.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "mesh/mesh.hpp"
#include "mesh/region.hpp"
#include "mesh/types.hpp"

namespace oblivious {

struct DecompositionConfig {
  // lambda_l = max(1, m_l >> shift_divisor_log2).
  int shift_divisor_log2 = 1;
  // Discard shifted submeshes truncated in *every* dimension (Section 3.1).
  bool discard_corners = true;

  // The 2D construction of Section 3 (valid for any d as the paper's
  // "direct generalization"; stretch grows like 2^d for d > 2).
  static DecompositionConfig section3();
  // The d-dimensional construction of Section 4.
  static DecompositionConfig section4(int dim);
};

// One regular submesh, as returned by containment queries.
struct RegularSubmesh {
  int level = 0;           // 0 = root (whole mesh), k = single nodes
  int type = 1;            // 1 = aligned family, 2.. = shifted families
  Region region;           // truncated to the mesh when not a torus
  std::int64_t grid_key = 0;  // unique among submeshes of the same (level, type)
  bool truncated = false;  // mesh only: extends past the boundary

  std::string describe() const;
};

class Decomposition {
 public:
  // \pre the mesh is square with power-of-two side length, and
  // config.shift_divisor_log2 >= 1.
  Decomposition(const Mesh& mesh, DecompositionConfig config);

  static Decomposition section3(const Mesh& mesh);
  static Decomposition section4(const Mesh& mesh);

  const Mesh& mesh() const { return *mesh_; }
  const DecompositionConfig& config() const { return config_; }

  // Number of type-1 levels is k+1 (levels 0..k); k = log2(side).
  int leaf_level() const { return k_; }
  // Side length m_l = 2^{k-l} of submeshes at level l.
  std::int64_t side_at(int level) const;
  // Height (paper's terminology) of a level: k - level.
  int height_of(int level) const { return k_ - level; }
  int level_of_height(int height) const { return k_ - height; }

  // Shift unit lambda_l for the given level.
  std::int64_t shift_lambda(int level) const;
  // Number of families at the level (1 at the root and the leaf level).
  int num_types(int level) const;

  // The type-1 submesh containing p at the level (always exists).
  RegularSubmesh type1_at(const Coord& p, int level) const;
  // Appends just its region to `out`, in closed form: the aligned cube
  // of side 2^h at (p >> h) << h, h = height_of(level). The routers build
  // their chains from these.
  void append_type1_region(const Coord& p, int level,
                           std::vector<Region>& out) const;

  // The submesh of the given family containing p, or nullopt when that
  // piece is discarded (Section 3 corner rule).
  std::optional<RegularSubmesh> submesh_at(const Coord& p, int level, int type) const;

  // The submesh of the family containing both s and t, if one exists.
  std::optional<RegularSubmesh> common_submesh(const Coord& s, const Coord& t,
                                               int level, int type) const;

  // Deepest regular submesh containing both s and t; at equal depth the
  // lowest type wins. With use_shifted_types == false this searches the
  // access *tree* of type-1 submeshes only (the Maggs et al. baseline);
  // with true it searches the full access graph including bridges.
  // Closed form: the type-1 answer sits at height bit_width(max_d s_d^t_d),
  // and only the levels below it whose side exceeds dist(s, t) per
  // dimension are probed for a shared shifted cell.
  RegularSubmesh deepest_common(const Coord& s, const Coord& t,
                                bool use_shifted_types) const;

  // The Section 4 bridge search: the first submesh containing the type-1
  // submeshes at `inner_level` around s and around t, probing levels
  // from_level, from_level-1, ..., 0 and, per level, types in order.
  // \pre from_level < inner_level, both in [0, leaf_level()].
  RegularSubmesh first_cover(const Coord& s, const Coord& t, int inner_level,
                             int from_level) const;

  // Enumerates every valid submesh of a family at a level.
  void for_each_submesh(int level, int type,
                        const std::function<void(const RegularSubmesh&)>& fn) const;
  // Enumerates all families at a level.
  void for_each_submesh(int level,
                        const std::function<void(const RegularSubmesh&)>& fn) const;
  std::int64_t count_submeshes(int level) const;

 private:
  // Per-dimension grid index of the family cell containing coordinate x.
  std::int64_t cell_index(std::int64_t x, std::int64_t shift, std::int64_t m) const;
  // True when a shifted piece truncated in every dimension (on the mesh)
  // must be dropped under the Section 3 corner rule.
  bool discarded_corner(int type, bool truncated_all) const;
  // True when the (level, type) cell containing s also contains the
  // aligned 2^inner_height boxes around s and t and is not a discarded
  // corner; fills `indices` with the cell's grid index. Integer
  // arithmetic only.
  bool shares_cell(const Coord& s, const Coord& t, int inner_height, int level,
                   int type, Coord& indices) const;
  // make_submesh for a cell that shares_cell accepted, with the always-on
  // check that the region holds both endpoints.
  RegularSubmesh shared_submesh(int level, int type, const Coord& indices,
                                const Coord& s, const Coord& t) const;
  // Builds the submesh for the given per-dimension indices; nullopt when
  // discarded. `indices` uses the same convention as cell_index.
  std::optional<RegularSubmesh> make_submesh(int level, int type,
                                             const Coord& indices) const;

  const Mesh* mesh_;
  DecompositionConfig config_;
  int k_ = 0;              // log2(side)
  std::int64_t side_ = 0;  // 2^k
};

}  // namespace oblivious
