// Reference oracle for hierarchical plan resolution: the level x type
// scans that the closed forms in Decomposition replace. Each probe
// materializes the candidate submesh through submesh_at and tests
// containment on its Region, so the oracle shares no index arithmetic
// with deepest_common / first_cover beyond the per-point cell lookup.
#pragma once

#include "decomposition/decomposition.hpp"
#include "mesh/mesh.hpp"
#include "routing/hierarchical.hpp"
#include "util/check.hpp"

namespace oblivious::testing {

// Deepest submesh containing s and t, scanning levels deepest-first and
// types in order (the access tree when use_shifted_types is false).
inline RegularSubmesh oracle_deepest_common(const Decomposition& dec,
                                            const Coord& s, const Coord& t,
                                            bool use_shifted_types) {
  for (int level = dec.leaf_level(); level >= 0; --level) {
    const int types = use_shifted_types ? dec.num_types(level) : 1;
    for (int type = 1; type <= types; ++type) {
      const auto sm = dec.submesh_at(s, level, type);
      if (sm.has_value() && sm->region.contains(dec.mesh(), t)) return *sm;
    }
  }
  OBLV_UNREACHABLE("the root submesh contains every pair");
}

// Section 4 bridge: the first submesh containing s's cell that also holds
// the type-1 submeshes M1 (around s) and M3 (around t) at the m1 height,
// scanning upward from the prescribed bridge level.
inline RegularSubmesh oracle_nd_bridge(const NdRouter& router, NodeId s,
                                       NodeId t) {
  const Decomposition& dec = router.decomposition();
  const Mesh& mesh = dec.mesh();
  const auto [m1_height, bridge_height] = router.heights_for(s, t);
  const int k = dec.leaf_level();
  const Coord cs = mesh.coord(s);
  const RegularSubmesh m1 = dec.type1_at(cs, k - m1_height);
  const RegularSubmesh m3 = dec.type1_at(mesh.coord(t), k - m1_height);
  for (int level = k - bridge_height; level >= 0; --level) {
    for (int type = 1; type <= dec.num_types(level); ++type) {
      const auto sm = dec.submesh_at(cs, level, type);
      if (sm.has_value() && sm->region.contains_region(mesh, m1.region) &&
          sm->region.contains_region(mesh, m3.region)) {
        return *sm;
      }
    }
  }
  OBLV_UNREACHABLE("the root submesh contains everything");
}

}  // namespace oblivious::testing
