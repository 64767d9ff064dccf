// Differential test of the closed-form plan resolution against the scan
// oracle (plan_oracle.hpp): Decomposition::deepest_common on the access
// tree and the access graph, and NdRouter::bridge_for, must return the
// same level, type, region and truncation flag. Every ordered pair of the
// small meshes is checked, plus random pairs on large ones.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "decomposition/decomposition.hpp"
#include "plan_oracle.hpp"
#include "rng/rng.hpp"
#include "routing/hierarchical.hpp"

namespace oblivious {
namespace {

::testing::AssertionResult same_submesh(const RegularSubmesh& got,
                                        const RegularSubmesh& want) {
  if (got.level == want.level && got.type == want.type &&
      got.region == want.region && got.truncated == want.truncated &&
      got.grid_key == want.grid_key) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "closed form " << got.describe() << " vs oracle "
         << want.describe();
}

// Both decompositions of the mesh (Section 3 and Section 4 configs) and
// both NdRouter bridge-height modes.
class PlanRig {
 public:
  explicit PlanRig(const Mesh& mesh)
      : mesh_(mesh),
        section3_(Decomposition::section3(mesh_)),
        section4_(Decomposition::section4(mesh_)),
        prescribed_(mesh_, NdRouter::RandomnessMode::kNaive,
                    NdRouter::BridgeHeightMode::kPrescribed),
        minimal_(mesh_, NdRouter::RandomnessMode::kNaive,
                 NdRouter::BridgeHeightMode::kMinimal) {}

  // Compares every query for the pair; returns false on the first
  // mismatch (already reported).
  bool check(NodeId s, NodeId t) const {
    const Coord cs = mesh_.coord(s);
    const Coord ct = mesh_.coord(t);
    for (const Decomposition* dec_ptr : {&section3_, &section4_}) {
      const Decomposition& dec = *dec_ptr;
      for (const bool shifted : {false, true}) {
        const auto result =
            same_submesh(dec.deepest_common(cs, ct, shifted),
                         testing::oracle_deepest_common(dec, cs, ct, shifted));
        if (!result) {
          ADD_FAILURE() << "deepest_common shifted=" << shifted
                        << " shift_divisor_log2="
                        << dec.config().shift_divisor_log2 << " s=" << s
                        << " t=" << t << ": " << result.message();
          return false;
        }
      }
    }
    if (s == t) return true;
    for (const NdRouter* router_ptr : {&prescribed_, &minimal_}) {
      const NdRouter& router = *router_ptr;
      const auto result = same_submesh(router.bridge_for(s, t),
                                       testing::oracle_nd_bridge(router, s, t));
      if (!result) {
        ADD_FAILURE() << "bridge_for s=" << s << " t=" << t << ": "
                      << result.message();
        return false;
      }
    }
    return true;
  }

 private:
  Mesh mesh_;
  Decomposition section3_;
  Decomposition section4_;
  NdRouter prescribed_;
  NdRouter minimal_;
};

struct MeshCase {
  std::string name;
  Mesh mesh;
};

TEST(PlanOracle, EveryOrderedPairOfSmallMeshes) {
  const std::vector<MeshCase> cases = {{"2D 16^2", Mesh::cube(2, 16)},
                                       {"2D torus 16^2", Mesh::cube(2, 16, true)},
                                       {"3D 8^3", Mesh::cube(3, 8)}};
  for (const MeshCase& mc : cases) {
    SCOPED_TRACE(mc.name);
    const PlanRig rig(mc.mesh);
    for (NodeId s = 0; s < mc.mesh.num_nodes(); ++s) {
      for (NodeId t = 0; t < mc.mesh.num_nodes(); ++t) {
        if (!rig.check(s, t)) return;
      }
    }
  }
}

TEST(PlanOracle, RandomPairsOfLargeMeshes) {
  constexpr int kPairs = 100000;
  const std::vector<MeshCase> cases = {{"2D 256^2", Mesh::cube(2, 256)},
                                       {"2D torus 256^2", Mesh::cube(2, 256, true)},
                                       {"3D 64^3", Mesh::cube(3, 64)},
                                       {"3D torus 64^3", Mesh::cube(3, 64, true)}};
  for (const MeshCase& mc : cases) {
    SCOPED_TRACE(mc.name);
    const PlanRig rig(mc.mesh);
    Rng rng(2024);
    const auto nodes = static_cast<std::uint64_t>(mc.mesh.num_nodes());
    for (int i = 0; i < kPairs; ++i) {
      const auto s = static_cast<NodeId>(rng.uniform_below(nodes));
      const auto t = static_cast<NodeId>(rng.uniform_below(nodes));
      if (!rig.check(s, t)) return;
    }
  }
}

}  // namespace
}  // namespace oblivious
