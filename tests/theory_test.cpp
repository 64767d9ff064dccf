// Statistical cross-checks of the probability lemmas behind the
// congestion analysis, measured on the actual subpath construction.
#include <gtest/gtest.h>

#include <cmath>

#include "mesh/region.hpp"
#include "routing/one_bend.hpp"
#include "rng/rng.hpp"

namespace oblivious {
namespace {

// Empirical probability that the random-dimension-order one-bend subpath
// from a uniform node of `from` to a uniform node of `to` uses `edge`.
double edge_usage_probability(const Mesh& mesh, const Region& from,
                              const Region& to,
                              const std::pair<NodeId, NodeId>& edge,
                              int samples, Rng& rng) {
  int hits = 0;
  for (int i = 0; i < samples; ++i) {
    const Coord a = from.random_coord(mesh, rng);
    const Coord b = to.random_coord(mesh, rng);
    SegmentPath sp;
    sp.reset(mesh.node_id(a), mesh.node_id(b));
    const auto order = rng.random_permutation(mesh.dim());
    append_segments_in_region(mesh, to, a, b, {order.data(), order.size()},
                              sp);
    Path path;
    path_from_segments_into(mesh, sp, path);
    for (std::size_t j = 0; j + 1 < path.nodes.size(); ++j) {
      const NodeId x = path.nodes[j];
      const NodeId y = path.nodes[j + 1];
      if ((x == edge.first && y == edge.second) ||
          (x == edge.second && y == edge.first)) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(hits) / samples;
}

TEST(Lemma35, SubpathUsesAnyEdgeWithProbabilityAtMost2OverM) {
  // Section 3.3, Lemma 3.5: the subpath from a type-1 submesh M1 of side
  // m to a containing submesh M2 uses a fixed edge e of M2 with
  // probability <= 2/m. We measure several edges, including the
  // worst-placed ones (aligned with M1's rows/columns).
  const Mesh mesh({32, 32});
  const Region m1(Coord{8, 8}, Coord{8, 8});    // side m = 8
  const Region m2(Coord{0, 0}, Coord{16, 16});  // the containing submesh
  Rng rng(7);
  const int samples = 40000;
  const double bound = 2.0 / 8.0;
  const double sigma = std::sqrt(bound * (1 - bound) / samples);
  const std::pair<NodeId, NodeId> edges[] = {
      {mesh.node_id(Coord{9, 4}), mesh.node_id(Coord{9, 5})},    // vertical
      {mesh.node_id(Coord{4, 9}), mesh.node_id(Coord{5, 9})},    // horizontal
      {mesh.node_id(Coord{0, 0}), mesh.node_id(Coord{0, 1})},    // far corner
      {mesh.node_id(Coord{12, 12}), mesh.node_id(Coord{12, 13})},  // inside M1
      {mesh.node_id(Coord{15, 8}), mesh.node_id(Coord{15, 9})},
  };
  for (const auto& edge : edges) {
    const double p = edge_usage_probability(mesh, m1, m2, edge, samples, rng);
    EXPECT_LE(p, bound + 4 * sigma)
        << "edge (" << edge.first << "," << edge.second << ") p=" << p;
  }
}

TEST(Lemma35, BoundIsNearlyTightForAlignedEdges) {
  // An edge whose column intersects M1 is used with probability
  // Theta(1/m): the bound is within a small constant of reality.
  const Mesh mesh({32, 32});
  const Region m1(Coord{8, 8}, Coord{8, 8});
  const Region m2(Coord{0, 0}, Coord{16, 16});
  Rng rng(11);
  const auto edge = std::make_pair(mesh.node_id(Coord{9, 7}),
                                   mesh.node_id(Coord{9, 8}));
  const double p = edge_usage_probability(mesh, m1, m2, edge, 40000, rng);
  EXPECT_GE(p, 0.02);  // >= ~1/(2m) with m = 8
  EXPECT_LE(p, 0.25);
}

TEST(LemmaA1, DDimensionalSubpathProbabilityBound) {
  // Appendix A, Lemma A.1: in d dimensions with all sides of M2 at least
  // twice M1's, the subpath uses a fixed edge with probability <= 2/(a d)
  // ... conservatively <= 2/a (we assert the per-dimension average form).
  const Mesh mesh = Mesh::cube(3, 16, /*torus=*/true);
  const Region m1(Coord{4, 4, 4}, Coord{4, 4, 4});    // a = 4
  const Region m2(Coord{2, 2, 2}, Coord{8, 8, 8});    // b = 2a
  Rng rng(13);
  const int samples = 30000;
  const double bound = 2.0 / 4.0;  // 2/a
  const std::pair<NodeId, NodeId> edges[] = {
      {mesh.node_id(Coord{5, 5, 5}), mesh.node_id(Coord{5, 5, 6})},
      {mesh.node_id(Coord{3, 6, 7}), mesh.node_id(Coord{4, 6, 7})},
      {mesh.node_id(Coord{8, 8, 8}), mesh.node_id(Coord{8, 9, 8})},
  };
  for (const auto& edge : edges) {
    const double p = edge_usage_probability(mesh, m1, m2, edge, samples, rng);
    EXPECT_LE(p, bound) << "edge (" << edge.first << "," << edge.second << ")";
  }
}

}  // namespace
}  // namespace oblivious
