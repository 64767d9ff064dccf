#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "mesh/mesh.hpp"
#include "mesh/region.hpp"

namespace oblivious {
namespace {

Coord c2(std::int64_t x, std::int64_t y) { return Coord{x, y}; }

TEST(Mesh, BasicProperties2D) {
  const Mesh m({4, 4});
  EXPECT_EQ(m.dim(), 2);
  EXPECT_EQ(m.num_nodes(), 16);
  EXPECT_EQ(m.num_edges(), 2 * 3 * 4);  // 12 per dimension
  EXPECT_FALSE(m.torus());
  EXPECT_TRUE(m.is_square());
  EXPECT_TRUE(m.sides_power_of_two());
}

TEST(Mesh, RectangularSides) {
  const Mesh m({2, 3, 5});
  EXPECT_EQ(m.num_nodes(), 30);
  EXPECT_FALSE(m.is_square());
  EXPECT_FALSE(m.sides_power_of_two());
  // edges: dim0: 1*15, dim1: 2*10, dim2: 4*6
  EXPECT_EQ(m.num_edges(), 15 + 20 + 24);
}

TEST(Mesh, CubeFactory) {
  const Mesh m = Mesh::cube(3, 4, true);
  EXPECT_EQ(m.dim(), 3);
  EXPECT_EQ(m.num_nodes(), 64);
  EXPECT_TRUE(m.torus());
}

TEST(Mesh, NodeIdCoordRoundTrip) {
  const Mesh m({4, 8});
  for (NodeId u = 0; u < m.num_nodes(); ++u) {
    EXPECT_EQ(m.node_id(m.coord(u)), u);
  }
}

TEST(Mesh, NodeIdIsRowMajor) {
  const Mesh m({4, 8});
  EXPECT_EQ(m.node_id(c2(0, 0)), 0);
  EXPECT_EQ(m.node_id(c2(0, 7)), 7);
  EXPECT_EQ(m.node_id(c2(1, 0)), 8);
  EXPECT_EQ(m.node_id(c2(3, 7)), 31);
}

TEST(Mesh, NodeIdRejectsOutOfRange) {
  const Mesh m({4, 4});
  EXPECT_THROW(m.node_id(c2(4, 0)), std::invalid_argument);
  EXPECT_THROW(m.node_id(c2(0, -1)), std::invalid_argument);
  EXPECT_THROW(m.coord(16), std::invalid_argument);
  EXPECT_THROW(m.coord(-1), std::invalid_argument);
}

TEST(Mesh, ContainsChecksRangeAndDim) {
  const Mesh m({4, 4});
  EXPECT_TRUE(m.contains(c2(0, 3)));
  EXPECT_FALSE(m.contains(c2(0, 4)));
  EXPECT_FALSE(m.contains(Coord{1}));
}

TEST(Mesh, StepInterior) {
  const Mesh m({4, 4});
  const NodeId u = m.node_id(c2(1, 1));
  EXPECT_EQ(m.step(u, 0, 1), m.node_id(c2(2, 1)));
  EXPECT_EQ(m.step(u, 0, -1), m.node_id(c2(0, 1)));
  EXPECT_EQ(m.step(u, 1, 1), m.node_id(c2(1, 2)));
}

TEST(Mesh, StepOffBoundaryIsInvalid) {
  const Mesh m({4, 4});
  EXPECT_EQ(m.step(m.node_id(c2(0, 0)), 0, -1), kInvalidNode);
  EXPECT_EQ(m.step(m.node_id(c2(3, 0)), 0, 1), kInvalidNode);
}

TEST(Mesh, StepWrapsOnTorus) {
  const Mesh t({4, 4}, true);
  EXPECT_EQ(t.step(t.node_id(c2(0, 0)), 0, -1), t.node_id(c2(3, 0)));
  EXPECT_EQ(t.step(t.node_id(c2(3, 2)), 0, 1), t.node_id(c2(0, 2)));
}

TEST(Mesh, NeighborsCountMatchesDegree) {
  const Mesh m({4, 4});
  EXPECT_EQ(m.neighbors(m.node_id(c2(0, 0))).size(), 2U);   // corner
  EXPECT_EQ(m.neighbors(m.node_id(c2(0, 1))).size(), 3U);   // edge
  EXPECT_EQ(m.neighbors(m.node_id(c2(1, 1))).size(), 4U);   // interior
  const Mesh t({4, 4}, true);
  for (NodeId u = 0; u < t.num_nodes(); ++u) {
    EXPECT_EQ(t.neighbors(u).size(), 4U);
  }
}

TEST(Mesh, AdjacencyIsSymmetricAndMatchesNeighbors) {
  for (const bool torus : {false, true}) {
    const Mesh m({4, 4}, torus);
    for (NodeId u = 0; u < m.num_nodes(); ++u) {
      const auto nbrs = m.neighbors(u);
      const std::set<NodeId> nbr_set(nbrs.begin(), nbrs.end());
      for (NodeId v = 0; v < m.num_nodes(); ++v) {
        EXPECT_EQ(m.adjacent(u, v), nbr_set.count(v) == 1)
            << "u=" << u << " v=" << v << " torus=" << torus;
        EXPECT_EQ(m.adjacent(u, v), m.adjacent(v, u));
      }
    }
  }
}

TEST(Mesh, DistanceIsL1OnMesh) {
  const Mesh m({8, 8});
  EXPECT_EQ(m.distance(c2(0, 0), c2(7, 7)), 14);
  EXPECT_EQ(m.distance(c2(3, 4), c2(3, 4)), 0);
  EXPECT_EQ(m.distance(c2(2, 5), c2(5, 1)), 7);
}

TEST(Mesh, DistanceWrapsOnTorus) {
  const Mesh t({8, 8}, true);
  EXPECT_EQ(t.distance(c2(0, 0), c2(7, 7)), 2);
  EXPECT_EQ(t.distance(c2(0, 0), c2(4, 4)), 8);
  EXPECT_EQ(t.distance(c2(1, 0), c2(6, 0)), 3);
}

TEST(Mesh, DistanceSatisfiesTriangleInequality) {
  const Mesh t({4, 4}, true);
  for (NodeId a = 0; a < t.num_nodes(); ++a) {
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      for (NodeId c = 0; c < t.num_nodes(); c += 3) {
        EXPECT_LE(t.distance(a, b), t.distance(a, c) + t.distance(c, b));
      }
    }
  }
}

TEST(Mesh, Diameter) {
  EXPECT_EQ(Mesh({8, 8}).diameter(), 14);
  EXPECT_EQ(Mesh({8, 8}, true).diameter(), 8);
  EXPECT_EQ(Mesh({2, 3, 5}).diameter(), 1 + 2 + 4);
}

TEST(Mesh, WrapCanonicalizesOnTorus) {
  const Mesh t({4, 4}, true);
  EXPECT_EQ(t.wrap(Coord{-1, 5}), (Coord{3, 1}));
  const Mesh m({4, 4});
  EXPECT_THROW(m.wrap(Coord{-1, 0}), std::invalid_argument);
}

TEST(Mesh, DisplacementPrefersShorterArc) {
  const Mesh t({8, 8}, true);
  EXPECT_EQ(t.displacement(1, 6, 0), -3);
  EXPECT_EQ(t.displacement(6, 1, 0), 3);
  EXPECT_EQ(t.displacement(0, 4, 0), 4);  // tie resolved to +side/2
  const Mesh m({8, 8});
  EXPECT_EQ(m.displacement(1, 6, 0), 5);
}

TEST(Mesh, OneDimensionalMesh) {
  const Mesh line({8});
  EXPECT_EQ(line.dim(), 1);
  EXPECT_EQ(line.num_edges(), 7);
  EXPECT_EQ(line.distance(Coord{0}, Coord{7}), 7);
  const Mesh ring({8}, true);
  EXPECT_EQ(ring.num_edges(), 8);
  EXPECT_EQ(ring.distance(Coord{0}, Coord{7}), 1);
}

TEST(Mesh, DegenerateSideOne) {
  const Mesh m({1, 4});
  EXPECT_EQ(m.num_nodes(), 4);
  EXPECT_EQ(m.num_edges(), 3);
  EXPECT_EQ(m.neighbors(0).size(), 1U);
}

TEST(Mesh, TorusSideTwoHasNoDoubleEdges) {
  const Mesh t({2, 2}, true);
  // Side-2 torus dimensions must not wrap (would duplicate edges).
  EXPECT_EQ(t.num_edges(), 4);
  for (NodeId u = 0; u < t.num_nodes(); ++u) {
    EXPECT_EQ(t.neighbors(u).size(), 2U);
  }
}

TEST(Mesh, DescribeMentionsShape) {
  EXPECT_NE(Mesh({4, 8}).describe().find("4x8"), std::string::npos);
  EXPECT_NE(Mesh({4, 4}, true).describe().find("torus"), std::string::npos);
}

TEST(Mesh, RejectsBadConstruction) {
  EXPECT_THROW(Mesh({}), std::invalid_argument);
  EXPECT_THROW(Mesh({0, 4}), std::invalid_argument);
  EXPECT_THROW(Mesh({-2}), std::invalid_argument);
}

// --- edges -------------------------------------------------------------------

TEST(MeshEdges, EndpointsRoundTrip) {
  for (const bool torus : {false, true}) {
    const Mesh m({4, 8}, torus);
    std::set<std::pair<NodeId, NodeId>> seen;
    for (EdgeId e = 0; e < m.num_edges(); ++e) {
      const auto [a, b] = m.edge_endpoints(e);
      EXPECT_TRUE(m.adjacent(a, b)) << "edge " << e;
      EXPECT_EQ(m.edge_between(a, b), e);
      EXPECT_EQ(m.edge_between(b, a), e);
      seen.insert({std::min(a, b), std::max(a, b)});
    }
    // All edges distinct.
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(m.num_edges()));
  }
}

TEST(MeshEdges, EdgeDimConsistent) {
  const Mesh m({4, 4, 4});
  for (EdgeId e = 0; e < m.num_edges(); ++e) {
    const auto [a, b] = m.edge_endpoints(e);
    const Coord ca = m.coord(a);
    const Coord cb = m.coord(b);
    const int d = m.edge_dim(e);
    for (int i = 0; i < 3; ++i) {
      if (i == d) {
        EXPECT_NE(ca[static_cast<std::size_t>(i)], cb[static_cast<std::size_t>(i)]);
      } else {
        EXPECT_EQ(ca[static_cast<std::size_t>(i)], cb[static_cast<std::size_t>(i)]);
      }
    }
  }
}

TEST(MeshEdges, TorusEdgeCountIsDTimesN) {
  const Mesh t({4, 4, 4}, true);
  EXPECT_EQ(t.num_edges(), 3 * t.num_nodes());
}

TEST(MeshEdges, EdgeBetweenRequiresAdjacency) {
  const Mesh m({4, 4});
  EXPECT_THROW(m.edge_between(0, 5), std::invalid_argument);
  EXPECT_THROW(m.edge_between(0, 0), std::invalid_argument);
}

TEST(MeshEdges, WrapEdgeKeyedAtHighCoordinate) {
  const Mesh t({4, 4}, true);
  const NodeId a = t.node_id(c2(3, 1));
  const NodeId b = t.node_id(c2(0, 1));
  const EdgeId e = t.edge_between(a, b);
  const auto [x, y] = t.edge_endpoints(e);
  EXPECT_EQ(x, a);
  EXPECT_EQ(y, b);
}

// --- lines -------------------------------------------------------------------

std::vector<Mesh> line_test_meshes() {
  return {Mesh({16}),          Mesh({8, 8}),         Mesh({9, 7}),
          Mesh({5, 4}, true),  Mesh({2, 3}, true),   Mesh({1, 6}),
          Mesh({4, 4, 4}, true)};
}

// Every edge sits at (dimension, line, position) = (its dimension, the
// line through its lower endpoint, that endpoint's coordinate), and
// line_edge inverts edge_line.
TEST(MeshLines, EdgeLineRoundTrips) {
  for (const Mesh& m : line_test_meshes()) {
    for (EdgeId e = 0; e < m.num_edges(); ++e) {
      const Mesh::LinePos at = m.edge_line(e);
      EXPECT_EQ(m.line_edge(at.dim, at.line, at.pos), e) << m.describe();
      EXPECT_EQ(at.dim, m.edge_dim(e));
      const Coord lower = m.coord(m.edge_endpoints(e).first);
      EXPECT_EQ(at.line, m.line_index(lower, at.dim)) << m.describe();
      EXPECT_EQ(at.pos, lower[static_cast<std::size_t>(at.dim)])
          << m.describe();
    }
  }
}

// hop_edge (the per-hop accounting path) and line_edge (the per-run one)
// number every edge alike, from either endpoint of the hop.
TEST(MeshLines, HopEdgeMatchesLineEdge) {
  for (const Mesh& m : line_test_meshes()) {
    for (NodeId u = 0; u < m.num_nodes(); ++u) {
      for (const NodeId v : m.neighbors(u)) {
        const Coord from = m.coord(u);
        Coord to = from;
        const Mesh::Hop hop = m.decode_hop(to, v - u);
        const std::int64_t line = m.line_index(from, hop.dim);
        EXPECT_EQ(m.line_index(to, hop.dim), line);
        EXPECT_EQ(m.hop_edge(from, hop), m.line_edge(hop.dim, line, hop.lower))
            << m.describe() << " hop " << u << "->" << v;
        EXPECT_EQ(m.hop_edge(to, hop), m.hop_edge(from, hop));
      }
    }
  }
}

TEST(MeshLines, AdvanceRunWrapsOnTorusAndStopsAtMeshEdge) {
  const Mesh mesh({5, 4});
  Coord c = c2(1, 2);
  EXPECT_TRUE(mesh.advance_run(c, 0, 3));
  EXPECT_EQ(c, c2(4, 2));
  EXPECT_FALSE(mesh.advance_run(c, 0, 1));
  EXPECT_EQ(c, c2(4, 2));  // unchanged on failure
  EXPECT_FALSE(mesh.advance_run(c, 1, -3));
  const Mesh torus({5, 4}, true);
  EXPECT_TRUE(torus.advance_run(c, 0, 12));  // two laps and two steps
  EXPECT_EQ(c, c2(1, 2));
  EXPECT_TRUE(torus.advance_run(c, 1, -3));
  EXPECT_EQ(c, c2(1, 3));
}

}  // namespace
}  // namespace oblivious
