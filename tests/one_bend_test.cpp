#include <gtest/gtest.h>

#include "routing/one_bend.hpp"
#include "test_support.hpp"

namespace oblivious {
namespace {

// The empty segment path from `from` to `to`, ready for the appends.
SegmentPath start_at(const Mesh& mesh, const Coord& from, const Coord& to) {
  SegmentPath sp;
  sp.reset(mesh.node_id(from), mesh.node_id(to));
  return sp;
}

// The node list of `sp`, expanded in place as Router::route_into does.
Path nodes_of(const Mesh& mesh, const SegmentPath& sp) {
  Path p;
  path_from_segments_into(mesh, sp, p);
  return p;
}

TEST(OneBend, IdentityOrder) {
  const auto order = identity_order(3);
  ASSERT_EQ(order.size(), 3U);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
}

TEST(OneBend, ShortestPathOnMesh) {
  const Mesh m({8, 8});
  const Coord from{1, 2};
  const Coord to{5, 6};
  SegmentPath sp = start_at(m, from, to);
  const auto order = identity_order(2);
  append_dim_order_segments(m, from, to, {order.data(), order.size()}, sp);
  const Path p = nodes_of(m, sp);
  EXPECT_TRUE(is_valid_path(m, p));
  EXPECT_EQ(p.length(), m.distance(from, to));
  EXPECT_EQ(p.destination(), m.node_id(to));
  // Dimension 0 corrected first: node 2 on the path moves in x.
  EXPECT_EQ(m.coord(p.nodes[1]), (Coord{2, 2}));
}

TEST(OneBend, OrderControlsBendPlacement) {
  const Mesh m({8, 8});
  const Coord from{1, 2};
  const Coord to{5, 6};
  SegmentPath sp = start_at(m, from, to);
  const int order_yx[] = {1, 0};
  append_dim_order_segments(m, from, to, {order_yx, 2}, sp);
  const Path p = nodes_of(m, sp);
  EXPECT_EQ(m.coord(p.nodes[1]), (Coord{1, 3}));  // y first
  EXPECT_EQ(p.length(), m.distance(from, to));
}

TEST(OneBend, TakesShorterArcOnTorus) {
  const Mesh t({8, 8}, true);
  const Coord from{1, 0};
  const Coord to{7, 0};
  SegmentPath sp = start_at(t, from, to);
  const auto order = identity_order(2);
  append_dim_order_segments(t, from, to, {order.data(), order.size()}, sp);
  const Path p = nodes_of(t, sp);
  EXPECT_EQ(p.length(), 2);  // 1 -> 0 -> 7, wrapping
  EXPECT_TRUE(is_valid_path(t, p));
}

TEST(OneBend, ZeroLengthPath) {
  const Mesh m({8, 8});
  const Coord c{3, 3};
  SegmentPath sp = start_at(m, c, c);
  const auto order = identity_order(2);
  append_dim_order_segments(m, c, c, {order.data(), order.size()}, sp);
  const Path p = nodes_of(m, sp);
  EXPECT_EQ(p.length(), 0);
}

TEST(OneBend, RejectsMismatchedStart) {
  // Runs appended from (1, 1) onto a path that starts at (0, 0) end at
  // (1, 1), not at the recorded destination: the expansion refuses them.
  const Mesh m({8, 8});
  SegmentPath sp = start_at(m, Coord{0, 0}, Coord{2, 2});
  const auto order = identity_order(2);
  append_dim_order_segments(m, Coord{1, 1}, Coord{2, 2},
                            {order.data(), order.size()}, sp);
  EXPECT_THROW(nodes_of(m, sp), std::invalid_argument);
}

TEST(OneBend, InRegionStaysInside) {
  const Mesh m({16, 16});
  const Region region(Coord{4, 4}, Coord{8, 8});
  Rng rng(3);
  const auto order = identity_order(2);
  for (int trial = 0; trial < 100; ++trial) {
    const Coord a = region.random_coord(m, rng);
    const Coord b = region.random_coord(m, rng);
    SegmentPath sp = start_at(m, a, b);
    append_segments_in_region(m, region, a, b, {order.data(), order.size()},
                              sp);
    const Path p = nodes_of(m, sp);
    EXPECT_TRUE(is_valid_path(m, p));
    EXPECT_EQ(p.length(), m.distance(a, b));
    for (const NodeId u : p.nodes) {
      EXPECT_TRUE(region.contains_node(m, u));
    }
  }
}

TEST(OneBend, InRegionStaysInsideWrappedRegion) {
  // On the torus the globally shorter arc may exit a wrapped region; the
  // in-region walk must stay inside regardless.
  const Mesh t({16, 16}, true);
  const Region region(Coord{12, 12}, Coord{8, 8});  // wraps both dims
  Rng rng(11);
  const auto order = identity_order(2);
  for (int trial = 0; trial < 200; ++trial) {
    const Coord a = region.random_coord(t, rng);
    const Coord b = region.random_coord(t, rng);
    SegmentPath sp = start_at(t, a, b);
    append_segments_in_region(t, region, a, b, {order.data(), order.size()},
                              sp);
    const Path p = nodes_of(t, sp);
    EXPECT_TRUE(is_valid_path(t, p));
    for (const NodeId u : p.nodes) {
      EXPECT_TRUE(region.contains_node(t, u)) << t.coord(u).at(0);
    }
    EXPECT_EQ(p.destination(), t.node_id(b));
  }
}

TEST(OneBend, InRegionLengthBoundedByRegionPerimeter) {
  const Mesh t({16, 16}, true);
  const Region region(Coord{10, 2}, Coord{8, 4});
  Rng rng(13);
  const auto order = identity_order(2);
  for (int trial = 0; trial < 100; ++trial) {
    const Coord a = region.random_coord(t, rng);
    const Coord b = region.random_coord(t, rng);
    SegmentPath sp = start_at(t, a, b);
    append_segments_in_region(t, region, a, b, {order.data(), order.size()},
                              sp);
    const Path p = nodes_of(t, sp);
    EXPECT_LE(p.length(), (region.extent_at(0) - 1) + (region.extent_at(1) - 1));
  }
}

TEST(OneBend, InRegionRejectsOutsideEndpoints) {
  const Mesh m({8, 8});
  const Region region(Coord{0, 0}, Coord{2, 2});
  SegmentPath sp = start_at(m, Coord{0, 0}, Coord{5, 5});
  const auto order = identity_order(2);
  EXPECT_THROW(append_segments_in_region(m, region, Coord{0, 0}, Coord{5, 5},
                                         {order.data(), order.size()}, sp),
               std::invalid_argument);
}

}  // namespace
}  // namespace oblivious
