// Equivalence of the segment-path pipeline with the node-list pipeline:
// every router's route_segments must describe exactly the path its route
// returns (same rng seed), and EdgeLoadMap::add_segments must charge
// exactly the edges add_path charges -- across dimensions, tori, odd
// sides, and the truncated bridge submeshes of non-torus meshes.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/congestion.hpp"
#include "analysis/sketch/load_accountant.hpp"
#include "mesh/segment_path.hpp"
#include "routing/registry.hpp"
#include "test_support.hpp"

namespace oblivious {
namespace {

std::vector<Mesh> test_meshes() {
  std::vector<Mesh> meshes;
  meshes.push_back(Mesh::cube(2, 8));                  // square pow2: all algos
  meshes.push_back(Mesh::cube(2, 8, /*torus=*/true));  // torus wrap
  meshes.push_back(Mesh({6, 10}));                     // non-square, non-pow2
  meshes.push_back(Mesh({5, 7}, /*torus=*/true));      // odd-side torus
  meshes.push_back(Mesh::cube(3, 4));                  // 3D
  meshes.push_back(Mesh::cube(3, 5, /*torus=*/true));  // 3D odd torus
  meshes.push_back(Mesh::cube(4, 3));                  // 4D
  meshes.push_back(Mesh({2, 2, 4}, /*torus=*/true));   // side-2 torus dims
  return meshes;
}

void expect_same_loads(const Mesh& mesh, const EdgeLoadMap& a,
                       const EdgeLoadMap& b) {
  for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
    ASSERT_EQ(a.load(e), b.load(e)) << "edge " << e << " of " << mesh.describe();
  }
}

// Sketch mode over the same hand-built runs: add_segments and add_path
// must estimate every edge alike, never below the exact load, and count
// the same hops. The 1 MiB sketch tracks at least every line (top_lines
// >= num_edges), so no heavy line is evicted.
void expect_sketch_modes_agree(const Mesh& mesh,
                               const std::vector<SegmentPath>& cases,
                               const EdgeLoadMap& exact) {
  SketchConfig config;
  config.sketch_bytes = std::size_t{1} << 20;
  config.top_lines = static_cast<std::size_t>(mesh.num_edges());
  const auto by_segments =
      LoadAccountant::create(mesh, AccountingMode::kSketch, config);
  const auto by_path =
      LoadAccountant::create(mesh, AccountingMode::kSketch, config);
  for (const SegmentPath& sp : cases) {
    by_segments->add_segments(sp);
    by_path->add_path(path_from_segments(mesh, sp));
  }
  for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
    ASSERT_EQ(by_segments->estimate_load(e), by_path->estimate_load(e))
        << "edge " << e << " of " << mesh.describe();
    ASSERT_GE(by_segments->estimate_load(e), exact.load(e))
        << "edge " << e << " of " << mesh.describe();
  }
  EXPECT_EQ(by_segments->total_edge_charges(), exact.total_edge_charges());
  EXPECT_EQ(by_path->total_edge_charges(), exact.total_edge_charges());
}

TEST(SegmentPath, AppendMergesSameDirectionRuns) {
  SegmentPath sp;
  sp.source = 0;
  sp.append(1, 2);
  sp.append(1, 3);
  ASSERT_EQ(sp.segments.size(), 1U);
  EXPECT_EQ(sp.segments[0].run, 5);
  sp.append(1, -1);  // direction change: new segment
  ASSERT_EQ(sp.segments.size(), 2U);
  sp.append(0, 4);  // dimension change: new segment
  ASSERT_EQ(sp.segments.size(), 3U);
  sp.append(0, 0);  // no-op
  ASSERT_EQ(sp.segments.size(), 3U);
  EXPECT_EQ(sp.length(), 10);
}

TEST(SegmentPath, RoundTripOnEveryMesh) {
  for (const Mesh& mesh : test_meshes()) {
    const auto router = make_router(Algorithm::kStaircase, mesh);
    Rng rng(21);
    for (const auto& [s, t] : testing::sample_pairs(mesh, 30, 5)) {
      const Path path = router->route(s, t, rng);
      const SegmentPath sp = segments_from_path(mesh, path);
      EXPECT_TRUE(is_valid_segment_path(mesh, sp));
      EXPECT_EQ(path_from_segments(mesh, sp).nodes, path.nodes)
          << mesh.describe();
      EXPECT_EQ(sp.length(), path.length());
    }
  }
}

// Every registered algorithm: route_segments with the same rng state must
// describe exactly the node path route returns.
TEST(SegmentPath, RouteSegmentsMatchesRouteForEveryAlgorithm) {
  for (const Mesh& mesh : test_meshes()) {
    for (const Algorithm algo : algorithms_for(mesh)) {
      const auto router = make_router(algo, mesh);
      for (const auto& [s, t] : testing::sample_pairs(mesh, 20, 7)) {
        Rng rng_a(99);
        Rng rng_b(99);
        const Path path = router->route(s, t, rng_a);
        const SegmentPath sp = router->route_segments(s, t, rng_b);
        EXPECT_EQ(sp.source, s);
        EXPECT_EQ(sp.destination(), t);
        EXPECT_TRUE(is_valid_segment_path(mesh, sp));
        ASSERT_EQ(path_from_segments(mesh, sp).nodes, path.nodes)
            << router->name() << " on " << mesh.describe();
        EXPECT_DOUBLE_EQ(segment_path_stretch(mesh, sp),
                         path_stretch(mesh, path));
      }
    }
  }
}

// add_segments must charge exactly the edges add_path charges.
TEST(SegmentPath, EdgeLoadsMatchNodeListAccounting) {
  for (const Mesh& mesh : test_meshes()) {
    for (const Algorithm algo : algorithms_for(mesh)) {
      const auto router = make_router(algo, mesh);
      EdgeLoadMap by_path(mesh);
      EdgeLoadMap by_segments(mesh);
      Rng rng(3);
      for (const auto& [s, t] : testing::sample_pairs(mesh, 25, 11)) {
        Rng rng_copy = rng;
        by_path.add_path(router->route(s, t, rng));
        by_segments.add_segments(router->route_segments(s, t, rng_copy));
      }
      EXPECT_EQ(by_segments.max_load(), by_path.max_load()) << router->name();
      expect_same_loads(mesh, by_path, by_segments);
    }
  }
}

// Torus wraps and full laps: synthetic segment paths whose runs wrap the
// torus (including multiple full laps) must charge the same edges as the
// hop-by-hop walk of their node expansion.
TEST(SegmentPath, TorusWrapAndLapAccounting) {
  const Mesh mesh({5, 4}, /*torus=*/true);
  std::vector<SegmentPath> cases;
  for (const std::int64_t run :
       {std::int64_t{4}, std::int64_t{-4}, std::int64_t{5}, std::int64_t{-5},
        std::int64_t{7}, std::int64_t{-7}, std::int64_t{12}}) {
    for (const int dim : {0, 1}) {
      for (const NodeId start : {NodeId{0}, NodeId{7}, NodeId{19}}) {
        SegmentPath sp;
        sp.source = start;
        sp.append(dim, run);
        sp.append(1 - dim, 2);
        sp.append(dim, -1);
        // Recompute dest by expanding (path_from_segments checks it).
        Coord c = mesh.coord(start);
        c[static_cast<std::size_t>(dim)] += run - 1;
        c[static_cast<std::size_t>(1 - dim)] += 2;
        sp.dest = mesh.node_id(mesh.wrap(c));
        cases.push_back(sp);
      }
    }
  }
  EdgeLoadMap by_segments(mesh);
  EdgeLoadMap by_path(mesh);
  for (const SegmentPath& sp : cases) {
    ASSERT_TRUE(is_valid_segment_path(mesh, sp));
    by_segments.add_segments(sp);
    by_path.add_path(path_from_segments(mesh, sp));
  }
  expect_same_loads(mesh, by_path, by_segments);
  expect_sketch_modes_agree(mesh, cases, by_path);
}

// Side-2 torus dimensions have a single edge per line; every unit step
// crosses it regardless of direction.
TEST(SegmentPath, SideTwoTorusCountsTheSingleEdge) {
  const Mesh mesh({2, 3}, /*torus=*/true);
  SegmentPath sp;
  sp.source = 0;
  sp.dest = 0;
  sp.append(0, 1);
  sp.append(0, 1);  // merged: run 2 = back and forth across the one edge
  EdgeLoadMap by_segments(mesh);
  by_segments.add_segments(sp);
  EdgeLoadMap by_path(mesh);
  by_path.add_path(path_from_segments(mesh, sp));
  expect_same_loads(mesh, by_path, by_segments);
  // Node (1,0) has id 3; the single dim-0 edge is crossed on both steps.
  EXPECT_EQ(by_segments.load(mesh.edge_between(0, 3)), 2U);
  expect_sketch_modes_agree(mesh, {sp}, by_path);
}

// Hierarchical routing on a non-torus mesh exercises truncated bridge
// submeshes near the boundary; the segment pipeline must agree there too.
TEST(SegmentPath, TruncatedBridgeSubmeshesAgree) {
  const Mesh mesh = Mesh::cube(2, 16);
  const auto router = make_router(Algorithm::kHierarchicalNd, mesh);
  EdgeLoadMap by_path(mesh);
  EdgeLoadMap by_segments(mesh);
  // Pairs hugging the boundary, where bridge truncation happens.
  for (NodeId s = 0; s < 16; ++s) {
    for (const NodeId t : {NodeId{255}, NodeId{240}, NodeId{15 * 16 + 7}}) {
      if (s == t) continue;
      Rng rng_a(s * 31 + t);
      Rng rng_b(s * 31 + t);
      const Path path = router->route(s, t, rng_a);
      const SegmentPath sp = router->route_segments(s, t, rng_b);
      ASSERT_EQ(path_from_segments(mesh, sp).nodes, path.nodes);
      by_path.add_path(path);
      by_segments.add_segments(sp);
    }
  }
  expect_same_loads(mesh, by_path, by_segments);
}

TEST(SegmentPath, ClearResetsSegmentContributions) {
  const Mesh mesh = Mesh::cube(2, 8, /*torus=*/true);
  const auto router = make_router(Algorithm::kRandomDimOrder, mesh);
  EdgeLoadMap loads(mesh);
  Rng rng(17);
  SegmentPath sp = router->route_segments(1, 62, rng);
  loads.add_segments(sp);
  const std::uint32_t before = loads.max_load();
  ASSERT_GT(before, 0U);
  loads.clear();
  EXPECT_EQ(loads.max_load(), 0U);
  loads.add_segments(sp);
  EXPECT_EQ(loads.max_load(), before);
}

TEST(SegmentPath, MergeEqualsBulkAccounting) {
  const Mesh mesh = Mesh::cube(3, 4, /*torus=*/true);
  const auto router = make_router(Algorithm::kValiant, mesh);
  std::vector<SegmentPath> sps;
  Rng rng(29);
  for (const auto& [s, t] : testing::sample_pairs(mesh, 40, 23)) {
    sps.push_back(router->route_segments(s, t, rng));
  }
  EdgeLoadMap bulk(mesh);
  bulk.add_segment_paths(sps);
  EdgeLoadMap shard_a(mesh);
  EdgeLoadMap shard_b(mesh);
  for (std::size_t i = 0; i < sps.size(); ++i) {
    (i % 2 == 0 ? shard_a : shard_b).add_segments(sps[i]);
  }
  shard_a.merge(shard_b);
  expect_same_loads(mesh, bulk, shard_a);
}

}  // namespace
}  // namespace oblivious
