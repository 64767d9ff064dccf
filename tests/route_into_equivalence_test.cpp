// Draw-for-draw equivalence of the zero-allocation routing entry points:
// for every registered algorithm, route_into / route_segments_into must
// select byte-identical paths AND consume exactly the same rng stream as
// the allocating route / route_segments twins -- the rng-stream
// compatibility invariant of DESIGN.md section 8.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "mesh/mesh.hpp"
#include "mesh/path.hpp"
#include "mesh/segment_path.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/soa_batch.hpp"
#include "rng/rng.hpp"
#include "routing/registry.hpp"
#include "routing/route_scratch.hpp"
#include "test_support.hpp"
#include "workloads/problem.hpp"

namespace oblivious {
namespace {

struct MeshCase {
  int dim;
  std::int64_t side;
  bool torus;
};

std::vector<MeshCase> mesh_cases() {
  return {{2, 16, false}, {2, 16, true}, {3, 8, false}, {3, 8, true}};
}

// After each pair of calls the two rng copies must have consumed the same
// number of draws; drawing once more from each proves stream alignment
// (identical internal state), not just identical output.
void expect_same_stream(Rng& a, Rng& b, const std::string& context) {
  EXPECT_EQ(a.next_u64(), b.next_u64()) << context << ": rng streams diverged";
}

TEST(RouteIntoEquivalence, PathsAndStreamsMatchAllocatingApi) {
  for (const MeshCase& mc : mesh_cases()) {
    const Mesh mesh = Mesh::cube(mc.dim, mc.side, mc.torus);
    const auto pairs = testing::sample_pairs(mesh, 64, 7);
    for (const Algorithm algo : algorithms_for(mesh)) {
      const auto router = make_router(algo, mesh);
      RouteScratch scratch;
      Rng rng_alloc(11);
      Rng rng_into(11);
      Path into_path;
      for (const auto& [s, t] : pairs) {
        const Path ref = router->route(s, t, rng_alloc);
        router->route_into(s, t, rng_into, scratch, into_path);
        EXPECT_EQ(ref.nodes, into_path.nodes) << router->name();
        expect_same_stream(rng_alloc, rng_into, router->name());
      }
    }
  }
}

TEST(RouteIntoEquivalence, SegmentsAndStreamsMatchAllocatingApi) {
  for (const MeshCase& mc : mesh_cases()) {
    const Mesh mesh = Mesh::cube(mc.dim, mc.side, mc.torus);
    const auto pairs = testing::sample_pairs(mesh, 64, 19);
    for (const Algorithm algo : algorithms_for(mesh)) {
      const auto router = make_router(algo, mesh);
      RouteScratch scratch;
      Rng rng_alloc(23);
      Rng rng_into(23);
      SegmentPath into_sp;
      for (const auto& [s, t] : pairs) {
        const SegmentPath ref = router->route_segments(s, t, rng_alloc);
        router->route_segments_into(s, t, rng_into, scratch, into_sp);
        EXPECT_EQ(ref, into_sp) << router->name();
        expect_same_stream(rng_alloc, rng_into, router->name());
      }
    }
  }
}

// Degenerate s == t demands must also agree (and consume no randomness in
// routers that early-return).
TEST(RouteIntoEquivalence, SelfDemandsMatch) {
  const Mesh mesh = Mesh::cube(2, 16);
  for (const Algorithm algo : algorithms_for(mesh)) {
    const auto router = make_router(algo, mesh);
    RouteScratch scratch;
    Rng rng_alloc(3);
    Rng rng_into(3);
    Path into_path;
    SegmentPath into_sp;
    const NodeId n = mesh.num_nodes() / 2;
    EXPECT_EQ(router->route(n, n, rng_alloc).nodes,
              (router->route_into(n, n, rng_into, scratch, into_path),
               into_path.nodes))
        << router->name();
    EXPECT_EQ(router->route_segments(n, n, rng_alloc),
              (router->route_segments_into(n, n, rng_into, scratch, into_sp),
               into_sp))
        << router->name();
    expect_same_stream(rng_alloc, rng_into, router->name());
  }
}

// A scratch that has been through many differently-shaped routes (stale
// chain, longer previous paths) must not leak state into later results.
TEST(RouteIntoEquivalence, DirtyScratchIsHarmless) {
  const Mesh mesh = Mesh::cube(3, 8, /*torus=*/true);
  const auto pairs = testing::sample_pairs(mesh, 96, 31);
  for (const Algorithm algo : algorithms_for(mesh)) {
    const auto router = make_router(algo, mesh);
    RouteScratch reused;
    SegmentPath reused_out;
    for (const auto& [s, t] : pairs) {
      Rng rng_a(101);
      Rng rng_b(101);
      // Fresh scratch + fresh output vs. the battle-scarred pair.
      RouteScratch fresh;
      SegmentPath fresh_out;
      router->route_segments_into(s, t, rng_a, fresh, fresh_out);
      router->route_segments_into(s, t, rng_b, reused, reused_out);
      EXPECT_EQ(fresh_out, reused_out) << router->name();
    }
  }
}

// The SoA batch engine must reproduce route_segments_into packet for
// packet: pair grouping, the compiled draw program, and the lane-parallel
// rng may not change a single segment (DESIGN.md section 10). One engine
// instance is reused across all meshes and algorithms, so every iteration
// after the first runs with dirty grouping tables, plan columns, and draw
// rows from a differently-shaped predecessor. The demand list repeats
// pairs (so groups span multiple lane blocks, including ragged tails) and
// the engine is driven over two uneven sub-ranges to exercise mid-array
// starts, exactly as chunked workers would.
TEST(RouteIntoEquivalence, SoaEngineMatchesScalarPerPacket) {
  constexpr std::uint64_t kSeed = 91;
  SoaBatchEngine engine;
  for (const MeshCase& mc : mesh_cases()) {
    const Mesh mesh = Mesh::cube(mc.dim, mc.side, mc.torus);
    const auto pairs = testing::sample_pairs(mesh, 40, 83);
    std::vector<Demand> demands;
    for (const auto& [s, t] : pairs) demands.push_back({s, t});
    for (std::size_t i = 0; i < 30; ++i) {  // repeats: multi-block groups
      demands.push_back({pairs[i % 3].first, pairs[i % 3].second});
    }
    demands.push_back({pairs[0].first, pairs[0].first});  // s == t
    for (const Algorithm algo : algorithms_for(mesh)) {
      const auto router = make_router(algo, mesh);
      if (!SoaBatchEngine::supports(*router)) continue;
      std::vector<SegmentPath> scalar_out(demands.size());
      RouteScratch scratch;
      for (std::size_t i = 0; i < demands.size(); ++i) {
        Rng rng = packet_rng(kSeed, i);
        router->route_segments_into(demands[i].src, demands[i].dst, rng,
                                    scratch, scalar_out[i]);
      }
      std::vector<SegmentPath> soa_out(demands.size());
      const std::size_t split = demands.size() / 3;
      engine.run(*router, demands, kSeed, 0, split,
                 std::span<SegmentPath>(soa_out), nullptr);
      engine.run(*router, demands, kSeed, split, demands.size(),
                 std::span<SegmentPath>(soa_out), nullptr);
      EXPECT_EQ(soa_out, scalar_out)
          << router->name() << " dim=" << mc.dim << " torus=" << mc.torus;
    }
  }
}

// Staircase draws a data-dependent number of words per hop, so it has no
// SoA kernel; supports() must say so (route_batch relies on it to fall
// back), and the routers with kernels must all be claimed.
TEST(RouteIntoEquivalence, SoaEngineSupportMatrix) {
  const Mesh mesh = Mesh::cube(2, 16);
  for (const Algorithm algo : algorithms_for(mesh)) {
    const auto router = make_router(algo, mesh);
    EXPECT_EQ(SoaBatchEngine::supports(*router),
              algo != Algorithm::kStaircase)
        << router->name();
  }
}

}  // namespace
}  // namespace oblivious
