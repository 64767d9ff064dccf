// Proves the zero-allocation claim of the scratch-threaded routing path:
// after a warm-up pass (which grows every reusable buffer to its
// steady-state capacity), repeated route_into /
// route_segments_into calls on the hierarchical routers perform ZERO heap
// allocations. The test binary overrides the global allocation functions
// with counting wrappers; the contract-checked build is skipped because
// the OBLV_EXPECTS validators allocate by design.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "mesh/mesh.hpp"
#include "mesh/segment_path.hpp"
#include "parallel/soa_batch.hpp"
#include "rng/rng.hpp"
#include "routing/hierarchical.hpp"
#include "routing/registry.hpp"
#include "routing/route_scratch.hpp"
#include "test_support.hpp"
#include "util/contracts.hpp"
#include "workloads/problem.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace oblivious {
namespace {

// Routes every pair in `pairs` once (segment form) and returns the number
// of heap allocations the pass performed.
template <typename RouterT>
std::uint64_t count_pass(const RouterT& router,
                         const std::vector<std::pair<NodeId, NodeId>>& pairs,
                         RouteScratch& scratch, SegmentPath& out) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (const auto& [s, t] : pairs) {
    Rng rng(99);
    router.route_segments_into(s, t, rng, scratch, out);
  }
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

template <typename RouterT>
void expect_zero_steady_state(const RouterT& router, const Mesh& mesh) {
  const auto pairs = testing::sample_pairs(mesh, 64, 17);
  RouteScratch scratch;
  SegmentPath out;
  // Two warm-up passes: the first grows buffers, the second settles any
  // capacity that depends on warm-path sizes.
  count_pass(router, pairs, scratch, out);
  count_pass(router, pairs, scratch, out);
  EXPECT_EQ(count_pass(router, pairs, scratch, out), 0u) << router.name();
  EXPECT_EQ(count_pass(router, pairs, scratch, out), 0u) << router.name();
}

TEST(AllocCount, HierarchicalRoutersAllocateNothingSteadyState) {
#if OBLV_CONTRACTS_ACTIVE
  GTEST_SKIP() << "contract validators allocate by design";
#else
  const Mesh mesh2 = Mesh::cube(2, 16);
  expect_zero_steady_state(
      AncestorRouter(mesh2, AncestorRouter::Hierarchy::kAccessGraph), mesh2);
  expect_zero_steady_state(
      AncestorRouter(mesh2, AncestorRouter::Hierarchy::kAccessTree), mesh2);
  expect_zero_steady_state(NdRouter(mesh2), mesh2);
  expect_zero_steady_state(NdRouter(mesh2, NdRouter::RandomnessMode::kFrugal),
                           mesh2);
  const Mesh mesh3 = Mesh::cube(3, 8, /*torus=*/true);
  expect_zero_steady_state(NdRouter(mesh3), mesh3);
#endif
}

TEST(AllocCount, BaselineRoutersAllocateNothingSteadyState) {
#if OBLV_CONTRACTS_ACTIVE
  GTEST_SKIP() << "contract validators allocate by design";
#else
  const Mesh mesh = Mesh::cube(2, 16);
  for (const Algorithm algo :
       {Algorithm::kEcube, Algorithm::kRandomDimOrder, Algorithm::kStaircase,
        Algorithm::kValiant, Algorithm::kBoundedValiant}) {
    const auto router = make_router(algo, mesh);
    expect_zero_steady_state(*router, mesh);
  }
#endif
}

// The SoA batch engine's buffers are all capacity-retaining members, so
// after a warm-up batch (grouping tables and draw rows grown, output
// SmallVecs spilled to their final capacity) repeated batches perform
// ZERO heap allocations -- the claim soa_batch.hpp makes.
TEST(AllocCount, SoaBatchEngineAllocatesNothingSteadyState) {
#if OBLV_CONTRACTS_ACTIVE
  GTEST_SKIP() << "contract validators allocate by design";
#else
  const auto run_engine = [](const Router& router, const Mesh& mesh) {
    const auto pairs = testing::sample_pairs(mesh, 48, 29);
    std::vector<Demand> demands;
    for (const auto& [s, t] : pairs) demands.push_back({s, t});
    for (std::size_t i = 0; i < 32; ++i) {  // repeats: multi-block groups
      demands.push_back({pairs[i % 4].first, pairs[i % 4].second});
    }
    SoaBatchEngine engine;
    std::vector<SegmentPath> out(demands.size());
    const auto pass = [&]() {
      const std::uint64_t before =
          g_alloc_count.load(std::memory_order_relaxed);
      engine.run(router, demands, /*seed=*/9, 0, demands.size(),
                 std::span<SegmentPath>(out), nullptr);
      return g_alloc_count.load(std::memory_order_relaxed) - before;
    };
    pass();
    pass();
    EXPECT_EQ(pass(), 0u) << router.name();
    EXPECT_EQ(pass(), 0u) << router.name();
  };
  const Mesh mesh2 = Mesh::cube(2, 16);
  run_engine(AncestorRouter(mesh2, AncestorRouter::Hierarchy::kAccessGraph),
             mesh2);
  run_engine(NdRouter(mesh2, NdRouter::RandomnessMode::kFrugal), mesh2);
  const Mesh mesh3 = Mesh::cube(3, 8, /*torus=*/true);
  run_engine(NdRouter(mesh3), mesh3);
  for (const Algorithm algo : {Algorithm::kEcube, Algorithm::kRandomDimOrder,
                               Algorithm::kValiant,
                               Algorithm::kBoundedValiant}) {
    const auto router = make_router(algo, mesh2);
    run_engine(*router, mesh2);
  }
#endif
}

// Sanity-check the harness itself: an allocation must be observed.
TEST(AllocCount, HarnessCountsAllocations) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  std::vector<int>* v = new std::vector<int>(100);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  delete v;
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace oblivious
