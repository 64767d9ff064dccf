#include <gtest/gtest.h>

#include "analysis/evaluate.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/registry.hpp"
#include "workloads/generators.hpp"

namespace oblivious {
namespace {

TEST(RouteAll, OnePathPerDemandWithMatchingEndpoints) {
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kHierarchical2d, m);
  Rng rng(1);
  const RoutingProblem problem = random_permutation(m, rng);
  const std::vector<Path> paths = route_all(m, *router, problem, {});
  ASSERT_EQ(paths.size(), problem.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(paths[i].source(), problem.demands[i].src);
    EXPECT_EQ(paths[i].destination(), problem.demands[i].dst);
  }
}

TEST(RouteAll, SeedReproducibility) {
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kValiant, m);
  const RoutingProblem problem = transpose(m);
  RouteAllOptions options;
  options.seed = 42;
  const auto a = route_all(m, *router, problem, options);
  const auto b = route_all(m, *router, problem, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].nodes, b[i].nodes);
  options.seed = 43;
  const auto c = route_all(m, *router, problem, options);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_different = any_different || a[i].nodes != c[i].nodes;
  }
  EXPECT_TRUE(any_different);
}

TEST(RouteAll, CycleErasureShortensWithoutChangingEndpoints) {
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kValiant, m);
  const RoutingProblem problem = transpose(m);
  RouteAllOptions plain;
  RouteAllOptions erased;
  erased.erase_cycles = true;
  const auto a = route_all(m, *router, problem, plain);
  const auto b = route_all(m, *router, problem, erased);
  std::int64_t total_a = 0;
  std::int64_t total_b = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    total_a += a[i].length();
    total_b += b[i].length();
    EXPECT_EQ(b[i].source(), a[i].source());
    EXPECT_EQ(b[i].destination(), a[i].destination());
    EXPECT_TRUE(is_simple_path(b[i]));
  }
  EXPECT_LE(total_b, total_a);
}

TEST(RouteAll, BitStatsCollected) {
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kHierarchicalNdFrugal, m);
  const RoutingProblem problem = transpose(m);
  RunningStats bits;
  (void)route_all(m, *router, problem, {}, &bits);
  EXPECT_EQ(bits.count(), problem.size());
  EXPECT_GT(bits.mean(), 0.0);
}

TEST(RouteAllParallel, MatchesAcrossThreadCounts) {
  // Oblivious selection: per-packet seeds make the batch driver's node
  // paths independent of chunking and thread count.
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kHierarchical2d, m);
  const RoutingProblem problem = transpose(m);
  ThreadPool serial(1);
  ThreadPool wide(4);
  RouteBatchOptions options;
  options.seed = 99;
  std::vector<Path> a;
  std::vector<Path> b;
  route_batch_paths(*router, problem.demands, serial, options, a);
  route_batch_paths(*router, problem.demands, wide, options, b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].nodes, b[i].nodes) << i;
  }
}

TEST(RouteAllParallel, ValidPathsAndSeedSensitivity) {
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kValiant, m);
  const RoutingProblem problem = transpose(m);
  ThreadPool pool(2);
  RouteBatchOptions options;
  std::vector<Path> a;
  std::vector<Path> b;
  options.seed = 1;
  route_batch_paths(*router, problem.demands, pool, options, a);
  options.seed = 2;
  route_batch_paths(*router, problem.demands, pool, options, b);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(is_valid_path(m, a[i]));
    EXPECT_EQ(a[i].source(), problem.demands[i].src);
    EXPECT_EQ(a[i].destination(), problem.demands[i].dst);
    any_different = any_different || a[i].nodes != b[i].nodes;
  }
  EXPECT_TRUE(any_different);
}

TEST(Evaluate, MetricsAreInternallyConsistent) {
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kHierarchical2d, m);
  const RoutingProblem problem = bit_reversal(m);
  const RouteSetMetrics metrics = evaluate(m, *router, problem);
  EXPECT_EQ(metrics.algorithm, "hierarchical-2d");
  EXPECT_EQ(metrics.packets, problem.size());
  EXPECT_GT(metrics.congestion, 0);
  EXPECT_GE(metrics.dilation, metrics.max_distance);
  EXPECT_GE(metrics.max_stretch, metrics.mean_stretch);
  EXPECT_GE(metrics.mean_stretch, 1.0);
  EXPECT_GT(metrics.lower_bound, 0.0);
  EXPECT_NEAR(metrics.congestion_ratio,
              static_cast<double>(metrics.congestion) /
                  std::max(metrics.lower_bound, 1.0),
              1e-12);
}

TEST(Evaluate, EcubeHasUnitStretch) {
  const Mesh m({16, 16});
  const auto router = make_router(Algorithm::kEcube, m);
  const RouteSetMetrics metrics = evaluate(m, *router, transpose(m));
  EXPECT_DOUBLE_EQ(metrics.max_stretch, 1.0);
  EXPECT_DOUBLE_EQ(metrics.mean_stretch, 1.0);
  EXPECT_DOUBLE_EQ(metrics.bits_per_packet.max(), 0.0);
}

TEST(Evaluate, LowerBoundFallbackOnRectangularMesh) {
  const Mesh m({4, 32});
  const auto router = make_router(Algorithm::kEcube, m);
  RoutingProblem problem;
  for (NodeId u = 0; u < m.num_nodes(); ++u) {
    problem.demands.push_back({u, m.num_nodes() - 1 - u});
  }
  const RouteSetMetrics metrics = evaluate(m, *router, problem);
  EXPECT_GT(metrics.lower_bound, 0.0);
  EXPECT_GE(static_cast<double>(metrics.congestion), metrics.lower_bound - 1.0);
}

TEST(Evaluate, RejectsMismatchedPathCount) {
  const Mesh m({16, 16});
  RoutingProblem problem;
  problem.demands = {{0, 1}, {1, 2}};
  const std::vector<Path> one_path(1);
  EXPECT_THROW(measure_paths(m, problem, one_path, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace oblivious
