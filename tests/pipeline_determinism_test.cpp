// Determinism of the parallel segment pipeline: per-packet rng streams are
// derived from (seed, packet index) only, so the selected paths -- and
// every reported metric -- must be byte-identical for any thread count.
// Also pins evaluate_trials to its node-based reference semantics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/congestion.hpp"
#include "analysis/evaluate.hpp"
#include "analysis/trials.hpp"
#include "core/oblivious_routing.hpp"
#include "obs/metrics.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/registry.hpp"
#include "test_support.hpp"
#include "workloads/generators.hpp"

namespace oblivious {
namespace {

TEST(PipelineDeterminism, SegmentRoutingIdenticalAcrossThreadCounts) {
  const Mesh mesh = Mesh::cube(2, 16);
  const RoutingProblem problem = transpose(mesh);
  for (const Algorithm algo :
       {Algorithm::kRandomDimOrder, Algorithm::kHierarchicalNd}) {
    const auto router = make_router(algo, mesh);
    ThreadPool pool1(1);
    ThreadPool pool2(2);
    ThreadPool pool8(8);
    RouteBatchOptions options;
    options.seed = 42;
    std::vector<SegmentPath> paths1;
    std::vector<SegmentPath> paths2;
    std::vector<SegmentPath> paths8;
    route_batch(*router, problem.demands, pool1, options, paths1);
    route_batch(*router, problem.demands, pool2, options, paths2);
    route_batch(*router, problem.demands, pool8, options, paths8);
    ASSERT_EQ(paths1.size(), problem.size());
    EXPECT_EQ(paths1, paths2) << router->name();
    EXPECT_EQ(paths1, paths8) << router->name();
  }
}

// The segment pipeline and the node-list pipeline draw the same per-packet
// streams, so they must select the same routes.
TEST(PipelineDeterminism, SegmentPipelineMatchesNodeListPipeline) {
  const Mesh mesh = Mesh::cube(2, 8, /*torus=*/true);
  Rng wl_rng(5);
  const RoutingProblem problem = random_permutation(mesh, wl_rng);
  const auto router = make_router(Algorithm::kHierarchical2d, mesh);
  ThreadPool pool(2);
  RouteBatchOptions options;
  options.seed = 77;
  std::vector<Path> node_paths;
  std::vector<SegmentPath> seg_paths;
  route_batch_paths(*router, problem.demands, pool, options, node_paths);
  route_batch(*router, problem.demands, pool, options, seg_paths);
  ASSERT_EQ(node_paths.size(), seg_paths.size());
  for (std::size_t i = 0; i < node_paths.size(); ++i) {
    EXPECT_EQ(path_from_segments(mesh, seg_paths[i]).nodes,
              node_paths[i].nodes);
  }
}

TEST(PipelineDeterminism, RouteAndMeasureMetricsThreadCountInvariant) {
  const Mesh mesh = Mesh::cube(2, 16);
  const RoutingProblem problem = bit_reversal(mesh);
  const auto router = make_router(Algorithm::kHierarchicalNdFrugal, mesh);
  const double bound = best_lower_bound(mesh, problem);
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  std::vector<SegmentPath> paths;
  const RouteSetMetrics m1 = route_and_measure_parallel(
      mesh, *router, problem, bound, pool1, 9, {}, &paths);
  const RouteSetMetrics m8 =
      route_and_measure_parallel(mesh, *router, problem, bound, pool8, 9);
  EXPECT_EQ(m1.congestion, m8.congestion);
  EXPECT_EQ(m1.dilation, m8.dilation);
  EXPECT_DOUBLE_EQ(m1.max_stretch, m8.max_stretch);
  EXPECT_DOUBLE_EQ(m1.mean_stretch, m8.mean_stretch);
  // And the one-pass metrics agree with measuring the returned paths.
  const RouteSetMetrics again =
      measure_segment_paths(mesh, problem, paths, bound);
  EXPECT_EQ(again.congestion, m1.congestion);
  EXPECT_EQ(again.dilation, m1.dilation);
  EXPECT_DOUBLE_EQ(again.max_stretch, m1.max_stretch);
  EXPECT_DOUBLE_EQ(again.mean_stretch, m1.mean_stretch);
}

// Absolute pins of route_and_measure_parallel, recorded before it was
// rebuilt on route_and_account: a 32x32 random permutation under exact and
// sketch accounting (a 64 KiB sketch folded in 128-packet blocks, so eight
// blocks fold out of order), on 1 and 8 threads. Never regenerate these;
// a change here means the driver changed what it measures.
TEST(PipelineDeterminism, RouteAndMeasurePinnedValues) {
  struct Pin {
    AccountingMode mode;
    std::int64_t congestion;
    std::int64_t dilation;
    double max_stretch;
    double mean_stretch;
    std::size_t accounting_bytes;
    double error_bound;
    std::uint64_t path_hash;
  };
  const Pin pins[] = {
      {AccountingMode::kExact, 63, 133, 18.714285714285715,
       3.3367630129863199, 7936, 0.0, 0x254e7050766ba3d3ULL},
      {AccountingMode::kSketch, 119, 133, 18.714285714285715,
       3.3367630129863199, 33480, 459.47457531671796, 0x254e7050766ba3d3ULL},
  };
  const Mesh mesh = Mesh::cube(2, 32);
  Rng wl_rng(11);
  const RoutingProblem problem = random_permutation(mesh, wl_rng);
  const auto router = make_router(Algorithm::kHierarchical2d, mesh);
  const double bound = best_lower_bound(mesh, problem);
  for (const Pin& pin : pins) {
    AccountingOptions accounting;
    accounting.mode = pin.mode;
    accounting.sketch.sketch_bytes = std::size_t{64} << 10;
    accounting.sketch.top_lines = 7;
    accounting.sketch.block_size = 128;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      ThreadPool pool(threads);
      std::vector<SegmentPath> paths;
      const RouteSetMetrics m = route_and_measure_parallel(
          mesh, *router, problem, bound, pool, 5, accounting, &paths);
      std::uint64_t path_hash = 0;
      for (const SegmentPath& sp : paths) {
        path_hash =
            splitmix64(path_hash ^ static_cast<std::uint64_t>(sp.source));
        for (const Segment& seg : sp.segments) {
          path_hash =
              splitmix64(path_hash ^ static_cast<std::uint64_t>(seg.dim));
          path_hash =
              splitmix64(path_hash ^ static_cast<std::uint64_t>(seg.run));
        }
      }
      const std::string where = std::string(accounting_mode_name(pin.mode)) +
                                " t" + std::to_string(threads);
      EXPECT_EQ(m.congestion, pin.congestion) << where;
      EXPECT_EQ(m.dilation, pin.dilation) << where;
      EXPECT_DOUBLE_EQ(m.max_stretch, pin.max_stretch) << where;
      EXPECT_DOUBLE_EQ(m.mean_stretch, pin.mean_stretch) << where;
      EXPECT_EQ(m.accounting_bytes, pin.accounting_bytes) << where;
      EXPECT_DOUBLE_EQ(m.accounting_error_bound, pin.error_bound) << where;
      EXPECT_EQ(path_hash, pin.path_hash) << where;
    }
  }
}

#if defined(OBLV_METRICS_ENABLED) && OBLV_METRICS_ENABLED
// route_and_measure_parallel feeds routing.path_length with the sample set
// every driver shares (every 16th packet, weighted by the stride), so its
// histogram equals route_batch's on the same packets.
TEST(PipelineDeterminism, RouteAndMeasureSamplesPathLengthsLikeRouteBatch) {
  const Mesh mesh = Mesh::cube(2, 16);
  const RoutingProblem problem = transpose(mesh);
  const auto router = make_router(Algorithm::kHierarchical2d, mesh);
  ThreadPool pool(4);
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.reset();
  (void)route_and_measure_parallel(mesh, *router, problem, 1.0, pool, 3);
  const obs::HistogramSnapshot measured =
      registry.snapshot().histograms.at("routing.path_length");
  registry.reset();
  RouteBatchOptions options;
  options.seed = 3;
  std::vector<SegmentPath> paths;
  route_batch(*router, problem.demands, pool, options, paths);
  const obs::HistogramSnapshot batched =
      registry.snapshot().histograms.at("routing.path_length");
  registry.reset();
  obs::set_metrics_enabled(was_enabled);
  EXPECT_EQ(measured.buckets, batched.buckets);
  EXPECT_DOUBLE_EQ(measured.sum, batched.sum);
  EXPECT_EQ(measured.count, problem.size());
}
#endif

// measure_segment_paths must agree with measure_paths on the same routes.
TEST(PipelineDeterminism, MeasureSegmentPathsMatchesMeasurePaths) {
  const Mesh mesh = Mesh::cube(3, 8);
  const RoutingProblem problem = tornado(mesh);
  const auto router = make_router(Algorithm::kBoundedValiant, mesh);
  RouteAllOptions options;
  options.seed = 13;
  const std::vector<Path> node_paths = route_all(mesh, *router, problem, options);
  const std::vector<SegmentPath> seg_paths =
      route_all_segments(mesh, *router, problem, options);
  const double bound = best_lower_bound(mesh, problem);
  const RouteSetMetrics a = measure_paths(mesh, problem, node_paths, bound);
  const RouteSetMetrics b =
      measure_segment_paths(mesh, problem, seg_paths, bound);
  EXPECT_EQ(a.congestion, b.congestion);
  EXPECT_EQ(a.dilation, b.dilation);
  EXPECT_DOUBLE_EQ(a.max_stretch, b.max_stretch);
  EXPECT_DOUBLE_EQ(a.mean_stretch, b.mean_stretch);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.max_distance, b.max_distance);
}

// evaluate_trials now runs on the segment pipeline internally; its numbers
// must still match a hand-written node-based reference loop on the same
// seeds, for every registered algorithm.
TEST(PipelineDeterminism, EvaluateTrialsMatchesNodeBasedReference) {
  const Mesh mesh = Mesh::cube(2, 8);
  const RoutingProblem problem = transpose(mesh);
  const int trials = 4;
  const std::uint64_t base_seed = 100;
  for (const Algorithm algo : algorithms_for(mesh)) {
    const auto router = make_router(algo, mesh);
    const TrialSummary summary =
        evaluate_trials(mesh, *router, problem, trials, base_seed);

    RunningStats ref_congestion;
    std::vector<double> edge_sums(static_cast<std::size_t>(mesh.num_edges()),
                                  0.0);
    for (int t = 0; t < trials; ++t) {
      RouteAllOptions options;
      options.seed = base_seed + static_cast<std::uint64_t>(t);
      options.meter_bits = false;
      const std::vector<Path> paths =
          route_all(mesh, *router, problem, options);
      EdgeLoadMap loads(mesh);
      loads.add_paths(paths);
      ref_congestion.add(static_cast<double>(loads.max_load()));
      for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
        edge_sums[static_cast<std::size_t>(e)] +=
            static_cast<double>(loads.load(e));
      }
    }
    double ref_max_expected = 0.0;
    for (const double sum : edge_sums) {
      ref_max_expected =
          std::max(ref_max_expected, sum / static_cast<double>(trials));
    }
    EXPECT_DOUBLE_EQ(summary.congestion.mean(), ref_congestion.mean())
        << router->name();
    EXPECT_DOUBLE_EQ(summary.congestion.max(), ref_congestion.max())
        << router->name();
    EXPECT_DOUBLE_EQ(summary.max_expected_edge_load, ref_max_expected)
        << router->name();
  }
}

TEST(PipelineDeterminism, FacadeRouteSegmentsThreadCountInvariant) {
  const ObliviousMeshRouting system(Mesh::cube(2, 16),
                                    Algorithm::kHierarchical2d);
  const RoutingProblem problem = transpose(system.mesh());
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  const SegmentRoutingRun run1 = system.route_segments(problem, pool1, 3);
  const SegmentRoutingRun run2 = system.route_segments(problem, pool2, 3);
  EXPECT_EQ(run1.paths, run2.paths);
  EXPECT_EQ(run1.metrics.congestion, run2.metrics.congestion);
  EXPECT_EQ(run1.metrics.dilation, run2.metrics.dilation);
  EXPECT_GT(run1.metrics.congestion, 0);
  for (const SegmentPath& sp : run1.paths) {
    EXPECT_TRUE(is_valid_segment_path(system.mesh(), sp));
  }
}

}  // namespace
}  // namespace oblivious
