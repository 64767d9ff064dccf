// Fault subsystem: schedule determinism, recovery policy, accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fault/fault_batch.hpp"
#include "fault/fault_model.hpp"
#include "fault/fault_router.hpp"
#include "mesh/mesh.hpp"
#include "mesh/path.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/registry.hpp"
#include "routing/route_scratch.hpp"
#include "simulator/cut_through.hpp"
#include "simulator/online.hpp"
#include "workloads/generators.hpp"

namespace oblivious {
namespace {

FaultConfig dynamic_config(double rate, std::int64_t horizon,
                           std::uint64_t seed) {
  FaultConfig config;
  config.edge_fail_prob = rate;
  config.horizon = horizon;
  config.seed = seed;
  return config;
}

// All edges of row `y` (dimension-0 edges between (x,y) and (x+1,y)),
// severing horizontal movement along that row.
std::vector<EdgeId> row_edges(const Mesh& mesh, std::int64_t y) {
  std::vector<EdgeId> edges;
  for (std::int64_t x = 0; x + 1 < mesh.side(0); ++x) {
    edges.push_back(mesh.edge_id({x, y}, 0));
  }
  return edges;
}

TEST(FaultModel, FaultFreeShortCircuits) {
  const Mesh mesh({8, 8});
  const FaultModel model(mesh, FaultConfig{});
  EXPECT_TRUE(model.fault_free());
  EXPECT_EQ(model.failures_injected(), 0);
  for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
    EXPECT_FALSE(model.edge_failed(e, 0));
  }
  EXPECT_EQ(wrap_if_faulty(*make_router(Algorithm::kEcube, mesh), model),
            nullptr);
}

TEST(FaultModel, ScheduleIsQueryOrderIndependent) {
  const Mesh mesh({8, 8});
  const FaultModel model(mesh, dynamic_config(0.05, 64, 11));
  // Forward sweep vs reverse sweep vs interval reconstruction: three
  // access orders, one schedule.
  for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
    std::vector<bool> forward;
    for (std::int64_t s = 0; s < 64; ++s) {
      forward.push_back(model.edge_failed(e, s));
    }
    for (std::int64_t s = 63; s >= 0; --s) {
      EXPECT_EQ(model.edge_failed(e, s), forward[static_cast<std::size_t>(s)]);
    }
    std::vector<bool> from_intervals(64, false);
    for (const auto& [start, end] : model.intervals(e)) {
      ASSERT_LT(start, end);
      ASSERT_GE(start, 0);
      ASSERT_LE(end, 64);
      for (std::int64_t s = start; s < end; ++s) {
        from_intervals[static_cast<std::size_t>(s)] = true;
      }
    }
    for (std::int64_t s = 0; s < 64; ++s) {
      EXPECT_EQ(forward[static_cast<std::size_t>(s)],
                from_intervals[static_cast<std::size_t>(s)]);
    }
  }
}

TEST(FaultModel, IdenticalSeedsIdenticalSchedules) {
  const Mesh mesh({6, 6});
  const FaultModel a(mesh, dynamic_config(0.1, 32, 5));
  const FaultModel b(mesh, dynamic_config(0.1, 32, 5));
  const FaultModel other(mesh, dynamic_config(0.1, 32, 6));
  EXPECT_EQ(a.failures_injected(), b.failures_injected());
  bool any_difference = false;
  for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
    EXPECT_EQ(a.intervals(e), b.intervals(e));
    if (a.intervals(e) != other.intervals(e)) any_difference = true;
  }
  EXPECT_TRUE(any_difference);  // the seed actually reaches the schedule
}

TEST(FaultModel, FailedNodeKillsIncidentEdges) {
  const Mesh mesh({8, 8});
  FaultConfig config;
  const NodeId center = mesh.node_id({4, 4});
  config.failed_nodes = {center};
  const FaultModel model(mesh, config);
  EXPECT_TRUE(model.node_failed(center));
  EXPECT_FALSE(model.node_failed(mesh.node_id({0, 0})));
  for (int d = 0; d < mesh.dim(); ++d) {
    for (int dir : {-1, +1}) {
      const NodeId nb = mesh.step(center, d, dir);
      ASSERT_NE(nb, kInvalidNode);
      EXPECT_TRUE(model.edge_failed(mesh.edge_between(center, nb)));
    }
  }
  EXPECT_EQ(model.static_failed_edges(), 4);
}

TEST(FaultModel, ContractsRejectBadConfig) {
  const Mesh mesh({4, 4});
  EXPECT_THROW(FaultModel(mesh, dynamic_config(1.5, 8, 1)),
               std::invalid_argument);
  EXPECT_THROW(FaultModel(mesh, dynamic_config(-0.1, 8, 1)),
               std::invalid_argument);
  FaultConfig bad_edge;
  bad_edge.failed_edges = {mesh.num_edges()};
  EXPECT_THROW(FaultModel(mesh, bad_edge), std::invalid_argument);
  FaultConfig bad_node;
  bad_node.failed_nodes = {mesh.num_nodes()};
  EXPECT_THROW(FaultModel(mesh, bad_node), std::invalid_argument);
  const FaultModel model(mesh, FaultConfig{});
  const auto router = make_router(Algorithm::kEcube, mesh);
  RetryPolicy no_attempts;
  no_attempts.max_attempts = 0;
  EXPECT_THROW(FaultAwareRouter(*router, model, no_attempts),
               std::invalid_argument);
  const Mesh other({6, 6});
  const FaultModel other_model(other, FaultConfig{});
  EXPECT_THROW(FaultAwareRouter(*router, other_model), std::invalid_argument);
}

TEST(FaultRouter, RateZeroIsDrawForDrawIdentical) {
  const Mesh mesh({16, 16});
  const FaultModel model(mesh, FaultConfig{});
  for (const Algorithm a : algorithms_for(mesh)) {
    const auto inner = make_router(a, mesh);
    const FaultAwareRouter wrapped(*inner, model);
    RouteScratch scratch;
    for (std::size_t i = 0; i < 64; ++i) {
      Rng plain_rng = packet_rng(3, i);
      Rng fault_rng = packet_rng(3, i);
      const NodeId s = static_cast<NodeId>((i * 37) % 256);
      const NodeId t = static_cast<NodeId>((i * 101 + 13) % 256);
      Path plain;
      inner->route_into(s, t, plain_rng, scratch, plain);
      const Path kept = plain;  // route_into may alias scratch.path
      Path under_faults;
      const FaultRouteOutcome outcome =
          wrapped.route_with_faults(s, t, fault_rng, scratch, under_faults);
      EXPECT_EQ(outcome.status, FaultRouteStatus::kClean) << inner->name();
      EXPECT_EQ(kept.nodes, under_faults.nodes) << inner->name();
      // The decorator consumed exactly the same random bits.
      EXPECT_EQ(plain_rng.bits(32), fault_rng.bits(32)) << inner->name();
    }
  }
}

TEST(FaultRouter, RetryRecoversAroundStaticFailures) {
  const Mesh mesh({16, 16});
  FaultConfig config;
  // A scattering of dead links ecube's fixed path will sometimes cross;
  // a randomized router re-draws around them.
  for (std::int64_t x = 0; x < 15; x += 2) {
    config.failed_edges.push_back(mesh.edge_id({x, 7}, 0));
  }
  const FaultModel model(mesh, config);
  const auto inner = make_router(Algorithm::kValiant, mesh);
  const FaultAwareRouter wrapped(*inner, model);
  RouteScratch scratch;
  int recovered = 0;
  for (std::size_t i = 0; i < 256; ++i) {
    Rng rng = packet_rng(9, i);
    const NodeId s = static_cast<NodeId>(i);
    const NodeId t = static_cast<NodeId>(255 - i);
    if (s == t) continue;
    Path out;
    const FaultRouteOutcome outcome =
        wrapped.route_with_faults(s, t, rng, scratch, out);
    ASSERT_TRUE(outcome.delivered());
    EXPECT_TRUE(is_valid_path(mesh, out));
    EXPECT_EQ(out.source(), s);
    EXPECT_EQ(out.destination(), t);
    EXPECT_FALSE(model.path_failed(out));
    if (outcome.status != FaultRouteStatus::kClean) ++recovered;
  }
  EXPECT_GT(recovered, 0);  // the dead links were actually in the way
}

TEST(FaultRouter, DetourCrossesSeveredRow) {
  const Mesh mesh({16, 16});
  FaultConfig config;
  // Kill every horizontal edge of row 8 except the rightmost: ecube's
  // x-then-y path from (0,8) to (15,8) is dead on the first hop and every
  // re-draw repeats it, so only the greedy detour can deliver.
  config.failed_edges = row_edges(mesh, 8);
  config.failed_edges.pop_back();  // leave (14,8)-(15,8) alive
  const FaultModel model(mesh, config);
  const auto inner = make_router(Algorithm::kEcube, mesh);
  const FaultAwareRouter wrapped(*inner, model);
  RouteScratch scratch;
  Rng rng(4);
  Path out;
  const NodeId s = mesh.node_id({0, 8});
  const NodeId t = mesh.node_id({15, 8});
  const FaultRouteOutcome outcome =
      wrapped.route_with_faults(s, t, rng, scratch, out);
  EXPECT_EQ(outcome.status, FaultRouteStatus::kDetoured);
  ASSERT_TRUE(is_valid_path(mesh, out));
  EXPECT_EQ(out.source(), s);
  EXPECT_EQ(out.destination(), t);
  EXPECT_FALSE(model.path_failed(out));
}

TEST(FaultRouter, ExhaustedBudgetIsCountedDrop) {
  const Mesh mesh({8, 8});
  FaultConfig config;
  // Island the destination: no alive path exists, so retries and the
  // detour must both fail and the packet must come back counted.
  const NodeId t = mesh.node_id({7, 7});
  config.failed_nodes = {t};
  const FaultModel model(mesh, config);
  const auto inner = make_router(Algorithm::kEcube, mesh);
  const FaultAwareRouter wrapped(*inner, model);
  RouteScratch scratch;
  Rng rng(1);
  Path out;
  const FaultRouteOutcome outcome =
      wrapped.route_with_faults(0, t, rng, scratch, out);
  EXPECT_EQ(outcome.status, FaultRouteStatus::kDropped);
  EXPECT_FALSE(outcome.delivered());
  // Router postcondition still holds: `out` is a real s -> t mesh path
  // (it just crosses dead links).
  EXPECT_TRUE(is_valid_path(mesh, out));
  EXPECT_EQ(out.destination(), t);
  EXPECT_TRUE(model.path_failed(out));
}

TEST(FaultBatchParallel, BitIdenticalAcrossThreadCountsAndChunks) {
  const Mesh mesh({16, 16});
  Rng wrng(2);
  const RoutingProblem problem = random_permutation(mesh, wrng);
  const FaultModel model(mesh, dynamic_config(0.02, 1, 17));
  const auto inner = make_router(Algorithm::kValiant, mesh);
  const FaultAwareRouter wrapped(*inner, model);

  std::vector<SegmentPath> reference;
  std::vector<FaultRouteStatus> reference_statuses;
  FaultBatchStats reference_stats;
  {
    ThreadPool pool(1);
    reference_stats = route_batch_with_faults(
        wrapped, std::span<const Demand>(problem.demands), pool,
        RouteBatchOptions{}, reference, &reference_statuses);
  }
  EXPECT_EQ(reference_stats.demands,
            static_cast<std::int64_t>(problem.size()));
  EXPECT_EQ(reference_stats.delivered + reference_stats.dropped,
            reference_stats.demands);
  EXPECT_GT(reference_stats.retried + reference_stats.detoured +
                reference_stats.dropped,
            0);  // the schedule actually bit

  // The chunk size follows the thread count, so the sweep varies both.
  for (const std::size_t threads : {2U, 8U}) {
    ThreadPool pool(threads);
    std::vector<SegmentPath> out;
    std::vector<FaultRouteStatus> statuses;
    const FaultBatchStats stats = route_batch_with_faults(
        wrapped, std::span<const Demand>(problem.demands), pool,
        RouteBatchOptions{}, out, &statuses);
    EXPECT_EQ(stats.delivered, reference_stats.delivered);
    EXPECT_EQ(stats.dropped, reference_stats.dropped);
    EXPECT_EQ(stats.attempts, reference_stats.attempts);
    EXPECT_EQ(stats.backoff_steps, reference_stats.backoff_steps);
    ASSERT_EQ(out.size(), reference.size());
    EXPECT_EQ(statuses, reference_statuses);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].segments, reference[i].segments) << "packet " << i;
    }
  }
}

// Absolute pins of route_batch_with_faults, recorded before it moved onto
// route_batch's drain loop: the recovery tally plus a hash of every path
// and status, on 1 and 4 threads. Never regenerate these.
TEST(FaultBatchParallel, PinnedStatsPathsAndStatuses) {
  const Mesh mesh({16, 16});
  Rng wrng(2);
  const RoutingProblem problem = random_permutation(mesh, wrng);
  const FaultModel model(mesh, dynamic_config(0.05, 1, 29));
  const auto inner = make_router(Algorithm::kHierarchical2d, mesh);
  const FaultAwareRouter wrapped(*inner, model);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    RouteBatchOptions options;
    options.seed = 7;
    std::vector<SegmentPath> out;
    std::vector<FaultRouteStatus> statuses;
    const FaultBatchStats stats = route_batch_with_faults(
        wrapped, std::span<const Demand>(problem.demands), pool, options, out,
        &statuses);
    std::uint64_t hash = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      hash = splitmix64(hash ^ static_cast<std::uint64_t>(statuses[i]));
      hash = splitmix64(hash ^ static_cast<std::uint64_t>(out[i].source));
      for (const Segment& seg : out[i].segments) {
        hash = splitmix64(hash ^ static_cast<std::uint64_t>(seg.dim));
        hash = splitmix64(hash ^ static_cast<std::uint64_t>(seg.run));
      }
    }
    EXPECT_EQ(stats.demands, 256) << threads;
    EXPECT_EQ(stats.delivered, 195) << threads;
    EXPECT_EQ(stats.dropped, 61) << threads;
    EXPECT_EQ(stats.clean, 21) << threads;
    EXPECT_EQ(stats.retried, 16) << threads;
    EXPECT_EQ(stats.detoured, 158) << threads;
    EXPECT_EQ(stats.attempts, 935) << threads;
    EXPECT_EQ(stats.backoff_steps, 1561) << threads;
    EXPECT_EQ(hash, 0x207895aeee3b1c5bULL) << threads;
  }
}

TEST(FaultOnline, AccountingHoldsUnderDynamicFaults) {
  const Mesh mesh({8, 8});
  Rng wrng(6);
  const OnlineWorkload workload =
      bernoulli_arrivals(mesh, 0.05, 40, TrafficPattern::kUniform, wrng);
  const auto router = make_router(Algorithm::kRandomDimOrder, mesh);
  const FaultModel model(mesh, dynamic_config(0.01, 4096, 23));
  OnlineOptions options;
  options.faults = &model;
  options.retry.max_attempts = 3;
  const OnlineResult faulty = simulate_online(mesh, *router, workload, options);
  ASSERT_TRUE(faulty.completed);
  EXPECT_EQ(faulty.delivered + faulty.dropped, faulty.injected);
  EXPECT_EQ(faulty.injected,
            static_cast<std::int64_t>(workload.packets.size()));
}

TEST(FaultOnline, NullAndFaultFreeModelsMatchBaseline) {
  const Mesh mesh({8, 8});
  Rng wrng(8);
  const OnlineWorkload workload =
      bernoulli_arrivals(mesh, 0.1, 30, TrafficPattern::kUniform, wrng);
  const auto router = make_router(Algorithm::kHierarchical2d, mesh);
  const OnlineResult baseline = simulate_online(mesh, *router, workload);
  const FaultModel inert(mesh, FaultConfig{});
  OnlineOptions options;
  options.faults = &inert;
  const OnlineResult with_model =
      simulate_online(mesh, *router, workload, options);
  EXPECT_EQ(with_model.delivered, baseline.delivered);
  EXPECT_EQ(with_model.dropped, 0);
  EXPECT_EQ(with_model.last_delivery, baseline.last_delivery);
  EXPECT_EQ(with_model.latency.mean(), baseline.latency.mean());
}

TEST(FaultCutThrough, ReroutesOrDropsEveryStuckPacket) {
  const Mesh mesh({8, 8});
  const auto router = make_router(Algorithm::kRandomDimOrder, mesh);
  Rng rng(5);
  std::vector<Path> paths;
  for (NodeId s = 0; s < mesh.num_nodes(); ++s) {
    const NodeId t = static_cast<NodeId>(mesh.num_nodes() - 1 - s);
    if (s == t) continue;
    paths.push_back(router->route(s, t, rng));
  }
  const FaultModel model(mesh, dynamic_config(0.01, 4096, 31));
  CutThroughOptions options;
  options.faults = &model;
  options.reroute_router = router.get();
  options.retry.max_attempts = 3;
  const CutThroughResult r = simulate_cut_through(mesh, paths, options);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.injected, static_cast<std::int64_t>(paths.size()));
  EXPECT_EQ(r.delivered + r.dropped, r.injected);
}

}  // namespace
}  // namespace oblivious
