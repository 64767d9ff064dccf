#include <gtest/gtest.h>

#include "fault/fault_model.hpp"
#include "routing/registry.hpp"
#include "simulator/online.hpp"

namespace oblivious {
namespace {

TEST(BernoulliArrivals, RateZeroInjectsNothing) {
  const Mesh mesh({8, 8});
  Rng rng(1);
  const OnlineWorkload w =
      bernoulli_arrivals(mesh, 0.0, 50, TrafficPattern::kUniform, rng);
  EXPECT_TRUE(w.packets.empty());
  EXPECT_EQ(w.horizon, 50);
}

TEST(BernoulliArrivals, RateMatchesExpectation) {
  const Mesh mesh({8, 8});
  Rng rng(2);
  const std::int64_t horizon = 200;
  const double rate = 0.1;
  const OnlineWorkload w =
      bernoulli_arrivals(mesh, rate, horizon, TrafficPattern::kUniform, rng);
  const double expected =
      rate * static_cast<double>(mesh.num_nodes()) * static_cast<double>(horizon);
  EXPECT_NEAR(static_cast<double>(w.packets.size()), expected,
              5.0 * std::sqrt(expected));
}

TEST(BernoulliArrivals, PacketsAreSortedAndValid) {
  const Mesh mesh({8, 8});
  Rng rng(3);
  const OnlineWorkload w =
      bernoulli_arrivals(mesh, 0.2, 30, TrafficPattern::kUniform, rng);
  std::int64_t prev = 0;
  for (const TimedDemand& p : w.packets) {
    EXPECT_GE(p.inject_step, prev);
    prev = p.inject_step;
    EXPECT_NE(p.src, p.dst);
    EXPECT_GE(p.src, 0);
    EXPECT_LT(p.dst, mesh.num_nodes());
  }
}

TEST(BernoulliArrivals, LocalPatternHasBoundedDistance) {
  const Mesh mesh({16, 16});
  Rng rng(4);
  const OnlineWorkload w = bernoulli_arrivals(
      mesh, 0.2, 20, TrafficPattern::kLocal, rng, /*local_distance=*/4);
  ASSERT_FALSE(w.packets.empty());
  for (const TimedDemand& p : w.packets) {
    EXPECT_LE(mesh.distance(p.src, p.dst), 4);
    EXPECT_GE(mesh.distance(p.src, p.dst), 1);
  }
}

TEST(BernoulliArrivals, TransposePatternSwapsCoordinates) {
  const Mesh mesh({8, 8});
  Rng rng(5);
  const OnlineWorkload w =
      bernoulli_arrivals(mesh, 0.3, 10, TrafficPattern::kTranspose, rng);
  ASSERT_FALSE(w.packets.empty());
  for (const TimedDemand& p : w.packets) {
    const Coord cs = mesh.coord(p.src);
    const Coord ct = mesh.coord(p.dst);
    EXPECT_EQ(cs[0], ct[1]);
    EXPECT_EQ(cs[1], ct[0]);
  }
}

TEST(OnlineSimulation, LowLoadDeliversEverything) {
  const Mesh mesh({16, 16});
  const auto router = make_router(Algorithm::kHierarchical2d, mesh);
  Rng rng(6);
  const OnlineWorkload w =
      bernoulli_arrivals(mesh, 0.02, 60, TrafficPattern::kLocal, rng);
  const OnlineResult r = simulate_online(mesh, *router, w);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.delivered, r.injected);
  EXPECT_EQ(r.latency.count(), static_cast<std::uint64_t>(r.injected));
  EXPECT_GT(r.throughput(), 0.0);
}

TEST(OnlineSimulation, LatencyAtLeastDistance) {
  const Mesh mesh({16, 16});
  const auto router = make_router(Algorithm::kEcube, mesh);
  Rng rng(7);
  const OnlineWorkload w =
      bernoulli_arrivals(mesh, 0.01, 40, TrafficPattern::kLocal, rng, 6);
  const OnlineResult r = simulate_online(mesh, *router, w);
  EXPECT_TRUE(r.completed);
  // e-cube paths are shortest; at near-zero load packets rarely queue, so
  // the minimum latency equals the minimum distance (>= 1).
  EXPECT_GE(r.latency.min(), 1.0);
}

TEST(OnlineSimulation, SingleInjectedPacketLatencyIsPathLength) {
  const Mesh mesh({8, 8});
  const auto router = make_router(Algorithm::kEcube, mesh);
  OnlineWorkload w;
  w.horizon = 5;
  w.packets = {{0, 7, 2}};  // inject at step 2, distance 7 along a row
  const OnlineResult r = simulate_online(mesh, *router, w);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.delivered, 1);
  EXPECT_DOUBLE_EQ(r.latency.mean(), 7.0);
  EXPECT_EQ(r.last_delivery, 2 + 7);
}

TEST(OnlineSimulation, OverloadIsDetectedAsSaturation) {
  const Mesh mesh({8, 8});
  const auto router = make_router(Algorithm::kValiant, mesh);
  Rng rng(8);
  const OnlineWorkload w =
      bernoulli_arrivals(mesh, 0.9, 100, TrafficPattern::kUniform, rng);
  OnlineOptions options;
  options.max_steps = 150;
  options.saturation_queue_per_node = 4;
  const OnlineResult r = simulate_online(mesh, *router, w, options);
  EXPECT_FALSE(r.completed);
  EXPECT_LT(r.delivered, r.injected);
}

TEST(OnlineSimulation, DeterministicPerSeed) {
  const Mesh mesh({8, 8});
  const auto router = make_router(Algorithm::kHierarchicalNd, mesh);
  Rng rng_a(9);
  const OnlineWorkload w =
      bernoulli_arrivals(mesh, 0.05, 50, TrafficPattern::kUniform, rng_a);
  OnlineOptions options;
  options.seed = 3;
  const OnlineResult a = simulate_online(mesh, *router, w, options);
  const OnlineResult b = simulate_online(mesh, *router, w, options);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.max_node_queue, b.max_node_queue);
}

TEST(OnlineSimulation, QueueOccupancyTracked) {
  const Mesh mesh({8, 8});
  const auto router = make_router(Algorithm::kEcube, mesh);
  // Three packets from the same node at the same step: the source queue
  // holds all three (they share the first edge).
  OnlineWorkload w;
  w.horizon = 1;
  w.packets = {{0, 3, 0}, {0, 3, 0}, {0, 3, 0}};
  const OnlineResult r = simulate_online(mesh, *router, w);
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.max_node_queue, 3);
}

TEST(OnlineSimulation, PoliciesAllComplete) {
  const Mesh mesh({16, 16});
  const auto router = make_router(Algorithm::kHierarchical2d, mesh);
  Rng rng(10);
  const OnlineWorkload w =
      bernoulli_arrivals(mesh, 0.03, 60, TrafficPattern::kUniform, rng);
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kFifo, SchedulingPolicy::kFurthestToGo,
        SchedulingPolicy::kRandomRank}) {
    OnlineOptions options;
    options.policy = policy;
    const OnlineResult r = simulate_online(mesh, *router, w, options);
    EXPECT_TRUE(r.completed) << policy_name(policy);
  }
}

// Routes 0 -> 1 on a line over 0, 1, 2, 1, passing the destination before
// the path ends; any other pair goes straight.
class DetourRouter final : public Router {
 public:
  using Router::Router;
  void route_segments_into(NodeId s, NodeId t, Rng& /*rng*/,
                           RouteScratch& /*scratch*/,
                           SegmentPath& out) const override {
    Path p;
    if (s == 0 && t == 1) {
      p.nodes = {0, 1, 2, 1};
    } else {
      for (NodeId u = s; u != t; u += (t > u ? 1 : -1)) p.nodes.push_back(u);
      p.nodes.push_back(t);
    }
    out = segments_from_path(mesh(), p);
  }
  std::string name() const override { return "detour"; }
};

TEST(OnlineSimulation, RerouteAtDestinationDelivers) {
  // Find a fault schedule in which the detour is clean at injection and
  // on its first hop, and link 1-2 is down when the packet reaches node 1
  // at step 1: the packet sits at its destination when its next link dies.
  const Mesh mesh({8});
  const EdgeId first = mesh.edge_between(0, 1);
  const EdgeId second = mesh.edge_between(1, 2);
  FaultConfig config;
  config.edge_fail_prob = 0.3;
  config.edge_repair_prob = 0.3;
  config.horizon = 16;
  bool found = false;
  for (config.seed = 1; config.seed < 5000 && !found; ++config.seed) {
    const FaultModel f(mesh, config);
    found = !f.edge_failed(first, 0) && !f.edge_failed(second, 0) &&
            !f.edge_failed(first, 1) && f.edge_failed(second, 2);
  }
  ASSERT_TRUE(found);
  --config.seed;
  const FaultModel faults(mesh, config);
  const DetourRouter router(mesh);
  OnlineWorkload w;
  w.horizon = 1;
  w.packets = {{0, 1, 0}};
  OnlineOptions options;
  options.faults = &faults;
  const OnlineResult r = simulate_online(mesh, router, w, options);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.delivered, 1);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_EQ(r.last_delivery, 2);
}

}  // namespace
}  // namespace oblivious
