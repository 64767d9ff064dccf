#include <gtest/gtest.h>

#include "fault/fault_model.hpp"
#include "routing/registry.hpp"
#include "simulator/cut_through.hpp"
#include "test_support.hpp"

namespace oblivious {
namespace {

Path make_path(std::initializer_list<NodeId> nodes) {
  Path p;
  p.nodes.assign(nodes);
  return p;
}

TEST(CutThrough, UncontendedPacketPipelines) {
  // dist + F - 1, not dist * F.
  const Mesh m({8, 8});
  CutThroughOptions options;
  options.flits_per_packet = 4;
  const CutThroughResult r =
      simulate_cut_through(m, {make_path({0, 1, 2, 3, 4, 5})}, options);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.makespan, 5 + 4 - 1);
}

TEST(CutThrough, SingleFlitMatchesStoreAndForward) {
  const Mesh m({8, 8});
  const auto router = make_router(Algorithm::kHierarchical2d, m);
  Rng rng(3);
  std::vector<Path> paths;
  for (const auto& [s, t] : testing::sample_pairs(m, 80, 7)) {
    paths.push_back(router->route(s, t, rng));
  }
  CutThroughOptions ct_options;
  ct_options.flits_per_packet = 1;
  const CutThroughResult ct = simulate_cut_through(m, paths, ct_options);
  const SimulationResult sf = simulate(m, paths);
  EXPECT_TRUE(ct.completed);
  EXPECT_EQ(ct.makespan, sf.makespan);
}

TEST(CutThrough, SharedLinkSerializesFlitTrains) {
  // Two packets over edge (1,2), F = 3: the link is busy 6 steps.
  const Mesh m({4, 4});
  CutThroughOptions options;
  options.flits_per_packet = 3;
  const CutThroughResult r =
      simulate_cut_through(m, {make_path({1, 2}), make_path({1, 2})}, options);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.makespan, 6);  // second train starts at step 4, tail at 6
}

TEST(CutThrough, MakespanRespectsBothBounds) {
  const Mesh m({8, 8});
  const auto router = make_router(Algorithm::kValiant, m);
  Rng rng(5);
  std::vector<Path> paths;
  for (const auto& [s, t] : testing::sample_pairs(m, 100, 9)) {
    paths.push_back(router->route(s, t, rng));
  }
  for (const std::int64_t flits : {1, 2, 8}) {
    CutThroughOptions options;
    options.flits_per_packet = flits;
    const CutThroughResult r = simulate_cut_through(m, paths, options);
    EXPECT_TRUE(r.completed);
    EXPECT_GE(r.makespan, r.congestion * flits);      // hottest link work
    EXPECT_GE(r.makespan, r.dilation + flits - 1);    // pipelined distance
    EXPECT_GE(r.optimality_ratio(), 1.0);
    EXPECT_LE(r.optimality_ratio(), 4.0);             // schedules stay tight
  }
}

TEST(CutThrough, TrivialPacketDrainsItsFlitsLocally) {
  const Mesh m({4, 4});
  CutThroughOptions options;
  options.flits_per_packet = 5;
  const CutThroughResult r = simulate_cut_through(m, {make_path({3})}, options);
  EXPECT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.latency.mean(), 4.0);
  EXPECT_EQ(r.makespan, 0);  // nothing crossed a link
}

TEST(CutThrough, FullDuplexPassesOpposingTrains) {
  const Mesh m({4, 4});
  CutThroughOptions options;
  options.flits_per_packet = 3;
  options.full_duplex = true;
  const CutThroughResult r =
      simulate_cut_through(m, {make_path({1, 2}), make_path({2, 1})}, options);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.makespan, 3);  // both trains stream simultaneously
}

TEST(CutThrough, RejectsZeroFlits) {
  const Mesh m({4, 4});
  CutThroughOptions options;
  options.flits_per_packet = 0;
  EXPECT_THROW(simulate_cut_through(m, {make_path({0, 1})}, options),
               std::invalid_argument);
}

TEST(CutThrough, LargerPacketsNeverFinishFaster) {
  const Mesh m({8, 8});
  const auto router = make_router(Algorithm::kEcube, m);
  Rng rng(1);
  std::vector<Path> paths;
  for (const auto& [s, t] : testing::sample_pairs(m, 60, 3)) {
    paths.push_back(router->route(s, t, rng));
  }
  std::int64_t previous = 0;
  for (const std::int64_t flits : {1, 2, 4, 8}) {
    CutThroughOptions options;
    options.flits_per_packet = flits;
    const CutThroughResult r = simulate_cut_through(m, paths, options);
    EXPECT_TRUE(r.completed);
    EXPECT_GE(r.makespan, previous);
    previous = r.makespan;
  }
}

TEST(CutThrough, RerouteAtDestinationDelivers) {
  // The path passes its destination (node 1) before it ends, and the link
  // it takes next is dead: re-routing from the destination to itself has
  // nothing left to cover, so the packet is delivered there.
  const Mesh m({8});
  FaultConfig config;
  config.failed_edges = {m.edge_between(1, 2)};
  const FaultModel faults(m, config);
  const auto router = make_router(Algorithm::kEcube, m);
  CutThroughOptions options;
  options.flits_per_packet = 2;
  options.faults = &faults;
  options.reroute_router = router.get();
  const CutThroughResult r =
      simulate_cut_through(m, {make_path({0, 1, 2, 1})}, options);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.delivered, 1);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_EQ(r.makespan, 2 + 2 - 1);  // head stuck at step 2, F = 2
}

}  // namespace
}  // namespace oblivious
