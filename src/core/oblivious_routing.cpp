#include "core/oblivious_routing.hpp"

#include "util/timer.hpp"

namespace oblivious {

ObliviousMeshRouting::ObliviousMeshRouting(Mesh mesh, Algorithm algorithm)
    : mesh_(std::move(mesh)),
      algorithm_(algorithm),
      router_(make_router(algorithm, mesh_)) {}

Path ObliviousMeshRouting::route_one(NodeId s, NodeId t, std::uint64_t seed) const {
  Rng rng(seed);
  return router_->route(s, t, rng);
}

RoutingRun ObliviousMeshRouting::route(const RoutingProblem& problem,
                                       std::uint64_t seed) const {
  RoutingRun run;
  RouteAllOptions options;
  options.seed = seed;
  RunningStats bits;
  WallTimer timer;
  run.paths = route_all(mesh_, *router_, problem, options, &bits);
  const double seconds = timer.elapsed_seconds();
  run.metrics = measure_paths(mesh_, problem, run.paths,
                              best_lower_bound(mesh_, problem));
  run.metrics.algorithm = router_->name();
  run.metrics.bits_per_packet = bits;
  run.metrics.routing_seconds = seconds;
  return run;
}

SegmentRoutingRun ObliviousMeshRouting::route_segments(
    const RoutingProblem& problem, ThreadPool& pool,
    std::uint64_t seed) const {
  SegmentRoutingRun run;
  run.metrics = route_and_measure_parallel(mesh_, *router_, problem,
                                           best_lower_bound(mesh_, problem),
                                           pool, seed, {}, &run.paths);
  return run;
}

SimulationResult ObliviousMeshRouting::deliver(
    const std::vector<Path>& paths, const SimulationOptions& options) const {
  return simulate(mesh_, paths, options);
}

SimulationResult ObliviousMeshRouting::route_and_deliver(
    const RoutingProblem& problem, std::uint64_t seed,
    const SimulationOptions& options) const {
  return deliver(route(problem, seed).paths, options);
}

}  // namespace oblivious
