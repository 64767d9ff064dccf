#include "analysis/degradation.hpp"

#include <algorithm>
#include <memory>

#include "analysis/congestion.hpp"
#include "util/check.hpp"

namespace oblivious {

namespace {

struct SweepCell {
  FaultBatchStats stats;
  double mean_stretch = 0.0;
  std::int64_t congestion = 0;
};

// Routes the problem through one fault model and measures the delivered
// traffic. Dropped packets contribute nothing to stretch or congestion:
// the paths the batch driver leaves for them are draws that crossed a
// failed edge, not traffic the network carried.
SweepCell run_cell(const Mesh& mesh, const Router& router,
                   const RoutingProblem& problem, const FaultModel& model,
                   ThreadPool& pool, const DegradationOptions& options,
                   std::vector<SegmentPath>& paths,
                   std::vector<FaultRouteStatus>& statuses) {
  SweepCell cell;
  const FaultAwareRouter fault_router(router, model, options.retry,
                                      /*query_step=*/0);
  cell.stats = route_batch_with_faults(fault_router, problem.demands, pool,
                                       RouteBatchOptions{options.route_seed},
                                       paths, &statuses);
  const std::unique_ptr<LoadAccountant> loads = LoadAccountant::create(
      mesh, options.accounting.mode, options.accounting.sketch);
  std::int64_t delivered_hops = 0;
  std::int64_t delivered_distance = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (statuses[i] == FaultRouteStatus::kDropped) continue;
    loads->add_segments(paths[i]);
    delivered_hops += paths[i].length();
    delivered_distance +=
        mesh.distance(problem.demands[i].src, problem.demands[i].dst);
  }
  cell.congestion = static_cast<std::int64_t>(loads->max_load());
  if (delivered_distance > 0) {
    cell.mean_stretch =
        static_cast<double>(delivered_hops + cell.stats.backoff_steps) /
        static_cast<double>(delivered_distance);
  }
  return cell;
}

}  // namespace

std::vector<DegradationPoint> degradation_sweep(
    const Mesh& mesh, const Router& router, const RoutingProblem& problem,
    std::span<const double> fault_rates, ThreadPool& pool,
    const DegradationOptions& options) {
  OBLV_REQUIRE(&router.mesh() == &mesh,
               "degradation sweep needs the router's own mesh");
  for (const double rate : fault_rates) {
    OBLV_REQUIRE(rate >= 0.0 && rate <= 1.0,
                 "fault rates must be probabilities in [0, 1]");
  }

  // Fault-free baseline anchors added_stretch and congestion_inflation.
  std::vector<SegmentPath> paths;
  std::vector<FaultRouteStatus> statuses;
  FaultConfig baseline_config;
  baseline_config.seed = options.fault_seed;
  const FaultModel baseline_model(mesh, baseline_config);
  const SweepCell baseline = run_cell(mesh, router, problem, baseline_model,
                                      pool, options, paths, statuses);

  std::vector<DegradationPoint> curve;
  curve.reserve(fault_rates.size());
  for (const double rate : fault_rates) {
    FaultConfig config;
    config.edge_fail_prob = rate;
    config.edge_repair_prob = options.repair_prob;
    config.horizon = options.horizon;
    config.seed = options.fault_seed;
    const FaultModel model(mesh, config);
    const SweepCell cell = rate == 0.0
                               ? baseline
                               : run_cell(mesh, router, problem, model, pool,
                                          options, paths, statuses);

    DegradationPoint point;
    point.algorithm = router.name();
    point.fault_rate = rate;
    point.failures_injected = model.failures_injected();
    point.demands = cell.stats.demands;
    point.delivered = cell.stats.delivered;
    point.dropped = cell.stats.dropped;
    point.retried = cell.stats.retried;
    point.detoured = cell.stats.detoured;
    point.attempts = cell.stats.attempts;
    point.backoff_steps = cell.stats.backoff_steps;
    OBLV_CHECK(point.delivered + point.dropped == point.demands,
               "degradation accounting: delivered + dropped must equal "
               "the demand count");
    point.delivery_rate =
        point.demands > 0 ? static_cast<double>(point.delivered) /
                                static_cast<double>(point.demands)
                          : 1.0;
    point.mean_stretch = cell.mean_stretch;
    point.added_stretch = cell.mean_stretch - baseline.mean_stretch;
    point.congestion = cell.congestion;
    point.congestion_inflation =
        static_cast<double>(cell.congestion) /
        static_cast<double>(std::max<std::int64_t>(baseline.congestion, 1));
    curve.push_back(point);
  }
  return curve;
}

}  // namespace oblivious
