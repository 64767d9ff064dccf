#include "analysis/evaluate.hpp"

#include <algorithm>
#include <memory>

#include "analysis/congestion.hpp"
#include "analysis/sketch/stream_account.hpp"
#include "obs/metrics.hpp"
#include "parallel/route_batch.hpp"
#include "util/check.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace oblivious {

void route_all_segments_into(const Mesh& mesh, const Router& router,
                             const RoutingProblem& problem,
                             const RouteAllOptions& options,
                             RouteScratch& scratch,
                             std::vector<SegmentPath>& paths,
                             RunningStats* bits_per_packet) {
  require_mesh_endpoints(mesh, problem.demands);
  Rng rng(options.seed);
  BitMeter meter;
  if (options.meter_bits) rng.attach_meter(&meter);
  const bool obs_on = obs::metrics_enabled();
  WallTimer timer;
  IntHistogram path_lengths;
  paths.resize(problem.size());
  for (std::size_t i = 0; i < problem.demands.size(); ++i) {
    const Demand& demand = problem.demands[i];
    const std::uint64_t bits_before = meter.bits;
    router.route_segments_into(demand.src, demand.dst, rng, scratch, paths[i]);
    OBLV_CHECK(paths[i].source == demand.src &&
                   paths[i].destination() == demand.dst,
               "router returned a path with wrong endpoints");
    if (options.erase_cycles) {
      // Loop erasure needs the node sequence; round-trip through it.
      paths[i] = segments_from_path(
          mesh, remove_cycles(path_from_segments(mesh, paths[i])));
    }
    if (bits_per_packet != nullptr && options.meter_bits) {
      bits_per_packet->add(static_cast<double>(meter.bits - bits_before));
    }
    if (obs_on && path_length_sampled(i)) {
      path_lengths.add(paths[i].length(), kPathLengthSampleStride);
    }
  }
  if (obs_on) {
    OBLV_STAT_RECORD("routing.route_seconds", timer.elapsed_seconds());
    OBLV_COUNTER_ADD("routing.packets", problem.size());
    OBLV_HISTOGRAM_MERGE("routing.path_length", path_lengths);
    if (options.meter_bits) {
      OBLV_COUNTER_ADD("routing.rng_bits", meter.bits);
      OBLV_COUNTER_ADD("routing.rng_draws", meter.draws);
    }
  }
}

std::vector<SegmentPath> route_all_segments(const Mesh& mesh,
                                            const Router& router,
                                            const RoutingProblem& problem,
                                            const RouteAllOptions& options,
                                            RunningStats* bits_per_packet) {
  RouteScratch scratch;
  std::vector<SegmentPath> paths;
  route_all_segments_into(mesh, router, problem, options, scratch, paths,
                          bits_per_packet);
  return paths;
}

std::vector<Path> route_all(const Mesh& mesh, const Router& router,
                            const RoutingProblem& problem,
                            const RouteAllOptions& options,
                            RunningStats* bits_per_packet) {
  const std::vector<SegmentPath> segment_paths =
      route_all_segments(mesh, router, problem, options, bits_per_packet);
  std::vector<Path> paths(segment_paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    path_from_segments_into(mesh, segment_paths[i], paths[i]);
  }
  return paths;
}

// Publishes the quality gauges of a finished measurement pass.
static void record_quality_gauges(const RouteSetMetrics& m) {
  OBLV_GAUGE_SET("routing.congestion", m.congestion);
  OBLV_GAUGE_SET("routing.dilation", m.dilation);
  OBLV_GAUGE_SET("routing.max_stretch", m.max_stretch);
  OBLV_GAUGE_SET("routing.mean_stretch", m.mean_stretch);
  OBLV_GAUGE_SET("routing.congestion_ratio", m.congestion_ratio);
  OBLV_GAUGE_SET("routing.lower_bound", m.lower_bound);
}

RouteSetMetrics path_set_metrics(const Mesh& mesh,
                                 const RoutingProblem& problem,
                                 const std::vector<SegmentPath>& paths,
                                 std::int64_t congestion, double lower_bound) {
  OBLV_REQUIRE(paths.size() == problem.size(), "one path per demand required");
  RouteSetMetrics m;
  m.packets = paths.size();
  m.max_distance = problem.max_distance(mesh);
  m.lower_bound = lower_bound;
  m.congestion = congestion;
  const bool obs_on = obs::metrics_enabled();
  RunningStats stretch;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    m.dilation = std::max(m.dilation, paths[i].length());
    if (problem.demands[i].src != problem.demands[i].dst) {
      const double s = segment_path_stretch(mesh, paths[i]);
      stretch.add(s);
      if (obs_on) OBLV_HISTOGRAM_ADD("routing.stretch", s);
    }
  }
  m.max_stretch = stretch.count() > 0 ? stretch.max() : 1.0;
  m.mean_stretch = stretch.count() > 0 ? stretch.mean() : 1.0;
  m.congestion_ratio = static_cast<double>(m.congestion) /
                       std::max(lower_bound, 1.0);
  return m;
}

RouteSetMetrics measure_paths(const Mesh& mesh, const RoutingProblem& problem,
                              const std::vector<Path>& paths,
                              double lower_bound) {
  OBLV_REQUIRE(paths.size() == problem.size(), "one path per demand required");
  std::vector<SegmentPath> segment_paths(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    segment_paths[i] = segments_from_path(mesh, paths[i]);
  }
  return measure_segment_paths(mesh, problem, segment_paths, lower_bound);
}

RouteSetMetrics measure_segment_paths(const Mesh& mesh,
                                      const RoutingProblem& problem,
                                      const std::vector<SegmentPath>& paths,
                                      double lower_bound) {
  OBLV_REQUIRE(paths.size() == problem.size(), "one path per demand required");
  const std::unique_ptr<LoadAccountant> loads =
      LoadAccountant::create(mesh, AccountingMode::kExact);
  loads->add_segment_paths(paths);
  OBLV_ENSURES(contracts::validate_load_map_consistency(*loads->exact_loads()),
               "segment accounting must agree with the hop count");
  const RouteSetMetrics m = path_set_metrics(
      mesh, problem, paths, static_cast<std::int64_t>(loads->max_load()),
      lower_bound);
  if (obs::metrics_enabled()) {
    loads->record_metrics("loads");
    record_quality_gauges(m);
  }
  return m;
}

RouteSetMetrics route_and_measure_parallel(
    const Mesh& mesh, const Router& router, const RoutingProblem& problem,
    double lower_bound, ThreadPool& pool, std::uint64_t seed,
    const AccountingOptions& accounting,
    std::vector<SegmentPath>* paths_out) {
  require_mesh_endpoints(mesh, problem.demands);
  const std::unique_ptr<LoadAccountant> accountant =
      LoadAccountant::create(mesh, accounting.mode, accounting.sketch);
  std::vector<SegmentPath> paths(problem.size());
  const WallTimer timer;
  route_and_account(router, DemandSource::from_span(problem.demands), pool,
                    StreamAccountOptions{seed}, *accountant, paths);
  const double seconds = timer.elapsed_seconds();
  OBLV_STAT_RECORD("routing.route_seconds", seconds);

  const bool obs_on = obs::metrics_enabled();
  IntHistogram path_lengths;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const Demand& demand = problem.demands[i];
    OBLV_CHECK(paths[i].source == demand.src &&
                   paths[i].destination() == demand.dst,
               "router returned a path with wrong endpoints");
    if (obs_on && path_length_sampled(i)) {
      path_lengths.add(paths[i].length(), kPathLengthSampleStride);
    }
  }
  RouteSetMetrics m = path_set_metrics(
      mesh, problem, paths, static_cast<std::int64_t>(accountant->max_load()),
      lower_bound);
  m.algorithm = router.name();
  m.routing_seconds = seconds;
  m.accounting = accountant->mode();
  m.accounting_bytes = accountant->memory_bytes();
  m.accounting_error_bound = accountant->error_bound();
  if (obs_on) {
    OBLV_COUNTER_ADD("routing.packets", paths.size());
    OBLV_HISTOGRAM_MERGE("routing.path_length", path_lengths);
    accountant->record_metrics("loads");
    record_quality_gauges(m);
  }
  if (paths_out != nullptr) *paths_out = std::move(paths);
  return m;
}

double best_lower_bound(const Mesh& mesh, const RoutingProblem& problem) {
  if (mesh.is_square() && mesh.sides_power_of_two()) {
    const Decomposition decomp = Decomposition::section4(mesh);
    return congestion_lower_bound(mesh, decomp, problem).value();
  }
  return congestion_lower_bound(mesh, problem).value();
}

RouteSetMetrics evaluate_with_bound(const Mesh& mesh, const Router& router,
                                    const RoutingProblem& problem,
                                    double lower_bound,
                                    const RouteAllOptions& options) {
  WallTimer timer;
  RunningStats bits;
  const std::vector<SegmentPath> paths =
      route_all_segments(mesh, router, problem, options, &bits);
  const double seconds = timer.elapsed_seconds();
  RouteSetMetrics m = measure_segment_paths(mesh, problem, paths, lower_bound);
  m.algorithm = router.name();
  m.bits_per_packet = bits;
  m.routing_seconds = seconds;
  return m;
}

RouteSetMetrics evaluate(const Mesh& mesh, const Router& router,
                         const RoutingProblem& problem,
                         const RouteAllOptions& options) {
  return evaluate_with_bound(mesh, router, problem,
                             best_lower_bound(mesh, problem), options);
}

}  // namespace oblivious
