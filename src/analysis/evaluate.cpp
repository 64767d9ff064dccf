#include "analysis/evaluate.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "analysis/congestion.hpp"
#include "obs/metrics.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/contracts.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace oblivious {

std::vector<Path> route_all(const Mesh& mesh, const Router& router,
                            const RoutingProblem& problem,
                            const RouteAllOptions& options,
                            RunningStats* bits_per_packet) {
  Rng rng(options.seed);
  BitMeter meter;
  if (options.meter_bits) rng.attach_meter(&meter);
  const bool obs_on = obs::metrics_enabled();
  WallTimer timer;
  IntHistogram path_lengths;
  RouteScratch scratch;
  std::vector<Path> paths(problem.size());
  for (std::size_t i = 0; i < problem.demands.size(); ++i) {
    const Demand& demand = problem.demands[i];
    OBLV_REQUIRE(demand.src >= 0 && demand.src < mesh.num_nodes() &&
                     demand.dst >= 0 && demand.dst < mesh.num_nodes(),
                 "demand endpoints must be mesh nodes");
    const std::uint64_t bits_before = meter.bits;
    router.route_into(demand.src, demand.dst, rng, scratch, paths[i]);
    OBLV_CHECK(!paths[i].nodes.empty() && paths[i].source() == demand.src &&
                   paths[i].destination() == demand.dst,
               "router returned a path with wrong endpoints");
    if (options.erase_cycles) paths[i] = remove_cycles(std::move(paths[i]));
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
  return paths;
}

void route_all_segments_into(const Mesh& mesh, const Router& router,
                             const RoutingProblem& problem,
                             const RouteAllOptions& options,
                             RouteScratch& scratch,
                             std::vector<SegmentPath>& paths,
                             RunningStats* bits_per_packet) {
  Rng rng(options.seed);
  BitMeter meter;
  if (options.meter_bits) rng.attach_meter(&meter);
  const bool obs_on = obs::metrics_enabled();
  WallTimer timer;
  IntHistogram path_lengths;
  paths.resize(problem.size());
  for (std::size_t i = 0; i < problem.demands.size(); ++i) {
    const Demand& demand = problem.demands[i];
    OBLV_REQUIRE(demand.src >= 0 && demand.src < mesh.num_nodes() &&
                     demand.dst >= 0 && demand.dst < mesh.num_nodes(),
                 "demand endpoints must be mesh nodes");
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

std::vector<Path> route_all_parallel(const Mesh& mesh, const Router& router,
                                     const RoutingProblem& problem,
                                     ThreadPool& pool, std::uint64_t seed) {
  OBLV_REQUIRE(&mesh == &router.mesh(), "problem mesh must be the router's");
  RouteBatchOptions options;
  options.seed = seed;
  std::vector<Path> paths;
  route_batch_paths(router, std::span<const Demand>(problem.demands), pool,
                    options, paths);
  return paths;
}

std::vector<SegmentPath> route_all_segments_parallel(
    const Mesh& mesh, const Router& router, const RoutingProblem& problem,
    ThreadPool& pool, std::uint64_t seed) {
  OBLV_REQUIRE(&mesh == &router.mesh(), "problem mesh must be the router's");
  RouteBatchOptions options;
  options.seed = seed;
  std::vector<SegmentPath> paths;
  route_batch(router, std::span<const Demand>(problem.demands), pool, options,
              paths);
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

// Quality gauges plus the accounting metrics behind them.
static void record_route_set_metrics(const RouteSetMetrics& m,
                                     const EdgeLoadMap& loads) {
  if (!obs::metrics_enabled()) return;
  loads.record_metrics("loads");
  record_quality_gauges(m);
}

RouteSetMetrics measure_paths(const Mesh& mesh, const RoutingProblem& problem,
                              const std::vector<Path>& paths,
                              double lower_bound) {
  OBLV_REQUIRE(paths.size() == problem.size(), "one path per demand required");
  RouteSetMetrics m;
  m.packets = paths.size();
  m.max_distance = problem.max_distance(mesh);
  m.lower_bound = lower_bound;

  const bool obs_on = obs::metrics_enabled();
  // oblv-lint: allow(D010) measure_paths is exact by contract -- its
  // conservation ENSURES needs the materialized per-edge loads.
  EdgeLoadMap loads(mesh);
  RunningStats stretch;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const Path& path = paths[i];
    loads.add_path(path);
    m.dilation = std::max(m.dilation, path.length());
    if (problem.demands[i].src != problem.demands[i].dst) {
      const double s = path_stretch(mesh, path);
      stretch.add(s);
      if (obs_on) OBLV_HISTOGRAM_ADD("routing.stretch", s);
    }
  }
  OBLV_ENSURES(contracts::validate_load_map_consistency(loads),
               "edge loads must sum to the hop count of the measured paths");
  m.congestion = static_cast<std::int64_t>(loads.max_load());
  m.max_stretch = stretch.count() > 0 ? stretch.max() : 1.0;
  m.mean_stretch = stretch.count() > 0 ? stretch.mean() : 1.0;
  m.congestion_ratio = static_cast<double>(m.congestion) /
                       std::max(lower_bound, 1.0);
  record_route_set_metrics(m, loads);
  return m;
}

RouteSetMetrics measure_segment_paths(const Mesh& mesh,
                                      const RoutingProblem& problem,
                                      const std::vector<SegmentPath>& paths,
                                      double lower_bound) {
  OBLV_REQUIRE(paths.size() == problem.size(), "one path per demand required");
  RouteSetMetrics m;
  m.packets = paths.size();
  m.max_distance = problem.max_distance(mesh);
  m.lower_bound = lower_bound;

  const bool obs_on = obs::metrics_enabled();
  // oblv-lint: allow(D010) measure_segment_paths is exact by contract --
  // its conservation ENSURES needs the materialized per-edge loads.
  EdgeLoadMap loads(mesh);
  loads.add_segment_paths(paths);
  RunningStats stretch;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    m.dilation = std::max(m.dilation, paths[i].length());
    if (problem.demands[i].src != problem.demands[i].dst) {
      const double s = segment_path_stretch(mesh, paths[i]);
      stretch.add(s);
      if (obs_on) OBLV_HISTOGRAM_ADD("routing.stretch", s);
    }
  }
  OBLV_ENSURES(contracts::validate_load_map_consistency(loads),
               "segment accounting must agree with the hop count");
  m.congestion = static_cast<std::int64_t>(loads.max_load());
  m.max_stretch = stretch.count() > 0 ? stretch.max() : 1.0;
  m.mean_stretch = stretch.count() > 0 ? stretch.mean() : 1.0;
  m.congestion_ratio = static_cast<double>(m.congestion) /
                       std::max(lower_bound, 1.0);
  record_route_set_metrics(m, loads);
  return m;
}

RouteSetMetrics route_and_measure_parallel(
    const Mesh& mesh, const Router& router, const RoutingProblem& problem,
    double lower_bound, ThreadPool& pool, std::uint64_t seed,
    const AccountingOptions& accounting,
    std::vector<SegmentPath>* paths_out) {
  for (const Demand& demand : problem.demands) {
    OBLV_REQUIRE(demand.src >= 0 && demand.src < mesh.num_nodes() &&
                     demand.dst >= 0 && demand.dst < mesh.num_nodes(),
                 "demand endpoints must be mesh nodes");
  }

  WallTimer timer;
  std::vector<SegmentPath> paths(problem.size());
  const std::unique_ptr<LoadAccountant> accountant =
      LoadAccountant::create(mesh, accounting.mode, accounting.sketch);
  // Workers claim FIXED-SIZE accounting blocks (never thread-count-derived
  // chunks): exact loads commute under addition, but the sketch's
  // conservative updates and heavy-line summaries depend on update
  // grouping, and a fixed block partition plus the ordered fold makes the
  // result bit-identical for any pool size and completion order.
  const bool per_block_fold = accountant->mode() == AccountingMode::kSketch;
  const std::size_t block_size =
      std::max<std::size_t>(1, accounting.sketch.block_size);
  std::atomic<std::size_t> cursor{0};
  oblv::Mutex fold_mutex;
  auto worker = [&]() {
    const bool obs_on = obs::metrics_enabled();
    IntHistogram path_lengths;
    const std::unique_ptr<LoadAccountant> shard = accountant->clone_empty();
    RouteScratch scratch;
    std::size_t routed = 0;
    for (;;) {
      const std::size_t block = cursor.fetch_add(1);
      const std::size_t begin = block * block_size;
      if (begin >= problem.size()) break;
      const std::size_t end = std::min(problem.size(), begin + block_size);
      if (per_block_fold) shard->clear();
      for (std::size_t i = begin; i < end; ++i) {
        const Demand& demand = problem.demands[i];
        Rng rng = packet_rng(seed, i);
        router.route_segments_into(demand.src, demand.dst, rng, scratch,
                                   paths[i]);
        OBLV_CHECK(paths[i].source == demand.src &&
                       paths[i].destination() == demand.dst,
                   "router returned a path with wrong endpoints");
        shard->add_segments(paths[i]);
        if (obs_on) path_lengths.add(paths[i].length());
      }
      routed += end - begin;
      if (per_block_fold) {
        oblv::MutexLock lock(fold_mutex);
        accountant->fold_block(block, *shard);
      }
    }
    if (!per_block_fold && routed > 0) {
      // Exact shards accumulate across blocks (clearing would cost an
      // O(E) memset per block) and merge once: sums commute.
      oblv::MutexLock lock(fold_mutex);
      accountant->merge(*shard);
    }
    if (obs_on) {
      OBLV_COUNTER_ADD("routing.packets", routed);
      OBLV_HISTOGRAM_MERGE("routing.path_length", path_lengths);
    }
  };
  const std::size_t workers = std::max<std::size_t>(1, pool.num_threads());
  for (std::size_t w = 0; w < workers; ++w) pool.submit(worker);
  pool.wait_idle();
  const double seconds = timer.elapsed_seconds();
  OBLV_STAT_RECORD("routing.route_seconds", seconds);

  RouteSetMetrics m;
  m.algorithm = router.name();
  m.packets = paths.size();
  m.max_distance = problem.max_distance(mesh);
  m.lower_bound = lower_bound;
  m.routing_seconds = seconds;
  m.accounting = accountant->mode();
  m.accounting_bytes = accountant->memory_bytes();
  m.accounting_error_bound = accountant->error_bound();
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
  m.congestion = static_cast<std::int64_t>(accountant->max_load());
  m.max_stretch = stretch.count() > 0 ? stretch.max() : 1.0;
  m.mean_stretch = stretch.count() > 0 ? stretch.mean() : 1.0;
  m.congestion_ratio = static_cast<double>(m.congestion) /
                       std::max(lower_bound, 1.0);
  if (obs::metrics_enabled()) {
    accountant->record_metrics("loads");
    record_quality_gauges(m);
  }
  if (paths_out != nullptr) *paths_out = std::move(paths);
  return m;
}

RouteSetMetrics route_and_measure_parallel(
    const Mesh& mesh, const Router& router, const RoutingProblem& problem,
    double lower_bound, ThreadPool& pool, std::uint64_t seed,
    std::vector<SegmentPath>* paths_out) {
  return route_and_measure_parallel(mesh, router, problem, lower_bound, pool,
                                    seed, AccountingOptions{}, paths_out);
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
  const std::vector<Path> paths =
      route_all(mesh, router, problem, options, &bits);
  const double seconds = timer.elapsed_seconds();
  RouteSetMetrics m = measure_paths(mesh, problem, paths, lower_bound);
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
