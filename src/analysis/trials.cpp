#include "analysis/trials.hpp"

#include <memory>
#include <vector>

#include "analysis/congestion.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace oblivious {

TrialSummary evaluate_trials(const Mesh& mesh, const Router& router,
                             const RoutingProblem& problem, int trials,
                             std::uint64_t base_seed, ThreadPool* pool,
                             const AccountingOptions& accounting) {
  OBLV_REQUIRE(trials >= 1, "need at least one trial");
  OBLV_SCOPED_TIMER("trials.total_seconds");
  TrialSummary summary;
  summary.lower_bound = best_lower_bound(mesh, problem);

  // The expected-load sweep needs an O(E) sum array -- exactly what
  // sketch mode exists to avoid, so it only runs under exact accounting.
  const bool track_expected = accounting.mode == AccountingMode::kExact;
  std::vector<double> edge_load_sums(
      track_expected ? static_cast<std::size_t>(mesh.num_edges()) : 0, 0.0);
  oblv::Mutex merge_mutex;

  const auto run_range = [&](std::size_t begin, std::size_t end) {
    TrialSummary local;
    const bool obs_on = obs::metrics_enabled();
    RunningStats trial_seconds;
    IntHistogram congestion_hist;
    // Every buffer lives across the whole trial range: the accountant is
    // cleared (not reallocated) between trials, and the path vector plus
    // routing scratch keep their capacity, so trial t>begin routes with
    // zero steady-state allocation. Per-trial accounting is sequential
    // inside this worker, so sketch estimates depend only on the trial's
    // paths -- never on threading.
    std::vector<double> local_sums(edge_load_sums.size(), 0.0);
    const std::unique_ptr<LoadAccountant> loads =
        LoadAccountant::create(mesh, accounting.mode, accounting.sketch);
    RouteScratch scratch;
    std::vector<SegmentPath> paths;
    for (std::size_t t = begin; t < end; ++t) {
      WallTimer trial_timer;
      RouteAllOptions options;
      options.seed = base_seed + t;
      options.meter_bits = false;
      route_all_segments_into(mesh, router, problem, options, scratch, paths);
      loads->clear();
      loads->add_segment_paths(paths);
      const RouteSetMetrics m = path_set_metrics(
          mesh, problem, paths, static_cast<std::int64_t>(loads->max_load()),
          summary.lower_bound);
      local.congestion.add(static_cast<double>(m.congestion));
      local.dilation.add(static_cast<double>(m.dilation));
      local.max_stretch.add(m.max_stretch);
      if (track_expected) {
        for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
          local_sums[static_cast<std::size_t>(e)] +=
              static_cast<double>(loads->estimate_load(e));
        }
      }
      if (obs_on) {
        trial_seconds.add(trial_timer.elapsed_seconds());
        congestion_hist.add(m.congestion);
      }
    }
    if (obs_on) {
      // One registry visit per chunk, into this worker's own shard.
      OBLV_STAT_MERGE("trials.trial_seconds", trial_seconds);
      OBLV_HISTOGRAM_MERGE("trials.congestion", congestion_hist);
      OBLV_COUNTER_ADD("trials.trials_run", end - begin);
      loads->record_metrics("loads");
    }
    oblv::MutexLock lock(merge_mutex);
    summary.congestion.merge(local.congestion);
    summary.dilation.merge(local.dilation);
    summary.max_stretch.merge(local.max_stretch);
    for (std::size_t e = 0; e < edge_load_sums.size(); ++e) {
      edge_load_sums[e] += local_sums[e];
    }
  };

  if (pool != nullptr) {
    parallel_for_chunks(*pool, static_cast<std::size_t>(trials), run_range);
  } else {
    run_range(0, static_cast<std::size_t>(trials));
  }

  for (const double sum : edge_load_sums) {
    summary.max_expected_edge_load = std::max(
        summary.max_expected_edge_load, sum / static_cast<double>(trials));
  }
  if (obs::metrics_enabled()) {
    OBLV_GAUGE_SET("trials.mean_congestion", summary.congestion.mean());
    OBLV_GAUGE_SET("trials.max_congestion", summary.congestion.max());
    OBLV_GAUGE_SET("trials.max_expected_edge_load",
                   summary.max_expected_edge_load);
    OBLV_GAUGE_SET("trials.lower_bound", summary.lower_bound);
  }
  return summary;
}

}  // namespace oblivious
