// End-to-end path-quality evaluation: route a whole problem with one
// algorithm and measure congestion C, dilation D, stretch, the congestion
// lower bound, and per-packet random-bit consumption.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/lower_bound.hpp"
#include "analysis/sketch/load_accountant.hpp"
#include "mesh/mesh.hpp"
#include "mesh/path.hpp"
#include "mesh/segment_path.hpp"
#include "routing/router.hpp"
#include "util/stats.hpp"
#include "workloads/problem.hpp"

namespace oblivious {

struct RouteSetMetrics {
  std::string algorithm;
  std::size_t packets = 0;
  std::int64_t congestion = 0;        // C
  std::int64_t dilation = 0;          // D = max path length
  std::int64_t max_distance = 0;      // D* = max shortest distance
  double max_stretch = 0.0;
  double mean_stretch = 0.0;
  double lower_bound = 0.0;           // C* lower bound (boundary/average)
  double congestion_ratio = 0.0;      // C / max(lower_bound, 1)
  RunningStats bits_per_packet;       // random bits drawn per packet
  double routing_seconds = 0.0;
  // Filled by the accounting-aware entry points: how the congestion was
  // measured, the accountant's memory, and (sketch mode) its additive
  // overestimation ceiling.
  AccountingMode accounting = AccountingMode::kExact;
  std::size_t accounting_bytes = 0;
  double accounting_error_bound = 0.0;
};

struct RouteAllOptions {
  std::uint64_t seed = 1;
  // Remove cycles from the selected paths (the paper notes this never
  // increases congestion).
  bool erase_cycles = false;
  // Collect per-packet random-bit statistics (small overhead).
  bool meter_bits = true;
};

// Routes every demand independently (obliviously): the node-list
// expansion of route_all_segments_into (same seed, same draw order).
// \pre every demand's src and dst are node ids of `mesh`.
std::vector<Path> route_all(const Mesh& mesh, const Router& router,
                            const RoutingProblem& problem,
                            const RouteAllOptions& options,
                            RunningStats* bits_per_packet = nullptr);

// Segment form of route_all, without ever materializing node lists.
std::vector<SegmentPath> route_all_segments(const Mesh& mesh,
                                            const Router& router,
                                            const RoutingProblem& problem,
                                            const RouteAllOptions& options,
                                            RunningStats* bits_per_packet = nullptr);

// The one serial routing loop. Every packet draws from one
// Rng(options.seed) stream in demand order -- evaluate, evaluate_trials and
// the experiment tables pin that order, so it does not run on the
// counter-stream drivers. Routes into `paths` (resized to the problem;
// entries keep their heap capacity) and threads `scratch` through every
// packet, so a caller looping over trials pays no steady-state allocation.
// \pre every demand's src and dst are node ids of `mesh`.
void route_all_segments_into(const Mesh& mesh, const Router& router,
                             const RoutingProblem& problem,
                             const RouteAllOptions& options,
                             RouteScratch& scratch,
                             std::vector<SegmentPath>& paths,
                             RunningStats* bits_per_packet = nullptr);

// The metrics tail every measuring entry point shares: packets, max
// distance, dilation and max/mean stretch of `paths` (paths[i] routes
// problem.demands[i]; each stretch also feeds routing.stretch), and the
// congestion ratio of `congestion` against `lower_bound`.
// \pre paths.size() == problem.size().
RouteSetMetrics path_set_metrics(const Mesh& mesh,
                                 const RoutingProblem& problem,
                                 const std::vector<SegmentPath>& paths,
                                 std::int64_t congestion, double lower_bound);

// Metrics for an existing path set: measure_segment_paths of its segment
// form.
// \pre paths.size() == problem.size(), one (valid mesh) path per demand.
RouteSetMetrics measure_paths(const Mesh& mesh, const RoutingProblem& problem,
                              const std::vector<Path>& paths,
                              double lower_bound);

// Metrics for an existing segment path set: congestion via the O(segments)
// difference-array accounting, stretch/dilation from run lengths.
// \pre paths.size() == problem.size(), one (valid) segment path per demand.
RouteSetMetrics measure_segment_paths(const Mesh& mesh,
                                      const RoutingProblem& problem,
                                      const std::vector<SegmentPath>& paths,
                                      double lower_bound);

// Route + account in one parallel pass: route_and_account into a fresh
// LoadAccountant of the requested mode, keeping every path, then the
// metrics tail. Every reported number -- exact or sketch -- is identical
// for any thread count and block completion order (see stream_account.hpp).
// When `paths_out` is non-null the selected paths are stored there.
class ThreadPool;
RouteSetMetrics route_and_measure_parallel(
    const Mesh& mesh, const Router& router, const RoutingProblem& problem,
    double lower_bound, ThreadPool& pool, std::uint64_t seed,
    const AccountingOptions& accounting = {},
    std::vector<SegmentPath>* paths_out = nullptr);

// Route + measure in one call. The congestion lower bound uses the
// hierarchical decomposition when the mesh supports one, otherwise the cut
// bounds.
RouteSetMetrics evaluate(const Mesh& mesh, const Router& router,
                         const RoutingProblem& problem,
                         const RouteAllOptions& options = {});

// As above but with a caller-supplied lower bound (avoids recomputing it
// when comparing many algorithms on the same problem).
RouteSetMetrics evaluate_with_bound(const Mesh& mesh, const Router& router,
                                    const RoutingProblem& problem,
                                    double lower_bound,
                                    const RouteAllOptions& options = {});

// The best congestion lower bound available for this mesh.
double best_lower_bound(const Mesh& mesh, const RoutingProblem& problem);

}  // namespace oblivious
