// Verification helpers and per-layer probes shared by the workloads.
//
// Every probe calls one layer's public function once per item and wraps
// each call in a trace span, so the per-layer metrics come out of the
// self-time table (see trace.hpp). With tracing off the probes still run
// but record nothing; the workloads only call them in the traced run.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sketch/load_accountant.hpp"
#include "decomposition/decomposition.hpp"
#include "mesh/mesh.hpp"
#include "mesh/segment_path.hpp"
#include "parallel/thread_pool.hpp"
#include "report.hpp"
#include "routing/router.hpp"
#include "workloads/problem.hpp"

namespace perfbench {

using oblivious::Demand;
using oblivious::LoadAccountant;
using oblivious::Mesh;
using oblivious::Router;
using oblivious::SegmentPath;
using oblivious::ThreadPool;

// The packets of one delivery or one congestion sample: a 64x64
// permutation.
inline constexpr std::size_t kBatchPackets = 4096;

struct PathStats {
  std::uint64_t paths = 0;
  std::uint64_t hops = 0;
  std::uint64_t segments = 0;
  double stretch_sum = 0.0;
  double max_stretch = 0.0;

  double mean_stretch() const { return paths ? stretch_sum / paths : 0.0; }
};

// Checks every path: it is a valid path of the mesh, it connects its
// demand's endpoints, and its stretch is within the paper's bound for the
// mesh dimension. Each violating path is one failed check.
PathStats verify_paths(const Mesh& mesh, std::span<const Demand> demands,
                       const std::vector<SegmentPath>& paths, Report& report,
                       const std::string& what);

// True when both accountants hold the same load on every edge and the
// same total charges.
bool same_loads(const LoadAccountant& a, const LoadAccountant& b);

// An exact accountant charged with `paths`.
std::unique_ptr<LoadAccountant> exact_loads_of(
    const Mesh& mesh, const std::vector<SegmentPath>& paths);

// C* lower bound of `demands`, over the router's decomposition when it
// has one.
double lower_bound(const Mesh& mesh, const Router& router,
                   std::span<const Demand> demands);

// Mean over consecutive kBatchPackets-packet samples of C / C*, where C
// is the exact max edge load of the sample's paths and C* their lower
// bound. (C is a small integer; the mean over samples keeps the figure
// steady across seeds.)
double congestion_ratio(const Mesh& mesh, const Router& router,
                        std::span<const Demand> demands,
                        const std::vector<SegmentPath>& paths);

// --- plan cache (present on the hierarchical routers) -----------------------

// Empties the router's plan cache so no later lookup hits an entry the
// benchmark seeded; a no-op for routers without one.
void clear_plan_cache(const Router& router);
// (hits, misses) since construction; (0, 0) without a plan cache.
std::pair<std::uint64_t, std::uint64_t> plan_cache_counts(const Router& router);

// --- per-layer probes (one span per call) -----------------------------------

// Router::resolve_plan per distinct-endpoint pair.
void probe_resolve_plan(const Router& router, std::span<const Demand> pairs,
                        const char* span);
// Router::route_segments_into per packet.
void probe_route_segments(const Router& router, std::span<const Demand> pairs,
                          std::uint64_t seed, const char* span);
// LoadAccountant::add_segments per pre-routed path.
void probe_add_segments(LoadAccountant& accountant,
                        const std::vector<SegmentPath>& paths,
                        const char* span);
// LoadAccountant::fold_block of one block-sized shard, `calls` times.
void probe_fold(const LoadAccountant& prototype,
                const std::vector<SegmentPath>& paths, int calls,
                const char* span);
// route_batch with the scalar, SoA and auto engines on `demands`, `reps`
// times each. Spans: parallel.route_batch.{scalar,soa,auto}. `cold`
// empties the plan cache before every call (outside the span).
void probe_batch_engines(const Router& router, std::span<const Demand> demands,
                         ThreadPool& pool, std::uint64_t seed, int reps,
                         bool cold);
// Publishes parallel.batch_{scalar,soa,auto}_ns (per packet) from the
// probe's spans and notes which engine kAuto picks for the router.
void report_batch_engines(const Router& router, std::size_t packets_per_call,
                          Report& report);

}  // namespace perfbench
