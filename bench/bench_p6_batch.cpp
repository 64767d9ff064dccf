// P6 -- zero-allocation batch routing engine.
//
// Two claims from the scratch/batch work, measured on the same style of
// workload as P4/P5 (100k packets, hierarchical routers):
//   * scratch: route_segments_into with a reused RouteScratch is no slower
//     than the allocating route_segments twin (which pays a fresh scratch
//     + output buffer per packet); its time is also gated absolutely;
//   * batch:   route_batch over a thread pool scales the sequential
//     throughput near-linearly (recorded as gauges; only the one-thread
//     time is CI-gated, because the smoke runners have two cores).
// The workload repeats 100k packets over a fixed pool of distinct pairs:
// repeated-pair traffic, a labelled best case. Both arms run after a
// warm-up pass, so buffers are at steady state. Per-arm minima over
// interleaved reps are compared, as in P5: noise is strictly additive.
//
// Flags: --packets N (default 100000), --pairs N (default 8192),
//        --reps N (default 5), --metrics-json FILE
//        (also honors OBLV_METRICS_JSON).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mesh/mesh.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/hierarchical.hpp"
#include "routing/route_scratch.hpp"
#include "util/flags.hpp"
#include "util/timer.hpp"

namespace {

using namespace oblivious;

// `packets` demands drawn (with repetition) from `pairs` distinct pairs.
RoutingProblem repeated_pairs(const Mesh& mesh, std::size_t packets,
                              std::size_t pairs) {
  Rng rng(7);
  std::vector<Demand> pool;
  pool.reserve(pairs);
  const auto nodes = static_cast<std::uint64_t>(mesh.num_nodes());
  while (pool.size() < pairs) {
    const auto s = static_cast<NodeId>(rng.uniform_below(nodes));
    const auto t = static_cast<NodeId>(rng.uniform_below(nodes));
    if (s != t) pool.push_back({s, t});
  }
  RoutingProblem p;
  p.demands.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    p.demands.push_back(pool[rng.uniform_below(pairs)]);
  }
  return p;
}

// One sequential pass with the ALLOCATING api (fresh scratch + output per
// packet, exactly what every caller paid before this engine existed).
double run_alloc(const Router& router, const RoutingProblem& problem,
                 std::uint64_t& checksum) {
  WallTimer timer;
  Rng rng(1);
  for (const Demand& d : problem.demands) {
    checksum += static_cast<std::uint64_t>(
        router.route_segments(d.src, d.dst, rng).length());
  }
  return timer.elapsed_seconds();
}

// One sequential pass with the scratch-threaded api.
double run_scratch(const Router& router, const RoutingProblem& problem,
                   std::uint64_t& checksum) {
  WallTimer timer;
  Rng rng(1);
  RouteScratch scratch;
  SegmentPath out;
  for (const Demand& d : problem.demands) {
    router.route_segments_into(d.src, d.dst, rng, scratch, out);
    checksum += static_cast<std::uint64_t>(out.length());
  }
  return timer.elapsed_seconds();
}

// One pass through the batch driver on `threads` pool threads.
double run_batch(const Router& router, const RoutingProblem& problem,
                 ThreadPool& pool, std::vector<SegmentPath>& out,
                 std::uint64_t& checksum) {
  WallTimer timer;
  RouteBatchOptions options;
  options.seed = 1;
  route_batch(router, std::span<const Demand>(problem.demands), pool, options,
              out);
  checksum += static_cast<std::uint64_t>(out.front().length());
  return timer.elapsed_seconds();
}

double best(const std::vector<double>& xs) {
  return *std::min_element(xs.begin(), xs.end());
}

void report_config(const std::string& tag, const Router& router,
                   const RoutingProblem& problem, int reps,
                   std::uint64_t& checksum) {
  const std::size_t packets = problem.size();
  // Warm-up: grows buffers to steady state.
  run_alloc(router, problem, checksum);
  run_scratch(router, problem, checksum);

  std::vector<double> alloc_times, scratch_times;
  for (int r = 0; r < reps; ++r) {
    alloc_times.push_back(run_alloc(router, problem, checksum));
    scratch_times.push_back(run_scratch(router, problem, checksum));
  }
  const double alloc_best = best(alloc_times);
  const double scratch_best = best(scratch_times);

  Table table({"arm", "best ms", "packets/s", "vs alloc"});
  const auto row = [&](const std::string& name, double seconds) {
    table.row()
        .add(name)
        .add(seconds * 1e3, 2)
        .add(static_cast<double>(packets) / seconds, 0)
        .add(seconds / alloc_best, 3);
  };
  row("alloc", alloc_best);
  row("scratch", scratch_best);
  table.print(std::cout);

  // The OBLV_GAUGE_SET macro caches one registry handle per call site, so
  // runtime-composed names need the registry API directly.
  auto& registry = obs::MetricsRegistry::global();
  const auto gauge = [&](const std::string& name, double v) {
    registry.gauge("batch." + tag + "." + name).set(v);
  };
  gauge("alloc_best_seconds", alloc_best);
  gauge("scratch_warm_best_seconds", scratch_best);
  gauge("scratch_vs_alloc_ratio", scratch_best / alloc_best);

  // Thread sweep through the batch driver. Only the one-thread time is
  // gated: smoke runners have two cores.
  std::vector<SegmentPath> out;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
      times.push_back(run_batch(router, problem, pool, out, checksum));
    }
    const double b = best(times);
    std::cout << "route_batch x" << threads << ": " << b * 1e3 << " ms ("
              << static_cast<double>(packets) / b << " packets/s)\n";
    gauge("batch_threads" + std::to_string(threads) + "_best_seconds", b);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags =
      Flags::parse(argc, argv, {"packets", "pairs", "reps", "metrics-json"});
  const auto packets =
      static_cast<std::size_t>(flags.get_int("packets", 100000));
  const auto pairs = static_cast<std::size_t>(flags.get_int("pairs", 8192));
  const int reps = std::max<int>(1, static_cast<int>(flags.get_int("reps", 5)));

  bench::banner("P6 / zero-allocation batch routing",
                "scratch vs allocating on repeated pairs, and the "
                "route_batch thread sweep (gate: scratch <= 1.05x alloc)");

  std::uint64_t checksum = 0;

  {
    std::cout << "\n-- 2D 64x64, hierarchical (Section 3) --\n";
    const Mesh mesh = Mesh::cube(2, 64);
    const RoutingProblem problem = repeated_pairs(mesh, packets, pairs);
    const AncestorRouter router(mesh, AncestorRouter::Hierarchy::kAccessGraph);
    report_config("2d64", router, problem, reps, checksum);
  }
  {
    std::cout << "\n-- 3D 32^3, hierarchical (Section 4) --\n";
    const Mesh mesh = Mesh::cube(3, 32);
    const RoutingProblem problem = repeated_pairs(mesh, packets, pairs);
    const NdRouter router(mesh);
    report_config("3d32", router, problem, reps, checksum);
  }

  std::cout << "checksum: " << checksum << "\n";
  if (flags.has("metrics-json")) {
    obs::write_metrics_json_file(flags.get("metrics-json", ""),
                                 {{"bench", "bench_p6_batch"}},
                                 obs::MetricsRegistry::global().snapshot());
  }
  bench::emit_metrics_json("bench_p6_batch");
  return 0;
}
