// P8 -- structure-of-arrays batch engine with lane-parallel RNG.
//
// The claim from DESIGN.md section 10: grouping a batch by (s, t) pair,
// resolving each pair's plan once, and running the pair's draw program 8
// rng lanes at a time beats the scalar per-packet loop by >= 3x on the
// warm single-thread workload of P6 -- while producing bit-identical
// segment output (verified here on every run, not just in the tests).
//
// Arms (per mesh config, single pool thread, warmed buffers):
//   * scalar: route_batch with BatchEngine::kScalar -- the P6 engine;
//   * soa:    route_batch with BatchEngine::kSoa    -- this PR.
// Both arms use the same counter-derived packet_rng streams, so they do
// identical routing work; per-arm minima over interleaved reps are
// compared (noise is strictly additive). A thread sweep of the SoA engine
// is recorded but not gated (smoke runners have two cores), and the
// widened EdgeLoadMap difference-array flush is timed on the SoA output.
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

#include "analysis/congestion.hpp"
#include "bench_common.hpp"
#include "mesh/mesh.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/hierarchical.hpp"
#include "util/flags.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace {

using namespace oblivious;

// Same workload shape as bench_p6_batch: `packets` demands drawn (with
// repetition) from `pairs` distinct pairs, dense enough that the plan
// cache -- and the SoA engine's per-chunk pair grouping -- get real reuse.
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

double run_engine(const Router& router, const RoutingProblem& problem,
                  ThreadPool& pool, BatchEngine engine,
                  std::vector<SegmentPath>& out, std::uint64_t& checksum) {
  WallTimer timer;
  RouteBatchOptions options;
  options.seed = 1;
  options.engine = engine;
  options.validate_demands = false;
  options.chunk_size = problem.size();
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
  ThreadPool pool(1);
  std::vector<SegmentPath> scalar_out;
  std::vector<SegmentPath> soa_out;

  // Warm-up: output/engine buffers grown --
  // and the determinism contract checked on real workload output.
  run_engine(router, problem, pool, BatchEngine::kScalar, scalar_out,
             checksum);
  run_engine(router, problem, pool, BatchEngine::kSoa, soa_out, checksum);
  const bool identical = scalar_out == soa_out;
  if (!identical) {
    std::cout << "ERROR: SoA output differs from scalar output\n";
  }

  std::vector<double> scalar_times;
  std::vector<double> soa_times;
  for (int r = 0; r < reps; ++r) {
    scalar_times.push_back(run_engine(router, problem, pool,
                                      BatchEngine::kScalar, scalar_out,
                                      checksum));
    soa_times.push_back(run_engine(router, problem, pool, BatchEngine::kSoa,
                                   soa_out, checksum));
  }
  const double scalar_best = best(scalar_times);
  const double soa_best = best(soa_times);

  Table table({"arm", "best ms", "packets/s", "vs scalar"});
  const auto row = [&](const std::string& name, double seconds) {
    table.row()
        .add(name)
        .add(seconds * 1e3, 2)
        .add(static_cast<double>(packets) / seconds, 0)
        .add(seconds / scalar_best, 3);
  };
  row("scalar (warm cache)", scalar_best);
  row("soa (warm cache)", soa_best);
  table.print(std::cout);

  // Widened difference-array flush over the batch's own output.
  std::vector<double> flush_times;
  EdgeLoadMap loads(router.mesh());
  for (int r = 0; r < reps; ++r) {
    loads.clear();
    WallTimer timer;
    loads.add_segment_paths(soa_out);
    loads.flush();
    flush_times.push_back(timer.elapsed_seconds());
    checksum += loads.max_load();
  }
  const double flush_best = best(flush_times);
  std::cout << "load accumulate+flush: " << flush_best * 1e3 << " ms\n";

  // The OBLV_GAUGE_SET macro caches one registry handle per call site, so
  // runtime-composed names need the registry API directly.
  auto& registry = obs::MetricsRegistry::global();
  const auto gauge = [&](const std::string& name, double v) {
    registry.gauge("batch." + tag + "." + name).set(v);
  };
  gauge("scalar_warm_best_seconds", scalar_best);
  gauge("soa_warm_best_seconds", soa_best);
  gauge("soa_vs_scalar_ratio", soa_best / scalar_best);
  gauge("soa_bitidentical", identical ? 1.0 : 0.0);
  gauge("loads_flush_best_seconds", flush_best);

  // SoA thread sweep: recorded, not gated (two-core smoke runners).
  for (const std::size_t threads : {2, 4, 8}) {
    ThreadPool tp(threads);
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
      times.push_back(
          run_engine(router, problem, tp, BatchEngine::kSoa, soa_out,
                     checksum));
    }
    const double b = best(times);
    std::cout << "soa x" << threads << ": " << b * 1e3 << " ms ("
              << static_cast<double>(packets) / b << " packets/s)\n";
    gauge("soa_threads" + std::to_string(threads) + "_best_seconds", b);
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

  bench::banner("P8 / SoA batch engine + lane-parallel rng",
                "scalar vs SoA batch inner loop, single warm thread "
                "(gate: 2d64 soa warm <= 0.0448 s/100k -- 3x the committed "
                "P6 scalar baseline -- and bit-identical output)");
  std::cout << "avx2 dispatch active: " << (simd_avx2_enabled() ? "yes" : "no")
            << "\n";
  obs::MetricsRegistry::global()
      .gauge("simd.avx2_active")
      .set(simd_avx2_enabled() ? 1.0 : 0.0);

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
                                 {{"bench", "bench_p8_simd"}},
                                 obs::MetricsRegistry::global().snapshot());
  }
  bench::emit_metrics_json("bench_p8_simd");
  return 0;
}
