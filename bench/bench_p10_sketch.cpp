// P10 -- sketch-based congestion accounting.
//
// The claim from DESIGN.md section 14: the conservative-update count-min
// sketch over dyadic range keys (plus the SpaceSaving heavy-line tracker)
// tracks max load and load quantiles in O(sketch_bytes) memory, with
// estimates that never underestimate and stay within the (eps, delta)
// error bound of the exact per-edge array.
//
// Part A (2D 64x64): the same demand stream is accounted exactly and with
// the sketch; reports per-arm throughput, the absolute max-load and p99
// estimation errors, and whether they sit inside the analytical bound
// (gated: within_bound == 1, errors deterministic for the fixed seeds).
//
// Part B (2D 4096x4096, ~33.5M edges): streaming sketch-only accounting.
// The exact array would need ~134 MB; the sketch must stay inside its
// 4 MiB budget while routing the stream (gated: memory cap + throughput
// floor).
//
// Part C (3D 128x128x128, hierarchical-nd): 8192 random pairs streamed on
// one thread into the default 1 MiB sketch, the shape of perfbench's
// stream-sketch-3d. About 34 segments per packet, nearly all on lines the
// 64-slot heavy-line tracker does not hold, so this is where the sketch's
// per-segment accounting shows (gated: throughput against a baseline).
//
// Flags: --packets N (Part A stream, default 100000),
//        --huge-packets N (Part B stream, default 200000),
//        --reps N (Parts A and C, default 3), --threads N (Parts A and B,
//        default 2),
//        --metrics-json FILE (also honors OBLV_METRICS_JSON).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/sketch/load_accountant.hpp"
#include "analysis/sketch/stream_account.hpp"
#include "bench_common.hpp"
#include "mesh/mesh.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/registry.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace oblivious;

double best(const std::vector<double>& xs) {
  return *std::min_element(xs.begin(), xs.end());
}

std::unique_ptr<Router> dim_order_router(const Mesh& mesh) {
  return make_router(*algorithm_from_name("random-dim-order"), mesh);
}

void gauge(const std::string& name, double v) {
  obs::MetricsRegistry::global().gauge(name).set(v);
}

// Part A: exact and sketch arms over the identical demand stream.
void run_small(std::size_t packets, int reps, std::size_t threads) {
  std::cout << "\n-- 2D 64x64: exact vs sketch on one stream --\n";
  const Mesh mesh = Mesh::cube(2, 64);
  const auto router = dim_order_router(mesh);
  const DemandSource source = DemandSource::random_pairs(mesh, packets, 7);
  ThreadPool pool(threads);
  StreamAccountOptions options;
  options.seed = 5;

  SketchConfig config;  // defaults: 1 MiB budget, depth 4, 64 heavy lines
  auto exact = LoadAccountant::create(mesh, AccountingMode::kExact);
  auto sketch = LoadAccountant::create(mesh, AccountingMode::kSketch, config);

  std::vector<double> exact_times, sketch_times;
  for (int r = 0; r < reps; ++r) {
    exact->clear();
    exact_times.push_back(
        route_and_account(*router, source, pool, options, *exact).seconds);
    sketch->clear();
    sketch_times.push_back(
        route_and_account(*router, source, pool, options, *sketch).seconds);
  }
  const double exact_best = best(exact_times);
  const double sketch_best = best(sketch_times);
  const double n = static_cast<double>(packets);

  const double bound = sketch->error_bound();
  const auto exact_max = static_cast<double>(exact->max_load());
  const auto sketch_max = static_cast<double>(sketch->max_load());
  const double max_err = sketch_max - exact_max;
  const double p99_err = static_cast<double>(sketch->load_quantile(0.99)) -
                         static_cast<double>(exact->load_quantile(0.99));
  const bool within =
      max_err >= 0.0 && max_err <= bound && p99_err >= 0.0 && p99_err <= bound;

  Table table({"arm", "best ms", "packets/s", "bytes", "max load"});
  table.row()
      .add("exact")
      .add(exact_best * 1e3, 2)
      .add(n / exact_best, 0)
      .add(static_cast<double>(exact->memory_bytes()), 0)
      .add(exact_max, 0);
  table.row()
      .add("sketch")
      .add(sketch_best * 1e3, 2)
      .add(n / sketch_best, 0)
      .add(static_cast<double>(sketch->memory_bytes()), 0)
      .add(sketch_max, 0);
  table.print(std::cout);
  std::cout << "max-load abs err: " << max_err << ", p99 abs err: " << p99_err
            << ", bound: " << bound << " -> "
            << (within ? "WITHIN BOUND" : "BOUND VIOLATED") << "\n";

  gauge("sketch.2d64.exact_pkts_per_sec", n / exact_best);
  gauge("sketch.2d64.sketch_pkts_per_sec", n / sketch_best);
  gauge("sketch.2d64.sketch_vs_exact_ratio", sketch_best / exact_best);
  gauge("sketch.2d64.max_load_abs_err", max_err);
  gauge("sketch.2d64.p99_abs_err", p99_err);
  gauge("sketch.2d64.error_bound", bound);
  gauge("sketch.2d64.within_bound", within ? 1.0 : 0.0);
  gauge("sketch.2d64.memory_bytes", static_cast<double>(sketch->memory_bytes()));
}

// Part B: streaming sketch accounting where exact arrays get painful.
void run_huge(std::size_t packets, std::size_t threads) {
  std::cout << "\n-- 2D 4096x4096: streaming sketch accounting --\n";
  const Mesh mesh = Mesh::cube(2, 4096);
  const auto router = dim_order_router(mesh);
  SketchConfig config;
  config.sketch_bytes = std::size_t{4} << 20;
  auto sketch = LoadAccountant::create(mesh, AccountingMode::kSketch, config);
  ThreadPool pool(threads);
  StreamAccountOptions options;
  options.seed = 3;
  const StreamAccountResult res = route_and_account(
      *router, DemandSource::random_pairs(mesh, packets, 11), pool, options,
      *sketch);
  const double pps = static_cast<double>(res.packets) /
                     std::max(res.seconds, 1e-9);

  std::cout << "edges: " << mesh.num_edges() << " (exact accounting: "
            << LoadAccountant::exact_bytes(mesh) << " bytes)\n";
  std::cout << "routed " << res.packets << " packets in " << res.seconds
            << " s (" << pps << " pkt/s, " << res.blocks << " blocks)\n";
  std::cout << "sketch: " << sketch->memory_bytes() << " / "
            << config.sketch_bytes << " bytes, max load "
            << sketch->max_load() << ", p99 " << sketch->load_quantile(0.99)
            << "\n";

  gauge("sketch.2d4096.pkts_per_sec", pps);
  gauge("sketch.2d4096.memory_bytes",
        static_cast<double>(sketch->memory_bytes()));
  gauge("sketch.2d4096.budget_bytes", static_cast<double>(config.sketch_bytes));
  gauge("sketch.2d4096.exact_bytes",
        static_cast<double>(LoadAccountant::exact_bytes(mesh)));
  gauge("sketch.2d4096.max_load", static_cast<double>(sketch->max_load()));
  gauge("sketch.2d4096.within_budget",
        sketch->memory_bytes() <= config.sketch_bytes ? 1.0 : 0.0);
}

// Part C: the Section 4 router streamed into the default sketch on one
// thread; each rep draws a stream of its own.
void run_3d(int reps) {
  std::cout << "\n-- 3D 128^3: hierarchical-nd streamed into the default "
               "sketch, 1 thread --\n";
  constexpr std::size_t kPackets = 8192;
  const Mesh mesh = Mesh::cube(3, 128);
  const auto router = make_router(Algorithm::kHierarchicalNd, mesh);
  auto sketch = LoadAccountant::create(mesh, AccountingMode::kSketch);
  ThreadPool pool(1);
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto seed = static_cast<std::uint64_t>(r) + 1;
    StreamAccountOptions options;
    options.seed = seed;
    sketch->clear();
    const StreamAccountResult res = route_and_account(
        *router, DemandSource::random_pairs(mesh, kPackets, seed), pool,
        options, *sketch);
    times.push_back(res.seconds);
  }
  const double pps = static_cast<double>(kPackets) / best(times);
  std::cout << "routed " << kPackets << " packets, best of " << reps << ": "
            << best(times) * 1e3 << " ms (" << pps << " pkt/s), sketch "
            << sketch->memory_bytes() << " bytes\n";
  gauge("sketch.3d128.pkts_per_sec", pps);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(
      argc, argv, {"packets", "huge-packets", "reps", "threads",
                   "metrics-json"});
  const auto packets = static_cast<std::size_t>(
      flags.get_int("packets", 100000 * bench::scale()));
  const auto huge_packets = static_cast<std::size_t>(
      flags.get_int("huge-packets", 200000 * bench::scale()));
  const int reps = std::max<int>(1, static_cast<int>(flags.get_int("reps", 3)));
  const auto threads = static_cast<std::size_t>(flags.get_int("threads", 2));

  bench::banner("P10 / sketch congestion accounting",
                "count-min + SpaceSaving load accounting vs the exact "
                "per-edge array (gate: estimates within the (eps, delta) "
                "bound on 64x64; 4 MiB budget held on 4096x4096; 3D "
                "128^3 one-thread throughput)");

  run_small(packets, reps, threads);
  run_huge(huge_packets, threads);
  run_3d(reps);

  if (flags.has("metrics-json")) {
    obs::write_metrics_json_file(flags.get("metrics-json", ""),
                                 {{"bench", "P10"}},
                                 obs::MetricsRegistry::global().snapshot());
  }
  return 0;
}
