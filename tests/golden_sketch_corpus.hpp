// The sketch golden corpus: absolute digests of sketch-mode load
// accounting over fixed streamed demand sets.
//
// The route corpus (golden_corpus.hpp) pins the paths; this one pins
// what the sketch accountant makes of them. Each entry streams random
// pairs through route_and_account into a deliberately small sketch
// (64 KiB, 7 heavy lines, 1000-packet blocks), so the heavy-line tracker
// evicts, the fold truncates merged summaries, and on three threads the
// blocks finish out of order. An entry records
//   * edge_hash -- a hash over estimate_load of every edge in id order,
//   * max_load, p50 and p99 (load_quantile 0.5 and 0.99),
//   * charges   -- total_edge_charges,
//   * churn     -- the congestion.sketch.hh_churn counter delta that
//                  record_metrics reports (heavy-line evictions).
// The sketch state is a pure function of the stream, so the 1-thread and
// 3-thread entries of a case carry the same digest.
//
// golden_dump sketch prints the entries; tests/golden/regenerate.sh
// rewrites tests/golden/sketch_digests.tsv from it, and golden_test fails
// on drift.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/sketch/load_accountant.hpp"
#include "analysis/sketch/stream_account.hpp"
#include "golden_corpus.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace oblivious::golden {

inline constexpr std::size_t kSketchPackets = 3500;

struct SketchCase {
  const char* name;
  Mesh mesh;
  Algorithm algorithm;
};

// 2D 64^2 and 3D 16^3 under the paper's routers, the non-power-of-two
// 48x40 mesh under Valiant, and two tori (one with side 2, where every
// step along a dimension crosses that line's single edge).
inline std::vector<SketchCase> sketch_cases() {
  return {{"2d64", Mesh::cube(2, 64), Algorithm::kHierarchical2d},
          {"3d16", Mesh::cube(3, 16), Algorithm::kHierarchicalNd},
          {"48x40", Mesh({48, 40}), Algorithm::kValiant},
          {"torus32", Mesh::cube(2, 32, /*torus=*/true),
           Algorithm::kRandomDimOrder},
          {"torus2x2x2", Mesh::cube(3, 2, /*torus=*/true),
           Algorithm::kRandomDimOrder}};
}

inline SketchConfig golden_sketch_config() {
  SketchConfig config;
  config.sketch_bytes = std::size_t{64} << 10;
  config.top_lines = 7;
  config.block_size = 1000;
  return config;
}

struct SketchEntry {
  std::string key;  // "<mesh> <algorithm> <seed> t<threads>"
  std::uint64_t edge_hash = 0;
  std::uint64_t max_load = 0;
  std::int64_t p50 = 0;
  std::int64_t p99 = 0;
  std::uint64_t charges = 0;
  std::uint64_t churn = 0;

  std::string line() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\t%016" PRIx64 "\t%" PRIu64 "\t%" PRId64 "\t%" PRId64
                  "\t%" PRIu64 "\t%" PRIu64,
                  key.c_str(), edge_hash, max_load, p50, p99, charges, churn);
    return buf;
  }
};

// Streams one case into a fresh sketch accountant on `threads` workers.
// The churn field reads the metrics registry, so metrics must be enabled.
inline SketchEntry sketch_entry(const SketchCase& sc, std::uint64_t seed,
                                std::size_t threads) {
  const auto router = make_router(sc.algorithm, sc.mesh);
  const auto accountant = LoadAccountant::create(
      sc.mesh, AccountingMode::kSketch, golden_sketch_config());
  ThreadPool pool(threads);
  StreamAccountOptions options;
  options.seed = seed;
  route_and_account(*router,
                    DemandSource::random_pairs(sc.mesh, kSketchPackets, seed),
                    pool, options, *accountant);

  SketchEntry e;
  e.key = std::string(sc.name) + " " + algorithm_name(sc.algorithm) + " " +
          std::to_string(seed) + " t" + std::to_string(threads);
  for (EdgeId edge = 0; edge < sc.mesh.num_edges(); ++edge) {
    e.edge_hash = mix(e.edge_hash, accountant->estimate_load(edge));
  }
  e.max_load = accountant->max_load();
  e.p50 = accountant->load_quantile(0.5);
  e.p99 = accountant->load_quantile(0.99);
  e.charges = accountant->total_edge_charges();
  const obs::Counter& churn =
      obs::MetricsRegistry::global().counter("congestion.sketch.hh_churn");
  const std::uint64_t before = churn.value();
  accountant->record_metrics("golden.sketch");
  e.churn = churn.value() - before;
  return e;
}

// Every entry, in the order of sketch_digests.tsv.
inline std::vector<SketchEntry> sketch_entries() {
  std::vector<SketchEntry> out;
  for (const SketchCase& sc : sketch_cases()) {
    for (const std::uint64_t seed : kSeeds) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        out.push_back(sketch_entry(sc, seed, threads));
      }
    }
  }
  return out;
}

}  // namespace oblivious::golden
