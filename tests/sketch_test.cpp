// Sketch accounting tests: dyadic cover algebra, count-min / SpaceSaving
// primitives, the (eps, delta) bound against exact accounting on small
// meshes, and the parallel fold discipline (bit-identical results for any
// thread count and any block fold order).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "analysis/congestion.hpp"
#include "analysis/evaluate.hpp"
#include "analysis/sketch/count_min.hpp"
#include "analysis/sketch/dyadic.hpp"
#include "analysis/sketch/load_accountant.hpp"
#include "analysis/sketch/space_saving.hpp"
#include "analysis/sketch/stream_account.hpp"
#include "analysis/trials.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/registry.hpp"
#include "test_support.hpp"

namespace oblivious {
namespace {

std::unique_ptr<Router> dim_order_router(const Mesh& mesh) {
  const auto a = algorithm_from_name("random-dim-order");
  OBLV_CHECK(a.has_value(), "random-dim-order must be registered");
  return make_router(*a, mesh);
}

// ---------------------------------------------------------------------------
// Dyadic decomposition

TEST(DyadicSketch, EveryPointCoveredExactlyOnce) {
  constexpr std::int64_t kUniverse = 32;
  for (std::int64_t lo = 0; lo <= kUniverse; ++lo) {
    for (std::int64_t hi = lo; hi <= kUniverse; ++hi) {
      std::vector<int> cover(static_cast<std::size_t>(kUniverse), 0);
      int pieces = dyadic_decompose(lo, hi, [&](int level, std::int64_t pos) {
        const std::int64_t first = pos << level;
        const std::int64_t last = (pos + 1) << level;
        for (std::int64_t p = first; p < last; ++p) {
          ++cover[static_cast<std::size_t>(p)];
        }
      });
      EXPECT_LE(pieces, 2 * 5);  // <= 2 log2(U) pieces
      for (std::int64_t p = 0; p < kUniverse; ++p) {
        EXPECT_EQ(cover[static_cast<std::size_t>(p)], (p >= lo && p < hi) ? 1 : 0)
            << "range [" << lo << ", " << hi << ") point " << p;
      }
    }
  }
}

TEST(DyadicSketch, EmptyRangeEmitsNothing) {
  EXPECT_EQ(dyadic_decompose(7, 7, [](int, std::int64_t) { FAIL(); }), 0);
}

// ---------------------------------------------------------------------------
// Count-min primitive

TEST(CountMinSketchTest, NeverUnderestimates) {
  CountMinSketch cm(64, 4, 42);
  std::map<std::uint64_t, std::uint64_t> truth;
  for (std::uint64_t k = 0; k < 200; ++k) {
    const std::uint64_t w = 1 + (k % 7);
    cm.add(k * 11, w);
    truth[k * 11] += w;
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(cm.estimate(key), count);
  }
}

TEST(CountMinSketchTest, LinearMergeCommutes) {
  CountMinSketch a(64, 4, 7), b(64, 4, 7);
  for (std::uint64_t k = 0; k < 100; ++k) a.add(k, k + 1);
  for (std::uint64_t k = 50; k < 150; ++k) b.add(k * 3, 2 * k);
  CountMinSketch ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  for (std::uint64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(ab.estimate(k), ba.estimate(k));
  }
}

TEST(CountMinSketchTest, ConservativeTightensButNeverUnderestimates) {
  CountMinSketch linear(16, 2, 9), conservative(16, 2, 9);
  std::map<std::uint64_t, std::uint64_t> truth;
  for (std::uint64_t k = 0; k < 300; ++k) {
    const std::uint64_t key = k % 37;
    linear.add(key, 1);
    conservative.add_conservative(key, 1);
    ++truth[key];
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(conservative.estimate(key), count);
    EXPECT_LE(conservative.estimate(key), linear.estimate(key));
  }
}

// ---------------------------------------------------------------------------
// SpaceSaving primitive

TEST(SpaceSavingSketch, ExactWithinCapacity) {
  SpaceSavingLines ss(8);
  ss.add(3, 10);
  ss.add(1, 4);
  ss.add(3, 5);
  ss.add(9, 1);
  const auto entries = ss.entries_sorted();
  ASSERT_EQ(entries.size(), 3U);
  EXPECT_EQ(entries[0].key, 3U);
  EXPECT_EQ(entries[0].count, 15U);
  EXPECT_EQ(entries[0].error, 0U);
  EXPECT_EQ(entries[1].key, 1U);
  EXPECT_EQ(entries[1].count, 4U);
  EXPECT_EQ(entries[2].key, 9U);
  EXPECT_EQ(entries[2].count, 1U);
  EXPECT_EQ(ss.evictions(), 0U);
}

TEST(SpaceSavingSketch, EvictionKeepsHeavyKeysAndCountsChurn) {
  SpaceSavingLines ss(2);
  for (int i = 0; i < 50; ++i) ss.add(100, 3);  // heavy: 150
  ss.add(1, 1);
  ss.add(2, 1);  // evicts key 1 (same count, larger key loses? no: evicts min)
  EXPECT_GT(ss.evictions(), 0U);
  const auto entries = ss.entries_sorted();
  ASSERT_EQ(entries.size(), 2U);
  EXPECT_EQ(entries[0].key, 100U);
  // SpaceSaving invariant: count upper-bounds, count - error lower-bounds.
  EXPECT_GE(entries[0].count, 150U);
  EXPECT_LE(entries[0].count - entries[0].error, 150U);
  ss.clear();
  EXPECT_EQ(ss.size(), 0U);
  EXPECT_EQ(ss.evictions(), 0U);  // churn resets with the summary
}

TEST(SpaceSavingSketch, MergeUnionsCountsAndTruncatesDeterministically) {
  SpaceSavingLines a(3), b(3);
  a.add(1, 10);
  a.add(2, 5);
  b.add(1, 7);
  b.add(3, 6);
  b.add(4, 1);
  a.merge(b);
  const auto entries = a.entries_sorted();
  ASSERT_EQ(entries.size(), 3U);
  EXPECT_EQ(entries[0].key, 1U);
  EXPECT_EQ(entries[0].count, 17U);
  EXPECT_EQ(entries[1].key, 3U);
  EXPECT_EQ(entries[1].count, 6U);
  EXPECT_EQ(entries[2].key, 2U);
  EXPECT_EQ(entries[2].count, 5U);
  EXPECT_EQ(a.evictions(), 1U);  // key 4 truncated
}

// ---------------------------------------------------------------------------
// Accountant: exact vs sketch on small meshes

struct MeshCase {
  std::vector<std::int64_t> sides;
  bool torus;
};

// Streams `packets` identical random demands through both accounting
// modes (sequentially: pool of 0 workers runs inline) and returns the
// pair. The sketch gets a generous budget so the (eps, delta) bound is
// loose enough to hold deterministically for the fixed hash seed.
struct ModePair {
  std::unique_ptr<LoadAccountant> exact;
  std::unique_ptr<LoadAccountant> sketch;
};

ModePair account_both_modes(const Mesh& mesh, std::size_t packets,
                            SketchConfig config) {
  ModePair out;
  out.exact = LoadAccountant::create(mesh, AccountingMode::kExact);
  out.sketch = LoadAccountant::create(mesh, AccountingMode::kSketch, config);
  const auto router = dim_order_router(mesh);
  ThreadPool pool(0);
  const DemandSource source = DemandSource::random_pairs(mesh, packets, 7);
  StreamAccountOptions options;
  options.seed = 5;
  route_and_account(*router, source, pool, options, *out.exact);
  route_and_account(*router, source, pool, options, *out.sketch);
  return out;
}

TEST(SketchAccountant, BoundsExactLoadsOnSmallMeshes) {
  const std::vector<MeshCase> cases = {
      {{8, 8}, false}, {{8, 8}, true},  {{9, 7}, false},
      {{4, 4, 4}, false}, {{4, 4, 4}, true}, {{2, 8}, true}, {{16}, false},
  };
  for (const MeshCase& c : cases) {
    const Mesh mesh(c.sides, c.torus);
    SketchConfig config;
    config.sketch_bytes = std::size_t{1} << 20;
    config.top_lines = 256;  // >= total lines: the tracker is lossless
    const ModePair both = account_both_modes(mesh, 400, config);
    SCOPED_TRACE(mesh.describe());

    EXPECT_EQ(both.sketch->total_edge_charges(),
              both.exact->total_edge_charges());
    const double bound = both.sketch->error_bound();
    EXPECT_GT(bound, 0.0);
    EXPECT_LT(both.sketch->failure_probability(), 0.1);
    for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
      const std::uint64_t truth = both.exact->estimate_load(e);
      const std::uint64_t est = both.sketch->estimate_load(e);
      EXPECT_GE(est, truth) << "edge " << e;
      EXPECT_LE(static_cast<double>(est),
                static_cast<double>(truth) + bound)
          << "edge " << e;
    }
    EXPECT_GE(both.sketch->max_load(), both.exact->max_load());
    EXPECT_LE(static_cast<double>(both.sketch->max_load()),
              static_cast<double>(both.exact->max_load()) + bound);
    // Pointwise domination carries to quantiles.
    for (const double q : {0.5, 0.9, 0.99}) {
      EXPECT_GE(both.sketch->load_quantile(q), both.exact->load_quantile(q));
    }
  }
}

TEST(SketchAccountant, PathAndSegmentChargesAgree) {
  // add_path (hop walk) and add_segments (dyadic ranges) must charge the
  // same edges: route each demand once, feed the SegmentPath to one
  // accountant and the expanded Path to another.
  for (const bool torus : {false, true}) {
    const Mesh mesh({8, 8}, torus);
    SketchConfig config;
    config.top_lines = 64;
    auto by_segments =
        LoadAccountant::create(mesh, AccountingMode::kSketch, config);
    auto by_paths =
        LoadAccountant::create(mesh, AccountingMode::kSketch, config);
    const auto router = dim_order_router(mesh);
    Rng rng(11);
    for (const auto& [s, t] : testing::sample_pairs(mesh, 200, 3)) {
      const SegmentPath sp = router->route_segments(s, t, rng);
      by_segments->add_segments(sp);
      by_paths->add_path(path_from_segments(mesh, sp));
    }
    SCOPED_TRACE(mesh.describe());
    EXPECT_EQ(by_segments->total_edge_charges(), by_paths->total_edge_charges());
    for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
      EXPECT_EQ(by_segments->estimate_load(e), by_paths->estimate_load(e))
          << "edge " << e;
    }
    EXPECT_EQ(by_segments->max_load(), by_paths->max_load());
  }
}

// ---------------------------------------------------------------------------
// Determinism: thread counts and fold orders

std::vector<std::uint64_t> sketch_fingerprint(const LoadAccountant& a) {
  std::vector<std::uint64_t> fp;
  const Mesh& mesh = a.mesh();
  for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
    fp.push_back(a.estimate_load(e));
  }
  fp.push_back(a.max_load());
  fp.push_back(a.total_edge_charges());
  fp.push_back(static_cast<std::uint64_t>(a.load_quantile(0.5)));
  fp.push_back(static_cast<std::uint64_t>(a.load_quantile(0.99)));
  return fp;
}

TEST(SketchAccountant, BitIdenticalAcrossThreadCounts) {
  const Mesh mesh({16, 16});
  const auto router = dim_order_router(mesh);
  SketchConfig config;
  config.block_size = 128;  // many blocks: exercises out-of-order folds
  const DemandSource source = DemandSource::random_pairs(mesh, 3000, 21);

  std::vector<std::vector<std::uint64_t>> prints;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    auto accountant =
        LoadAccountant::create(mesh, AccountingMode::kSketch, config);
    ThreadPool pool(threads);
    StreamAccountOptions options;
    options.seed = 9;
    const StreamAccountResult res =
        route_and_account(*router, source, pool, options, *accountant);
    EXPECT_EQ(res.packets, 3000U);
    EXPECT_EQ(res.blocks, (3000U + 127U) / 128U);
    prints.push_back(sketch_fingerprint(*accountant));
  }
  EXPECT_EQ(prints[0], prints[1]);
  EXPECT_EQ(prints[0], prints[2]);
}

TEST(SketchAccountant, FoldOrderIsBlockIndexOrder) {
  const Mesh mesh({12, 12});
  const auto router = dim_order_router(mesh);
  SketchConfig config;
  config.top_lines = 4;  // tiny: truncation makes order matter if mishandled

  // Four blocks of routed paths, each in its own shard.
  std::vector<std::unique_ptr<LoadAccountant>> shards;
  auto sequential =
      LoadAccountant::create(mesh, AccountingMode::kSketch, config);
  for (std::size_t block = 0; block < 4; ++block) {
    auto shard = sequential->clone_empty();
    Rng rng(100 + block);
    for (const auto& [s, t] :
         testing::sample_pairs(mesh, 50, 200 + block)) {
      shard->add_segments(router->route_segments(s, t, rng));
    }
    shards.push_back(std::move(shard));
  }
  for (std::size_t block = 0; block < 4; ++block) {
    sequential->fold_block(block, *shards[block]);
  }
  const auto expected = sketch_fingerprint(*sequential);

  for (const auto& order : std::vector<std::vector<std::size_t>>{
           {3, 1, 0, 2}, {1, 0, 3, 2}, {3, 2, 1, 0}}) {
    auto folded = LoadAccountant::create(mesh, AccountingMode::kSketch, config);
    for (const std::size_t block : order) {
      folded->fold_block(block, *shards[block]);
    }
    EXPECT_EQ(sketch_fingerprint(*folded), expected);
  }
}

TEST(SketchAccountant, MergeOfDisjointShardsMatchesSequential) {
  // merge() (the order-insensitive path) must equal sequential ingestion
  // when the heavy-line tracker never truncates.
  const Mesh mesh({10, 10});
  const auto router = dim_order_router(mesh);
  SketchConfig config;
  config.top_lines = 64;  // >= lines: no truncation, merge order is moot
  auto whole = LoadAccountant::create(mesh, AccountingMode::kSketch, config);
  auto left = whole->clone_empty();
  auto right = whole->clone_empty();
  Rng rng_whole(5), rng_parts(5);
  const auto pairs = testing::sample_pairs(mesh, 120, 17);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const SegmentPath sp =
        router->route_segments(pairs[i].first, pairs[i].second, rng_whole);
    whole->add_segments(sp);
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const SegmentPath sp =
        router->route_segments(pairs[i].first, pairs[i].second, rng_parts);
    (i < pairs.size() / 2 ? left : right)->add_segments(sp);
  }
  auto merged_lr = left->clone_empty();
  merged_lr->merge(*left);
  merged_lr->merge(*right);
  auto merged_rl = left->clone_empty();
  merged_rl->merge(*right);
  merged_rl->merge(*left);
  // Conservative-update cells depend on grouping, so the merged tables
  // need not equal the sequential one cell-for-cell -- but estimates stay
  // overestimates, merge order cannot matter, and totals are exact.
  EXPECT_EQ(sketch_fingerprint(*merged_lr), sketch_fingerprint(*merged_rl));
  EXPECT_EQ(merged_lr->total_edge_charges(), whole->total_edge_charges());
  for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
    EXPECT_GE(merged_lr->estimate_load(e) + whole->error_bound(),
              whole->estimate_load(e));
  }
}

TEST(SketchAccountant, ClearResetsToEmpty) {
  const Mesh mesh({8, 8});
  auto accountant = LoadAccountant::create(mesh, AccountingMode::kSketch);
  const auto router = dim_order_router(mesh);
  Rng rng(3);
  for (const auto& [s, t] : testing::sample_pairs(mesh, 40, 4)) {
    accountant->add_segments(router->route_segments(s, t, rng));
  }
  EXPECT_GT(accountant->max_load(), 0U);
  accountant->clear();
  EXPECT_EQ(accountant->max_load(), 0U);
  EXPECT_EQ(accountant->total_edge_charges(), 0U);
  for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
    EXPECT_EQ(accountant->estimate_load(e), 0U);
  }
}

// ---------------------------------------------------------------------------
// Streaming driver

TEST(SketchStream, DemandSourceIsAPureFunctionOfIndex) {
  const Mesh mesh({16, 16});
  const DemandSource source = DemandSource::random_pairs(mesh, 1000, 77);
  ASSERT_EQ(source.size(), 1000U);
  for (std::size_t i = 0; i < source.size(); i += 97) {
    const Demand first = source.demand(i);
    const Demand again = source.demand(i);
    EXPECT_EQ(first.src, again.src);
    EXPECT_EQ(first.dst, again.dst);
    EXPECT_LT(first.src, mesh.num_nodes());
    EXPECT_LT(first.dst, mesh.num_nodes());
  }
}

TEST(SketchStream, FromSpanBorrowsDemands) {
  const std::vector<Demand> demands = {{0, 5}, {9, 2}, {3, 3}};
  const DemandSource source = DemandSource::from_span(demands);
  ASSERT_EQ(source.size(), demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_EQ(source.demand(i).src, demands[i].src);
    EXPECT_EQ(source.demand(i).dst, demands[i].dst);
  }
}

TEST(SketchStream, ExactModeMatchesMaterializedRouting) {
  // Streaming with exact accounting must equal routing the same demands
  // by hand with the same per-packet rng streams. The stream spans three
  // accounting blocks (8192 packets each), so several workers fold.
  const Mesh mesh({16, 16});
  const auto router = dim_order_router(mesh);
  const DemandSource source = DemandSource::random_pairs(mesh, 20000, 13);
  auto streamed = LoadAccountant::create(mesh, AccountingMode::kExact);
  ASSERT_GT(source.size(), 2 * streamed->block_size());
  ThreadPool pool(4);
  StreamAccountOptions options;
  options.seed = 31;
  route_and_account(*router, source, pool, options, *streamed);

  auto manual = LoadAccountant::create(mesh, AccountingMode::kExact);
  for (std::size_t i = 0; i < source.size(); ++i) {
    Rng rng = packet_rng(options.seed, i);
    const Demand d = source.demand(i);
    manual->add_segments(router->route_segments(d.src, d.dst, rng));
  }
  EXPECT_EQ(streamed->total_edge_charges(), manual->total_edge_charges());
  for (EdgeId e = 0; e < mesh.num_edges(); ++e) {
    EXPECT_EQ(streamed->estimate_load(e), manual->estimate_load(e));
  }
}

TEST(SketchStream, HugeMeshSketchFitsWhereExactCannot) {
  // A 1024^3 torus-free mesh has ~3.2e9 edges; the exact array alone
  // would need ~12.8 GB. The sketch routes and accounts a stream inside
  // a 4 MiB budget.
  const Mesh mesh = Mesh::cube(3, 1024);
  EXPECT_GT(LoadAccountant::exact_bytes(mesh),
            std::size_t{10} * 1024 * 1024 * 1024);
  SketchConfig config;
  config.sketch_bytes = std::size_t{4} << 20;
  auto accountant =
      LoadAccountant::create(mesh, AccountingMode::kSketch, config);
  EXPECT_LE(accountant->memory_bytes(), config.sketch_bytes);
  const auto router = dim_order_router(mesh);
  ThreadPool pool(4);
  StreamAccountOptions options;
  options.seed = 1;
  const StreamAccountResult res = route_and_account(
      *router, DemandSource::random_pairs(mesh, 20000, 2), pool, options,
      *accountant);
  EXPECT_EQ(res.packets, 20000U);
  EXPECT_GT(accountant->total_edge_charges(), 0U);
  EXPECT_GT(accountant->max_load(), 0U);
  EXPECT_LE(accountant->memory_bytes(), config.sketch_bytes);
}

// ---------------------------------------------------------------------------
// Pipeline integration

TEST(SketchEvaluate, RouteAndMeasureParallelSketchBoundsExact) {
  const Mesh mesh({16, 16});
  const auto router = dim_order_router(mesh);
  RoutingProblem problem;
  for (const auto& [s, t] : testing::sample_pairs(mesh, 300, 8)) {
    problem.demands.push_back({s, t});
  }
  ThreadPool pool(4);
  const RouteSetMetrics exact = route_and_measure_parallel(
      mesh, *router, problem, 1.0, pool, 3, AccountingOptions{});
  AccountingOptions sketch;
  sketch.mode = AccountingMode::kSketch;
  const RouteSetMetrics sketched =
      route_and_measure_parallel(mesh, *router, problem, 1.0, pool, 3, sketch);
  EXPECT_EQ(exact.accounting, AccountingMode::kExact);
  EXPECT_EQ(sketched.accounting, AccountingMode::kSketch);
  EXPECT_GT(sketched.accounting_error_bound, 0.0);
  EXPECT_EQ(exact.accounting_bytes, LoadAccountant::exact_bytes(mesh));
  EXPECT_LE(sketched.accounting_bytes, AccountingOptions{}.sketch.sketch_bytes);
  EXPECT_GE(sketched.congestion, exact.congestion);
  EXPECT_LE(static_cast<double>(sketched.congestion),
            static_cast<double>(exact.congestion) +
                sketched.accounting_error_bound);
  // Routing quality is accounting-independent.
  EXPECT_EQ(sketched.dilation, exact.dilation);
  EXPECT_DOUBLE_EQ(sketched.max_stretch, exact.max_stretch);
}

TEST(SketchEvaluate, TrialsRunUnderSketchAccounting) {
  const Mesh mesh({8, 8});
  const auto router = dim_order_router(mesh);
  RoutingProblem problem;
  for (const auto& [s, t] : testing::sample_pairs(mesh, 64, 5)) {
    problem.demands.push_back({s, t});
  }
  ThreadPool pool(2);
  const TrialSummary exact =
      evaluate_trials(mesh, *router, problem, 3, 42, &pool);
  AccountingOptions sketch;
  sketch.mode = AccountingMode::kSketch;
  const TrialSummary sketched =
      evaluate_trials(mesh, *router, problem, 3, 42, &pool, sketch);
  EXPECT_EQ(sketched.congestion.count(), 3U);
  // Each trial's sketch congestion upper-bounds the exact one.
  EXPECT_GE(sketched.congestion.mean(), exact.congestion.mean());
  // Stretch and dilation do not depend on the accounting mode.
  EXPECT_DOUBLE_EQ(sketched.dilation.mean(), exact.dilation.mean());
  // The expected-load statistic needs O(E) state: sketch mode skips it.
  EXPECT_EQ(sketched.max_expected_edge_load, 0.0);
  EXPECT_GT(exact.max_expected_edge_load, 0.0);
}

TEST(SketchAccountant, ModeNamesRoundTrip) {
  EXPECT_STREQ(accounting_mode_name(AccountingMode::kExact), "exact");
  EXPECT_STREQ(accounting_mode_name(AccountingMode::kSketch), "sketch");
  EXPECT_EQ(accounting_mode_from_name("exact"), AccountingMode::kExact);
  EXPECT_EQ(accounting_mode_from_name("sketch"), AccountingMode::kSketch);
  EXPECT_FALSE(accounting_mode_from_name("approximate").has_value());
}

}  // namespace
}  // namespace oblivious
