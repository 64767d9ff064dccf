#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "mesh/mesh.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "routing/registry.hpp"
#include "workloads/generators.hpp"

namespace oblivious {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 0U);  // no workers: tasks run inline
  int value = 0;
  pool.submit([&value] { value = 7; });
  EXPECT_EQ(value, 7);  // already done, no wait needed
  pool.wait_idle();
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&done] {
      // Small busy work.
      volatile int x = 0;
      for (int j = 0; j < 10000; ++j) x = x + j;
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_chunks(pool, hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialFallback) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  parallel_for_chunks(pool, hits.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for_chunks(pool, 0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// The batch driver claims chunks through an atomic cursor, so the claim
// order is racy by design -- but the per-packet rng streams depend only on
// (seed, index), so the output must be bit-identical for every thread
// count (and with it every chunk size, which follows the thread count),
// and identical to a plain sequential loop.
TEST(ParallelRouteBatch, BitIdenticalAcrossThreadCountsAndChunks) {
  const Mesh mesh = Mesh::cube(2, 16);
  Rng wl_rng(3);
  const RoutingProblem problem = random_permutation(mesh, wl_rng);
  const auto router = make_router(Algorithm::kHierarchical2d, mesh);
  RouteBatchOptions options;
  options.seed = 21;

  // Sequential reference with the same counter-derived streams.
  std::vector<SegmentPath> reference(problem.size());
  RouteScratch scratch;
  for (std::size_t i = 0; i < problem.size(); ++i) {
    Rng rng = packet_rng(options.seed, i);
    router->route_segments_into(problem.demands[i].src, problem.demands[i].dst,
                                rng, scratch, reference[i]);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    std::vector<SegmentPath> out;
    route_batch(*router, std::span<const Demand>(problem.demands), pool,
                options, out);
    EXPECT_EQ(out, reference) << threads << " threads";
  }
}

// Switching off demand validation must not change paths.
TEST(ParallelRouteBatch, EngineChoiceAndValidationDoNotChangeOutput) {
  const Mesh mesh = Mesh::cube(2, 16);
  Rng wl_rng(4);
  const RoutingProblem problem = random_permutation(mesh, wl_rng);
  const auto router = make_router(Algorithm::kHierarchical2d, mesh);
  ThreadPool pool(4);
  RouteBatchOptions options;
  options.seed = 55;
  std::vector<SegmentPath> validated;
  route_batch(*router, std::span<const Demand>(problem.demands), pool, options,
              validated);
  options.validate_demands = false;
  std::vector<SegmentPath> out;
  route_batch(*router, std::span<const Demand>(problem.demands), pool, options,
              out);
  EXPECT_EQ(out, validated);
}

TEST(ParallelRouteBatch, PathsTwinMatchesSegmentForm) {
  const Mesh mesh = Mesh::cube(3, 8);
  const RoutingProblem problem = transpose(mesh);
  const auto router = make_router(Algorithm::kHierarchicalNd, mesh);
  ThreadPool pool(4);
  RouteBatchOptions options;
  options.seed = 77;
  std::vector<Path> node_paths;
  std::vector<SegmentPath> seg_paths;
  route_batch_paths(*router, std::span<const Demand>(problem.demands), pool,
                    options, node_paths);
  route_batch(*router, std::span<const Demand>(problem.demands), pool, options,
              seg_paths);
  ASSERT_EQ(node_paths.size(), seg_paths.size());
  for (std::size_t i = 0; i < node_paths.size(); ++i) {
    EXPECT_EQ(path_from_segments(mesh, seg_paths[i]).nodes,
              node_paths[i].nodes);
  }
}

TEST(ParallelRouteBatch, EmptyBatchAndOutputReuse) {
  const Mesh mesh = Mesh::cube(2, 8);
  const auto router = make_router(Algorithm::kRandomDimOrder, mesh);
  ThreadPool pool(2);
  RouteBatchOptions options;
  std::vector<SegmentPath> out;
  route_batch(*router, std::span<const Demand>(), pool, options, out);
  EXPECT_TRUE(out.empty());
  // Reusing the same output vector across differently-sized batches
  // resizes it to match, old contents notwithstanding.
  const RoutingProblem big = transpose(mesh);
  route_batch(*router, std::span<const Demand>(big.demands), pool, options,
              out);
  EXPECT_EQ(out.size(), big.size());
  const std::vector<Demand> one{big.demands.front()};
  route_batch(*router, std::span<const Demand>(one), pool, options, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front().source, one.front().src);
  EXPECT_EQ(out.front().destination(), one.front().dst);
}

TEST(ParallelFor, SumMatchesSerial) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 10000;
  std::atomic<std::int64_t> sum{0};
  parallel_for_chunks(pool, kN, [&](std::size_t begin, std::size_t end) {
    std::int64_t local = 0;
    for (std::size_t i = begin; i < end; ++i) local += static_cast<std::int64_t>(i);
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), static_cast<std::int64_t>(kN) * (kN - 1) / 2);
}

}  // namespace
}  // namespace oblivious
