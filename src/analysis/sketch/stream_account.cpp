#include "analysis/sketch/stream_account.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "obs/metrics.hpp"
#include "parallel/route_batch.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace oblivious {

DemandSource DemandSource::from_span(std::span<const Demand> demands) {
  DemandSource s;
  s.demands_ = demands;
  s.count_ = demands.size();
  return s;
}

DemandSource DemandSource::random_pairs(const Mesh& mesh, std::size_t count,
                                        std::uint64_t seed) {
  OBLV_REQUIRE(mesh.num_nodes() > 0, "cannot draw demands from an empty mesh");
  DemandSource s;
  s.mesh_ = &mesh;
  s.count_ = count;
  s.seed_ = splitmix64(seed);
  return s;
}

StreamAccountResult route_and_account(const Router& router,
                                      const DemandSource& source,
                                      ThreadPool& pool,
                                      const StreamAccountOptions& options,
                                      LoadAccountant& accountant,
                                      std::span<SegmentPath> out) {
  const WallTimer timer;
  const std::size_t n = source.size();
  const std::size_t block_size = accountant.block_size();
  OBLV_REQUIRE(block_size >= 1, "accountant block_size must be >= 1");
  OBLV_REQUIRE(out.empty() || out.size() == n,
               "the path span must hold one slot per demand");
  const bool keep_paths = !out.empty();
  StreamAccountResult result;
  result.packets = n;
  result.blocks = (n + block_size - 1) / block_size;
  if (n == 0) return result;

  // Workers claim BLOCKS (fixed size, thread-count independent), not
  // thread-count-derived chunks: the block partition is what makes the
  // folded accountant bit-identical for any pool size.
  const bool per_block_fold = accountant.mode() == AccountingMode::kSketch;
  std::atomic<std::size_t> cursor{0};
  oblv::Mutex fold_mu;
  auto worker = [&]() {
    const std::unique_ptr<LoadAccountant> shard = accountant.clone_empty();
    RouteScratch scratch;
    SegmentPath sp;
    bool charged = false;
    for (;;) {
      const std::size_t block = cursor.fetch_add(1);
      const std::size_t begin = block * block_size;
      if (begin >= n) break;
      const std::size_t end = std::min(n, begin + block_size);
      if (per_block_fold) shard->clear();
      charged = true;
      for (std::size_t i = begin; i < end; ++i) {
        const Demand d = source.demand(i);
        Rng rng = packet_rng(options.seed, i);
        SegmentPath& path = keep_paths ? out[i] : sp;
        router.route_segments_into(d.src, d.dst, rng, scratch, path);
        shard->add_segments(path);
      }
      if (per_block_fold) {
        oblv::MutexLock lock(fold_mu);
        accountant.fold_block(block, *shard);
      }
    }
    if (!per_block_fold && charged) {
      // Exact shards accumulate across blocks (clearing would cost an
      // O(E) memset per block) and merge once: sums commute.
      oblv::MutexLock lock(fold_mu);
      accountant.merge(*shard);
    }
  };

  const std::size_t workers = std::max<std::size_t>(1, pool.num_threads());
  for (std::size_t w = 0; w < workers; ++w) pool.submit(worker);
  pool.wait_idle();

  result.seconds = timer.elapsed_seconds();
  OBLV_COUNTER_ADD("stream.packets_routed", static_cast<std::int64_t>(n));
  OBLV_STAT_RECORD("stream.block_seconds",
                   result.seconds / static_cast<double>(result.blocks));
  return result;
}

}  // namespace oblivious
