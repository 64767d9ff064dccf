// Fails on any drift from the committed golden corpora:
// tests/golden/digests.tsv pins the routes (see golden_corpus.hpp) and
// tests/golden/sim_digests.tsv the simulators (see golden_sim_corpus.hpp)
// and tests/golden/sketch_digests.tsv sketch-mode load accounting (see
// golden_sketch_corpus.hpp).
// Each route entry is also routed through route_batch on two threads and
// must hash to the same segment output.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "golden_corpus.hpp"
#include "golden_sim_corpus.hpp"
#include "golden_sketch_corpus.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace oblivious {
namespace {

std::map<std::string, std::string> load_digests(const char* file) {
  std::ifstream in(file);
  std::map<std::string, std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines.emplace(line.substr(0, line.find('\t')), line);
  }
  return lines;
}

TEST(GoldenCorpus, EveryEntryMatchesItsDigest) {
  const auto digests = load_digests(OBLV_GOLDEN_DIGESTS);
  ASSERT_FALSE(digests.empty()) << "cannot read " << OBLV_GOLDEN_DIGESTS;
  ThreadPool pool(2);
  std::vector<SegmentPath> scalar;
  std::vector<SegmentPath> batch;
  std::size_t entries = 0;
  golden::for_each_case([&](Algorithm algorithm, const golden::MeshCase& mc,
                            const golden::WorkloadCase& wc,
                            std::uint64_t seed) {
    ++entries;
    const golden::Entry e = golden::route_entry(algorithm, mc, wc, seed, scalar);
    const auto it = digests.find(e.key);
    ASSERT_NE(it, digests.end()) << "no digest for " << e.key;
    EXPECT_EQ(e.line(), it->second);

    const auto router = make_router(algorithm, mc.mesh);
    RouteBatchOptions options;
    options.seed = seed;
    route_batch(*router, wc.problem.demands, pool, options, batch);
    EXPECT_EQ(golden::hash_paths(batch), e.seg_hash)
        << e.key << ": route_batch drifted from the scalar routes";
  });
  EXPECT_EQ(entries, digests.size()) << "digests.tsv lists stale entries";
}

TEST(GoldenCorpus, EverySimulationMatchesItsDigest) {
  const auto digests = load_digests(OBLV_GOLDEN_SIM_DIGESTS);
  ASSERT_FALSE(digests.empty()) << "cannot read " << OBLV_GOLDEN_SIM_DIGESTS;
  const std::vector<golden::SimEntry> entries = golden::sim_entries();
  for (const golden::SimEntry& e : entries) {
    const auto it = digests.find(e.key);
    ASSERT_NE(it, digests.end()) << "no digest for " << e.key;
    EXPECT_EQ(e.line(), it->second);
  }
  EXPECT_EQ(entries.size(), digests.size())
      << "sim_digests.tsv lists stale entries";
}

TEST(GoldenCorpus, EverySketchMatchesItsDigest) {
  obs::set_metrics_enabled(true);
  if (!obs::metrics_enabled()) {
    GTEST_SKIP() << "the churn field is read from the compiled-out metrics";
  }
  const auto digests = load_digests(OBLV_GOLDEN_SKETCH_DIGESTS);
  ASSERT_FALSE(digests.empty()) << "cannot read " << OBLV_GOLDEN_SKETCH_DIGESTS;
  const std::vector<golden::SketchEntry> entries = golden::sketch_entries();
  for (const golden::SketchEntry& e : entries) {
    const auto it = digests.find(e.key);
    ASSERT_NE(it, digests.end()) << "no digest for " << e.key;
    EXPECT_EQ(e.line(), it->second);
  }
  EXPECT_EQ(entries.size(), digests.size())
      << "sketch_digests.tsv lists stale entries";
}

}  // namespace
}  // namespace oblivious
