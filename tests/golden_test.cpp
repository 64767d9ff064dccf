// Fails on any drift from the committed golden corpus
// (tests/golden/digests.tsv; see golden_corpus.hpp for what an entry
// pins). Each entry is also routed through route_batch on two threads,
// whose default engine is the SoA kernel wherever it is supported, and
// must hash to the same segment output.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "golden_corpus.hpp"
#include "parallel/thread_pool.hpp"

namespace oblivious {
namespace {

std::map<std::string, std::string> load_digests() {
  std::ifstream in(OBLV_GOLDEN_DIGESTS);
  std::map<std::string, std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines.emplace(line.substr(0, line.find('\t')), line);
  }
  return lines;
}

TEST(GoldenCorpus, EveryEntryMatchesItsDigest) {
  const auto digests = load_digests();
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

}  // namespace
}  // namespace oblivious
