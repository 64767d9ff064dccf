// Differential tests of SpaceSavingLines against the map + lazy-heap
// oracle (space_saving_oracle.hpp): randomized key streams, interleaved
// merges, copies and reuse after clear(), with every tracked entry (key,
// count, error) and the eviction count compared after each phase.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/sketch/space_saving.hpp"
#include "rng/rng.hpp"
#include "space_saving_oracle.hpp"

namespace oblivious {
namespace {

using testing::SpaceSavingOracle;

constexpr std::size_t kCapacities[] = {1, 2, 3, 7, 64, 257};
constexpr int kPhases = 8;
constexpr int kAddsPerPhase = 3000;

enum class Stream { kUniform, kSkewed, kFewKeys };

// One key of a stream: uniform over 50k keys; 70% from a 32-key hot set
// and 30% uniform over 50k; or uniform over capacity + 3 keys, which
// keeps every slot contested by one or two outsiders.
std::uint64_t draw_key(Stream stream, std::size_t capacity, Rng& rng) {
  switch (stream) {
    case Stream::kUniform:
      return rng.uniform_below(50000);
    case Stream::kSkewed:
      return rng.uniform_below(10) < 7 ? 1000 + rng.uniform_below(32)
                                       : rng.uniform_below(50000);
    case Stream::kFewKeys:
      return rng.uniform_below(capacity + 3);
  }
  return 0;
}

// Small weights (like segment runs) so counts tie often and the key
// tie-break decides evictions; the few-key stream uses unit weights.
std::uint64_t draw_weight(Stream stream, Rng& rng) {
  return stream == Stream::kFewKeys ? 1 : 1 + rng.uniform_below(16);
}

void expect_same(const SpaceSavingLines& ss, const SpaceSavingOracle& oracle,
                 const std::string& where) {
  const auto got = ss.entries_sorted();
  const auto want = oracle.entries_sorted();
  ASSERT_EQ(got.size(), want.size()) << where;
  EXPECT_EQ(ss.size(), oracle.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key) << where << " entry " << i;
    EXPECT_EQ(got[i].count, want[i].count) << where << " entry " << i;
    EXPECT_EQ(got[i].error, want[i].error) << where << " entry " << i;
  }
  EXPECT_EQ(ss.evictions(), oracle.evictions()) << where;
}

// Two tracker/oracle pairs fed independent streams. Between phases the
// second pair folds into the first (as fold_block does), the first folds
// into the second, the second is cleared and reused, or the first is
// replaced by a copy that then carries on.
void run_differential(std::size_t capacity, Stream stream,
                      std::uint64_t seed) {
  Rng rng(seed);
  SpaceSavingLines a(capacity), b(capacity);
  SpaceSavingOracle oa(capacity), ob(capacity);
  for (int phase = 0; phase < kPhases; ++phase) {
    const std::string where = "capacity " + std::to_string(capacity) +
                              " stream " +
                              std::to_string(static_cast<int>(stream)) +
                              " phase " + std::to_string(phase);
    for (int i = 0; i < kAddsPerPhase; ++i) {
      const std::uint64_t key = draw_key(stream, capacity, rng);
      const std::uint64_t weight = draw_weight(stream, rng);
      if (rng.coin()) {
        a.add(key, weight);
        oa.add(key, weight);
      } else {
        b.add(key, weight);
        ob.add(key, weight);
      }
    }
    expect_same(a, oa, where + " (a)");
    expect_same(b, ob, where + " (b)");
    switch (phase % 4) {
      case 0:
        a.merge(b);
        oa.merge(ob);
        break;
      case 1:
        b.merge(a);
        ob.merge(oa);
        break;
      case 2:
        b.clear();
        ob.clear();
        break;
      case 3: {
        const SpaceSavingLines copy = a;
        a = copy;
        break;
      }
    }
    expect_same(a, oa, where + " after merge (a)");
    expect_same(b, ob, where + " after merge (b)");
  }
}

TEST(SpaceSavingSketch, MatchesOracleOnUniformKeys) {
  for (const std::size_t capacity : kCapacities) {
    run_differential(capacity, Stream::kUniform, 11 + capacity);
  }
}

TEST(SpaceSavingSketch, MatchesOracleOnSkewedKeys) {
  for (const std::size_t capacity : kCapacities) {
    run_differential(capacity, Stream::kSkewed, 23 + capacity);
  }
}

TEST(SpaceSavingSketch, MatchesOracleOnFewKeys) {
  for (const std::size_t capacity : kCapacities) {
    run_differential(capacity, Stream::kFewKeys, 37 + capacity);
  }
}

// A merge of a summary into itself doubles every count and error and
// truncates nothing; the copy taken first stands in for the alias.
TEST(SpaceSavingSketch, MatchesOracleOnSelfMergeAndEmptyMerge) {
  for (const std::size_t capacity : kCapacities) {
    Rng rng(41 + capacity);
    SpaceSavingLines ss(capacity), empty(capacity);
    SpaceSavingOracle oracle(capacity), oracle_empty(capacity);
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t key = rng.uniform_below(2 * capacity + 1);
      ss.add(key, 1 + (key % 5));
      oracle.add(key, 1 + (key % 5));
    }
    const SpaceSavingLines copy = ss;
    const SpaceSavingOracle oracle_copy = oracle;
    ss.merge(copy);
    oracle.merge(oracle_copy);
    expect_same(ss, oracle, "self merge, capacity " + std::to_string(capacity));
    ss.merge(empty);
    oracle.merge(oracle_empty);
    empty.merge(ss);
    oracle_empty.merge(oracle);
    expect_same(ss, oracle, "empty merge, capacity " + std::to_string(capacity));
    expect_same(empty, oracle_empty,
                "merge into empty, capacity " + std::to_string(capacity));
  }
}

}  // namespace
}  // namespace oblivious
