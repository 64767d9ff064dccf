#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "parallel/route_batch.hpp"
#include "rng/rng.hpp"

namespace oblivious {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const std::uint64_t first = a.next_u64();
  a.next_u64();
  a.reseed(7);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, UniformBelowStaysInRange) {
  Rng rng(3);
  for (const std::uint64_t bound : {1ULL, 2ULL, 3ULL, 7ULL, 100ULL, 1000000007ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.uniform_below(bound), bound);
    }
  }
}

TEST(Rng, UniformBelowOneIsFreeAndZero) {
  Rng rng(3);
  BitMeter meter;
  rng.attach_meter(&meter);
  EXPECT_EQ(rng.uniform_below(1), 0U);
  EXPECT_EQ(meter.bits, 0U);
}

TEST(Rng, UniformBelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_below(5));
  EXPECT_EQ(seen.size(), 5U);
}

TEST(Rng, UniformBelowIsRoughlyUniform) {
  Rng rng(13);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_below(kBuckets)];
  // Chi-square with 7 dof; 40 is far beyond the 0.999 quantile (24.3).
  double chi2 = 0.0;
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (const int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 40.0);
}

TEST(Rng, NonPowerOfTwoBoundIsUnbiased) {
  Rng rng(17);
  constexpr int kDraws = 90000;
  int counts[3] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_below(3)];
  const double expected = kDraws / 3.0;
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, 5.0 * std::sqrt(expected));
  }
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BitsWidth) {
  Rng rng(9);
  for (int n = 0; n <= 64; n += 8) {
    const std::uint64_t v = rng.bits(n);
    if (n < 64) {
      EXPECT_LT(v, std::uint64_t{1} << n);
    }
  }
  EXPECT_EQ(rng.bits(0), 0U);
}

TEST(Rng, MeterChargesInformationContent) {
  Rng rng(21);
  BitMeter meter;
  rng.attach_meter(&meter);
  rng.uniform_below(8);  // exactly 3 bits
  EXPECT_EQ(meter.bits, 3U);
  rng.uniform_below(9);  // ceil(log2 9) = 4 bits
  EXPECT_EQ(meter.bits, 7U);
  rng.bits(10);
  EXPECT_EQ(meter.bits, 17U);
  EXPECT_EQ(meter.draws, 3U);
  meter.reset();
  EXPECT_EQ(meter.bits, 0U);
}

TEST(Rng, UnmeteredByDefault) {
  Rng rng(1);
  rng.uniform_below(100);  // must not crash without a meter
  SUCCEED();
}

TEST(Rng, CoinIsOneBit) {
  Rng rng(2);
  BitMeter meter;
  rng.attach_meter(&meter);
  (void)rng.coin();
  EXPECT_EQ(meter.bits, 1U);
}

TEST(Rng, RandomPermutationIsValid) {
  Rng rng(31);
  for (int n = 0; n <= 8; ++n) {
    const auto perm = rng.random_permutation(n);
    ASSERT_EQ(perm.size(), static_cast<std::size_t>(n));
    std::set<int> seen(perm.begin(), perm.end());
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
    for (const int x : perm) {
      EXPECT_GE(x, 0);
      EXPECT_LT(x, n);
    }
  }
}

TEST(Rng, RandomPermutationMixes) {
  Rng rng(37);
  // Over many draws every position should see every value.
  constexpr int kN = 4;
  int seen[kN][kN] = {};
  for (int trial = 0; trial < 400; ++trial) {
    const auto perm = rng.random_permutation(kN);
    for (int i = 0; i < kN; ++i) ++seen[i][perm[static_cast<std::size_t>(i)]];
  }
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) EXPECT_GT(seen[i][j], 0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  rng.shuffle(v.data(), v.size());
  std::set<int> seen(v.begin(), v.end());
  EXPECT_EQ(seen.size(), 100U);
}

TEST(Rng, ForkDiverges) {
  Rng a(5);
  Rng b = a.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

}  // namespace
}  // namespace oblivious
