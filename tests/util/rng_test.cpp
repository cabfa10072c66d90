#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>

namespace xh {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(5);
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, RangeRejectsInverted) {
  Rng rng(1);
  EXPECT_THROW(rng.range(3, -3), std::invalid_argument);
}

TEST(Rng, UniformIsInHalfOpenUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Rng, GaussianMoments) {
  Rng rng(19);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleWithoutReplacementDistinctSortedInRange) {
  Rng rng(29);
  for (int iter = 0; iter < 20; ++iter) {
    const auto picked = rng.sample_without_replacement(100, 20);
    ASSERT_EQ(picked.size(), 20u);
    EXPECT_TRUE(std::is_sorted(picked.begin(), picked.end()));
    std::set<std::size_t> uniq(picked.begin(), picked.end());
    EXPECT_EQ(uniq.size(), 20u);
    for (const auto p : picked) EXPECT_LT(p, 100u);
  }
}

TEST(Rng, SampleAllElements) {
  Rng rng(31);
  const auto picked = rng.sample_without_replacement(10, 10);
  ASSERT_EQ(picked.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(picked[i], i);
}

TEST(Rng, SampleMoreThanPopulationThrows) {
  Rng rng(31);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

// --- golden sequences -------------------------------------------------------
// Every generated workload and random-fill pattern depends on these exact
// draws, so a change to the generator or to below()'s rejection rule shows
// up here first. Each hash is an FNV-1a fold over whole 64-bit values.

std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

TEST(RngGolden, NextU64) {
  Rng rng(1);
  std::uint64_t h = kFnvBasis;
  for (int i = 0; i < 1000000; ++i) h = fnv_fold(h, rng.next_u64());
  EXPECT_EQ(h, 0x0d8f481a8ad8b7edULL);
}

TEST(RngGolden, Below) {
  // 2^63 + 1 rejects about half of its draws.
  const struct {
    std::uint64_t bound, hash;
  } kCases[] = {
      {1, 0x61b94018df3e37a5ULL},
      {3, 0xf536795b384a63bdULL},
      {3000, 0x286c9ad77199dc34ULL},
      {20202, 0x0ff9a2781af8cf74ULL},
      {(std::uint64_t{1} << 32) + 1, 0xa9629e40243d9d27ULL},
      {(std::uint64_t{1} << 63) + 1, 0x103fabde549c1810ULL},
  };
  for (const auto& c : kCases) {
    Rng rng(7);
    std::uint64_t h = kFnvBasis;
    for (int i = 0; i < 100000; ++i) h = fnv_fold(h, rng.below(c.bound));
    EXPECT_EQ(h, c.hash) << "below(" << c.bound << ")";
  }
}

}  // namespace
}  // namespace xh
