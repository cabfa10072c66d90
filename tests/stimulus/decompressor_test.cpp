#include "stimulus/decompressor.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace xh {
namespace {

StimulusDecompressor make(std::size_t seed_bits, ScanGeometry geo,
                          std::uint64_t phase_seed = 1) {
  return StimulusDecompressor(FeedbackPolynomial::primitive(seed_bits), geo,
                              phase_seed);
}

TEST(Decompressor, ExpandIsLinearInSeed) {
  const StimulusDecompressor d = make(16, {4, 10});
  Rng rng(3);
  for (int iter = 0; iter < 10; ++iter) {
    BitVec a(16);
    BitVec b(16);
    for (std::size_t i = 0; i < 16; ++i) {
      if (rng.chance(0.5)) a.set(i);
      if (rng.chance(0.5)) b.set(i);
    }
    EXPECT_TRUE((d.expand(a) ^ d.expand(b)) == d.expand(a ^ b));
  }
}

TEST(Decompressor, ZeroSeedLoadsZero) {
  const StimulusDecompressor d = make(16, {4, 10});
  EXPECT_TRUE(d.expand(BitVec(16)).none());
}

TEST(Decompressor, ExpansionMatchesCellDependencies) {
  const StimulusDecompressor d = make(12, {3, 7});
  Rng rng(9);
  BitVec seed(12);
  for (std::size_t i = 0; i < 12; ++i) {
    if (rng.chance(0.5)) seed.set(i);
  }
  const BitVec load = d.expand(seed);
  for (std::size_t cell = 0; cell < 21; ++cell) {
    EXPECT_EQ(load.get(cell),
              (d.cell_dependency(cell) & seed).count() % 2 != 0);
  }
}

TEST(Decompressor, SolveSeedSatisfiesCareBits) {
  const StimulusDecompressor d = make(24, {4, 16});
  Rng rng(17);
  for (int iter = 0; iter < 20; ++iter) {
    // Up to seed_bits - 4 random care bits with CONSISTENT values (sampled
    // from a real expansion, so a solution must exist).
    BitVec truth_seed(24);
    for (std::size_t i = 0; i < 24; ++i) {
      if (rng.chance(0.5)) truth_seed.set(i);
    }
    const BitVec truth = d.expand(truth_seed);
    BitVec mask(64);
    BitVec values(64);
    for (int k = 0; k < 20; ++k) {
      const std::size_t cell = rng.below(64);
      mask.set(cell);
      values.set(cell, truth.get(cell));
    }
    const auto seed = d.solve_seed(mask, values);
    ASSERT_TRUE(seed.has_value());
    const BitVec load = d.expand(*seed);
    for (const std::size_t cell : mask.set_bits()) {
      EXPECT_EQ(load.get(cell), values.get(cell));
    }
  }
}

TEST(Decompressor, AllDontCareSolvesTrivially) {
  const StimulusDecompressor d = make(16, {2, 8});
  const auto seed = d.solve_seed(BitVec(16), BitVec(16));
  ASSERT_TRUE(seed.has_value());
  EXPECT_EQ(seed->size(), 16u);
}

TEST(Decompressor, OverconstrainedRandomCareBitsEventuallyFail) {
  // 64 random care VALUES against a 16-bit seed: each extra constraint
  // halves the odds; across trials at least one must be unencodable.
  const StimulusDecompressor d = make(16, {4, 16});
  Rng rng(23);
  int failures = 0;
  for (int iter = 0; iter < 10; ++iter) {
    BitVec mask(64, true);
    BitVec values(64);
    for (std::size_t i = 0; i < 64; ++i) {
      if (rng.chance(0.5)) values.set(i);
    }
    if (!d.solve_seed(mask, values)) ++failures;
  }
  EXPECT_GT(failures, 0);
}

TEST(Decompressor, CompressionRoundTrip) {
  const ScanGeometry geo{4, 16};
  const StimulusDecompressor d = make(32, geo);
  // Patterns with a handful of care bits.
  Rng rng(31);
  std::vector<TestPattern> patterns;
  for (int i = 0; i < 12; ++i) {
    TestPattern p;
    p.pi = {Lv::k1, Lv::kX};
    p.scan_in.assign(geo.num_cells(), Lv::kX);
    for (int k = 0; k < 10; ++k) {
      p.scan_in[rng.below(geo.num_cells())] =
          rng.chance(0.5) ? Lv::k1 : Lv::k0;
    }
    patterns.push_back(p);
  }
  const CompressionResult r = compress_patterns(d, patterns);
  EXPECT_TRUE(r.failed_patterns.empty());
  ASSERT_EQ(r.seeds.size(), patterns.size());
  EXPECT_GT(r.compression_ratio(), 1.5);
  for (std::size_t i = 0; i < r.seeds.size(); ++i) {
    const TestPattern expanded = decompress_pattern(d, r.seeds[i]);
    ASSERT_EQ(expanded.scan_in.size(), geo.num_cells());
    for (std::size_t cell = 0; cell < geo.num_cells(); ++cell) {
      if (is_definite(patterns[i].scan_in[cell])) {
        EXPECT_EQ(expanded.scan_in[cell], patterns[i].scan_in[cell])
            << "pattern " << i << " cell " << cell;
      } else {
        EXPECT_TRUE(is_definite(expanded.scan_in[cell]))
            << "don't-cares must be filled";
      }
    }
    EXPECT_EQ(expanded.pi[0], Lv::k1);
    EXPECT_EQ(expanded.pi[1], Lv::k0) << "X PIs ride as 0";
  }
}

TEST(Decompressor, DifferentPhaseSeedsGiveDifferentNetworks) {
  const ScanGeometry geo{4, 8};
  const StimulusDecompressor a = make(16, geo, 1);
  const StimulusDecompressor b = make(16, geo, 2);
  BitVec seed(16);
  seed.set(5);
  EXPECT_FALSE(a.expand(seed) == b.expand(seed));
}

TEST(Decompressor, ArgumentValidation) {
  EXPECT_THROW(
      StimulusDecompressor(FeedbackPolynomial::primitive(8), {2, 4}, 1, 0),
      std::invalid_argument);
  EXPECT_THROW(
      StimulusDecompressor(FeedbackPolynomial::primitive(8), {2, 4}, 1, 9),
      std::invalid_argument);
  const StimulusDecompressor d = make(8, {2, 4});
  EXPECT_THROW(d.expand(BitVec(7)), std::invalid_argument);
  EXPECT_THROW(d.solve_seed(BitVec(7), BitVec(8)), std::invalid_argument);
}

// ---- golden pins ------------------------------------------------------------
// FNV-1a over every seed solve_seed returns (or a no-solution marker), per
// seed width, over care sets whose size straddles the width: under-,
// exactly and over-determined, with values read off a real expansion
// (consistent) or drawn at random (often inconsistent once over-
// determined). Where the system leaves seed bits free, the hash pins which
// solution is chosen.

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Gf2Golden, SolveSeed) {
  struct Case {
    std::size_t width;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {16, 0xce23a0c318f6670bULL}, {24, 0xef76af608d6cf8faULL},
      {32, 0x0b3294cbdf421ff9ULL}, {48, 0x41c9f39224e38b7aULL},
      {64, 0xa209a9c642732f72ULL},
  };
  const ScanGeometry geo{8, 24};
  int solved = 0;
  int refused = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE("seed width " + std::to_string(c.width));
    const StimulusDecompressor d = make(c.width, geo);
    Rng rng(c.width);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const std::size_t w = c.width;
    for (const std::size_t care : {w / 2, w - 1, w, w + 1, w + w / 2, 2 * w}) {
      for (const bool consistent : {true, false}) {
        BitVec truth_seed(w);
        for (std::size_t i = 0; i < w; ++i) truth_seed.set(i, rng.chance(0.5));
        const BitVec truth = d.expand(truth_seed);
        BitVec mask(geo.num_cells());
        BitVec values(geo.num_cells());
        for (const std::size_t cell :
             rng.sample_without_replacement(geo.num_cells(), care)) {
          mask.set(cell);
          values.set(cell, consistent ? truth.get(cell) : rng.chance(0.5));
        }
        const auto seed = d.solve_seed(mask, values);
        if (consistent) {
          ASSERT_TRUE(seed.has_value()) << care << " care bits";
        }
        if (!seed) {
          ++refused;
          h = fnv(h, ~0ULL);
          continue;
        }
        ++solved;
        h = fnv(h, seed->size());
        for (std::size_t i = 0; i < seed->word_count(); ++i) {
          h = fnv(h, seed->word(i));
        }
      }
    }
    EXPECT_EQ(h, c.hash) << std::hex << "0x" << h;
  }
  EXPECT_GT(solved, 0);
  EXPECT_GT(refused, 0);
}

}  // namespace
}  // namespace xh
