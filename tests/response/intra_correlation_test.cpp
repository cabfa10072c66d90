#include <gtest/gtest.h>

#include "response/x_stats.hpp"
#include "util/rng.hpp"

namespace xh {
namespace {

TEST(IntraCorrelation, EmptyMatrix) {
  const XMatrix xm({2, 5}, 4);
  const IntraCorrelation ic = analyze_intra_correlation(xm);
  EXPECT_EQ(ic.total_runs, 0u);
  EXPECT_EQ(ic.longest_run, 0u);
  EXPECT_DOUBLE_EQ(ic.mean_run_length, 0.0);
  EXPECT_DOUBLE_EQ(ic.adjacency_fraction, 0.0);
}

TEST(IntraCorrelation, SingleIsolatedX) {
  XMatrix::Builder b({1, 5}, 3);
  b.add_x(2, 1);
  const XMatrix xm = b.freeze();
  const IntraCorrelation ic = analyze_intra_correlation(xm);
  EXPECT_EQ(ic.total_runs, 1u);
  EXPECT_EQ(ic.longest_run, 1u);
  EXPECT_DOUBLE_EQ(ic.mean_run_length, 1.0);
  EXPECT_DOUBLE_EQ(ic.adjacency_fraction, 0.0);
}

TEST(IntraCorrelation, ContiguousBlockIsOneRun) {
  XMatrix::Builder b({1, 6}, 2);
  for (const std::size_t cell : {1u, 2u, 3u}) b.add_x(cell, 0);
  const XMatrix xm = b.freeze();
  const IntraCorrelation ic = analyze_intra_correlation(xm);
  EXPECT_EQ(ic.total_runs, 1u);
  EXPECT_EQ(ic.longest_run, 3u);
  EXPECT_DOUBLE_EQ(ic.mean_run_length, 3.0);
  EXPECT_DOUBLE_EQ(ic.adjacency_fraction, 1.0);
}

TEST(IntraCorrelation, RunsDoNotCrossChains) {
  // Cells 2 and 3 are adjacent indices but belong to different chains
  // (chain length 3: cells 0-2 chain 0, cells 3-5 chain 1).
  XMatrix::Builder b({2, 3}, 1);
  b.add_x(2, 0);
  b.add_x(3, 0);
  const XMatrix xm = b.freeze();
  const IntraCorrelation ic = analyze_intra_correlation(xm);
  EXPECT_EQ(ic.total_runs, 2u);
  EXPECT_EQ(ic.longest_run, 1u);
  EXPECT_DOUBLE_EQ(ic.adjacency_fraction, 0.0);
}

TEST(IntraCorrelation, SeparateRunsInOnePattern) {
  XMatrix::Builder b({1, 8}, 1);
  b.add_x(0, 0);
  b.add_x(1, 0);
  b.add_x(4, 0);
  const XMatrix xm = b.freeze();
  const IntraCorrelation ic = analyze_intra_correlation(xm);
  EXPECT_EQ(ic.total_runs, 2u);
  EXPECT_EQ(ic.longest_run, 2u);
  EXPECT_DOUBLE_EQ(ic.mean_run_length, 1.5);
  EXPECT_NEAR(ic.adjacency_fraction, 2.0 / 3.0, 1e-12);
}

TEST(IntraCorrelation, RunsCountedPerPattern) {
  XMatrix::Builder b({1, 4}, 3);
  // Pattern 0: run of 2; pattern 2: isolated X at the same place.
  b.add_x(1, 0);
  b.add_x(2, 0);
  b.add_x(1, 2);
  const XMatrix xm = b.freeze();
  const IntraCorrelation ic = analyze_intra_correlation(xm);
  EXPECT_EQ(ic.total_runs, 2u);
  EXPECT_EQ(ic.longest_run, 2u);
  EXPECT_DOUBLE_EQ(ic.mean_run_length, 1.5);
}

TEST(IntraCorrelation, FullChainRun) {
  XMatrix::Builder b({1, 5}, 2);
  for (std::size_t cell = 0; cell < 5; ++cell) b.add_x(cell, 1);
  const XMatrix xm = b.freeze();
  const IntraCorrelation ic = analyze_intra_correlation(xm);
  EXPECT_EQ(ic.longest_run, 5u);
  EXPECT_EQ(ic.total_runs, 1u);
  EXPECT_DOUBLE_EQ(ic.adjacency_fraction, 1.0);
}

TEST(IntraCorrelation, MatchesBruteForceOnRandomMatrix) {
  Rng rng(31);
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t chains = 1 + rng.below(4);
    const std::size_t len = 2 + rng.below(10);
    const std::size_t patterns = 1 + rng.below(6);
    XMatrix::Builder b({chains, len}, patterns);
    for (std::size_t c = 0; c < chains * len; ++c) {
      for (std::size_t p = 0; p < patterns; ++p) {
        if (rng.chance(0.3)) b.add_x(c, p);
      }
    }
    const XMatrix xm = b.freeze();
    // Brute force reference.
    std::size_t runs = 0;
    std::size_t longest = 0;
    std::size_t total = 0;
    std::size_t adjacent = 0;
    for (std::size_t p = 0; p < patterns; ++p) {
      for (std::size_t chain = 0; chain < chains; ++chain) {
        std::size_t run = 0;
        for (std::size_t pos = 0; pos <= len; ++pos) {
          const bool is_x =
              pos < len && xm.is_x(chain * len + pos, p);
          if (is_x) {
            ++run;
          } else if (run > 0) {
            ++runs;
            longest = std::max(longest, run);
            total += run;
            if (run > 1) adjacent += run;
            run = 0;
          }
        }
      }
    }
    const IntraCorrelation ic = analyze_intra_correlation(xm);
    EXPECT_EQ(ic.total_runs, runs);
    EXPECT_EQ(ic.longest_run, longest);
    if (runs > 0) {
      EXPECT_DOUBLE_EQ(ic.mean_run_length,
                       static_cast<double>(total) / static_cast<double>(runs));
    }
    if (total > 0) {
      EXPECT_DOUBLE_EQ(
          ic.adjacency_fraction,
          static_cast<double>(adjacent) / static_cast<double>(total));
    }
  }
}

}  // namespace
}  // namespace xh
