#include "core/partitioner.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/paper_example.hpp"
#include "masking/mask.hpp"
#include "misr/accounting.hpp"
#include "util/rng.hpp"

namespace xh {
namespace {

XMatrix random_xm(std::uint64_t seed, std::size_t chains, std::size_t len,
                  std::size_t patterns, double density) {
  Rng rng(seed);
  XMatrix::Builder xm({chains, len}, patterns);
  const auto target = static_cast<std::size_t>(
      density * static_cast<double>(chains * len) *
      static_cast<double>(patterns));
  while (xm.total_x() < target) {
    xm.add_x(rng.below(chains * len), rng.below(patterns));
  }
  return xm.freeze();
}

TEST(Partitioner, NoXGivesSinglePartition) {
  const XMatrix xm({2, 4}, 10);
  PartitionerConfig cfg;
  const PartitionResult r = partition_patterns(xm, cfg);
  EXPECT_EQ(r.num_partitions(), 1u);
  EXPECT_EQ(r.masked_x, 0u);
  EXPECT_EQ(r.leaked_x, 0u);
  EXPECT_TRUE(r.partitions[0] == BitVec(10, true));
}

TEST(Partitioner, AccountingIdentityHolds) {
  PartitionerConfig cfg;
  cfg.misr = {10, 2};
  const XMatrix xm = paper_example_x_matrix();
  const PartitionResult r = partition_patterns(xm, cfg);
  EXPECT_EQ(r.masked_x + r.leaked_x, xm.total_x());
  EXPECT_DOUBLE_EQ(r.total_bits, r.masking_bits + r.canceling_bits);
  EXPECT_DOUBLE_EQ(
      r.total_bits,
      hybrid_bits(xm.geometry(), r.num_partitions(), cfg.misr, r.leaked_x));
}

TEST(Partitioner, HistoryBitsStrictlyDecreaseOverAcceptedRounds) {
  PartitionerConfig cfg;
  cfg.misr = {10, 2};
  const PartitionResult r =
      partition_patterns(paper_example_x_matrix(), cfg);
  for (std::size_t i = 1; i < r.history.size(); ++i) {
    if (r.history[i].accepted) {
      EXPECT_LT(r.history[i].total_bits, r.history[i - 1].total_bits);
    }
  }
}

TEST(Partitioner, MasksAreSafeOnRandomWorkloads) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const XMatrix xm = random_xm(seed, 4, 8, 40, 0.05);
    PartitionerConfig cfg;
    cfg.misr = {16, 4};
    const PartitionResult r = partition_patterns(xm, cfg);
    // Every mask bit corresponds to a cell X in every pattern of its group.
    for (std::size_t i = 0; i < r.partitions.size(); ++i) {
      const std::size_t span = r.partitions[i].count();
      for (const std::size_t cell : r.masks[i].set_bits()) {
        EXPECT_EQ(xm.x_count_in(cell, r.partitions[i]), span);
      }
      EXPECT_TRUE(r.masks[i] == partition_mask(xm, r.partitions[i]));
    }
  }
}

TEST(Partitioner, PartitionsAlwaysDisjointCover) {
  for (std::uint64_t seed = 10; seed <= 14; ++seed) {
    const XMatrix xm = random_xm(seed, 3, 5, 25, 0.12);
    PartitionerConfig cfg;
    cfg.misr = {12, 3};
    const PartitionResult r = partition_patterns(xm, cfg);
    BitVec seen(25);
    for (const auto& p : r.partitions) {
      EXPECT_TRUE(p.any());
      EXPECT_FALSE(seen.intersects(p));
      seen |= p;
    }
    EXPECT_EQ(seen.count(), 25u);
  }
}

TEST(Partitioner, ProposedNeverWorseThanNoSplit) {
  // With the cost-function stop, the result is at most the unsplit cost.
  for (std::uint64_t seed = 20; seed <= 24; ++seed) {
    const XMatrix xm = random_xm(seed, 4, 6, 30, 0.08);
    PartitionerConfig cfg;
    cfg.misr = {16, 4};
    const PartitionResult r = partition_patterns(xm, cfg);
    EXPECT_LE(r.total_bits, r.history.front().total_bits + 1e-9);
  }
}

TEST(Partitioner, MaxRoundsCapsSplitCount) {
  PartitionerConfig cfg;
  cfg.misr = {10, 2};
  cfg.max_rounds = 1;
  const PartitionResult r =
      partition_patterns(paper_example_x_matrix(), cfg);
  EXPECT_EQ(r.num_partitions(), 2u);
}

TEST(Partitioner, ExhaustiveModeIgnoresCost) {
  PartitionerConfig cfg;
  cfg.misr = {10, 1};  // cost rule would stop after round 1
  cfg.stop_on_cost_increase = false;
  const PartitionResult r =
      partition_patterns(paper_example_x_matrix(), cfg);
  EXPECT_GE(r.num_partitions(), 3u);
}

TEST(Partitioner, SingletonGroupsOptionSplitsFurther) {
  PartitionerConfig cfg;
  cfg.misr = {10, 2};
  cfg.stop_on_cost_increase = false;
  cfg.allow_singleton_groups = true;
  const PartitionResult strict = partition_patterns(
      paper_example_x_matrix(),
      [] {
        PartitionerConfig c;
        c.misr = {10, 2};
        c.stop_on_cost_increase = false;
        return c;
      }());
  const PartitionResult relaxed =
      partition_patterns(paper_example_x_matrix(), cfg);
  EXPECT_GT(relaxed.num_partitions(), strict.num_partitions());
  // Exhaustive singleton splitting masks every X eventually.
  EXPECT_EQ(relaxed.leaked_x, 0u);
}

TEST(Partitioner, RandomCellChoiceIsDeterministicInSeed) {
  PartitionerConfig cfg;
  cfg.misr = {10, 2};
  cfg.cell_choice = SplitCellChoice::kRandom;
  cfg.seed = 77;
  const PartitionResult a =
      partition_patterns(paper_example_x_matrix(), cfg);
  const PartitionResult b =
      partition_patterns(paper_example_x_matrix(), cfg);
  ASSERT_EQ(a.num_partitions(), b.num_partitions());
  for (std::size_t i = 0; i < a.partitions.size(); ++i) {
    EXPECT_TRUE(a.partitions[i] == b.partitions[i]);
  }
}

TEST(Partitioner, RandomChoiceWithinGroupStillFindsPaperPartitions) {
  // Any of the three 4-X cells splits identically (they share a pattern
  // set), so the final partitions must match the deterministic run.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    PartitionerConfig cfg;
    cfg.misr = {10, 2};
    cfg.cell_choice = SplitCellChoice::kRandom;
    cfg.seed = seed;
    const PartitionResult r =
        partition_patterns(paper_example_x_matrix(), cfg);
    EXPECT_EQ(r.num_partitions(), 3u);
    EXPECT_EQ(r.masked_x, 23u);
  }
}

TEST(Partitioner, InvalidConfigRejected) {
  PartitionerConfig cfg;
  cfg.misr = {8, 8};
  EXPECT_THROW(partition_patterns(paper_example_x_matrix(), cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace xh
