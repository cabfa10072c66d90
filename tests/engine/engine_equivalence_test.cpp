// Randomized equivalence suite: the incremental PartitionEngine must be
// bit-identical to the retained seed partitioner (the oracle) — same split
// history, same partitions, same masks, same control-bit totals — for any
// geometry, density, seed and split-cell policy, and for any thread-pool
// size. This is the contract that lets partition_patterns() delegate to the
// engine without a behavioral release note.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/partitioner.hpp"
#include "engine/partition_engine.hpp"
#include "engine/pipeline_context.hpp"
#include "obs/trace.hpp"
#include "storage/x_matrix_store.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

/// A random profile's matrix. The generator refuses about one profile in
/// six drawn here: its background X's do not fit on the X-prone cells the
/// clusters left free. Such a profile is drawn again.
XMatrix random_matrix(Rng& rng) {
  for (int attempt = 1;; ++attempt) {
    WorkloadProfile profile;
    profile.name = "equiv";
    profile.geometry = {2 + static_cast<std::size_t>(rng.below(14)),
                        4 + static_cast<std::size_t>(rng.below(28))};
    profile.num_patterns = 16 + static_cast<std::size_t>(rng.below(180));
    profile.x_density = 0.005 + 0.10 * rng.uniform();
    profile.clustered_fraction = rng.uniform();
    profile.cluster_cells_mean =
        2 + static_cast<std::size_t>(rng.below(12));
    profile.cluster_patterns_mean =
        2 + static_cast<std::size_t>(rng.below(12));
    profile.seed = rng.next_u64();
    try {
      return generate_workload(profile);
    } catch (const std::invalid_argument&) {
      if (attempt == 20) throw;
    }
  }
}

void expect_identical(const PartitionResult& want, const PartitionResult& got,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(want.partitions.size(), got.partitions.size());
  for (std::size_t i = 0; i < want.partitions.size(); ++i) {
    EXPECT_TRUE(want.partitions[i] == got.partitions[i]) << "partition " << i;
    EXPECT_TRUE(want.masks[i] == got.masks[i]) << "mask " << i;
  }
  EXPECT_EQ(want.masked_x, got.masked_x);
  EXPECT_EQ(want.leaked_x, got.leaked_x);
  EXPECT_EQ(want.total_bits, got.total_bits);
  EXPECT_EQ(want.masking_bits, got.masking_bits);
  EXPECT_EQ(want.canceling_bits, got.canceling_bits);
  ASSERT_EQ(want.history.size(), got.history.size());
  for (std::size_t i = 0; i < want.history.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    EXPECT_EQ(want.history[i].round, got.history[i].round);
    EXPECT_EQ(want.history[i].num_partitions, got.history[i].num_partitions);
    EXPECT_EQ(want.history[i].masked_x, got.history[i].masked_x);
    EXPECT_EQ(want.history[i].leaked_x, got.history[i].leaked_x);
    EXPECT_EQ(want.history[i].total_bits, got.history[i].total_bits);
    EXPECT_EQ(want.history[i].split_cell, got.history[i].split_cell);
    EXPECT_EQ(want.history[i].accepted, got.history[i].accepted);
  }
}

// The core satellite requirement: >= 50 random (geometry, density, seed,
// SplitCellChoice) combinations, each checked field by field against the
// seed oracle, through both the engine and the partition_patterns wrapper.
TEST(EngineEquivalence, MatchesSeedPartitionerOnRandomWorkloads) {
  Rng rng(20260805);
  for (int iter = 0; iter < 56; ++iter) {
    const XMatrix xm = random_matrix(rng);
    PartitionerConfig cfg;
    cfg.misr = {8 + static_cast<std::size_t>(rng.below(48)),
                2 + static_cast<std::size_t>(rng.below(6))};
    cfg.cell_choice = (iter % 2 == 0) ? SplitCellChoice::kLowestIndex
                                      : SplitCellChoice::kRandom;
    cfg.allow_singleton_groups = iter % 5 == 0;
    cfg.seed = rng.next_u64();
    const std::string label =
        "iter " + std::to_string(iter) + " cells " +
        std::to_string(xm.num_cells()) + " patterns " +
        std::to_string(xm.num_patterns()) + " x " +
        std::to_string(xm.total_x());

    const PartitionResult want = partition_patterns_reference(xm, cfg);
    expect_identical(want, partition_patterns(xm, cfg), label + " wrapper");

    const XMatrixStore store(xm);
    PartitionEngine engine(store, cfg);
    expect_identical(want, engine.run(), label + " engine");
  }
}

// Exhaustive splitting (no cost-based stop) exercises deep split trees and
// the max_rounds bound on both implementations.
TEST(EngineEquivalence, MatchesSeedWhenSplittingExhaustively) {
  Rng rng(777);
  for (int iter = 0; iter < 8; ++iter) {
    const XMatrix xm = random_matrix(rng);
    PartitionerConfig cfg;
    cfg.misr = {32, 7};
    cfg.stop_on_cost_increase = false;
    cfg.max_rounds = 1 + static_cast<std::size_t>(rng.below(30));
    cfg.cell_choice =
        iter % 2 == 0 ? SplitCellChoice::kRandom : SplitCellChoice::kLowestIndex;
    cfg.seed = rng.next_u64();
    expect_identical(partition_patterns_reference(xm, cfg),
                     partition_patterns(xm, cfg),
                     "exhaustive iter " + std::to_string(iter));
  }
}

// Pool-backed analysis must produce the same bits as the serial path for
// any lane count: chunk boundaries are deterministic and chunk results are
// merged in chunk order.
TEST(EngineEquivalence, PoolSizeDoesNotChangeTheResult) {
  Rng rng(4242);
  for (int iter = 0; iter < 6; ++iter) {
    const XMatrix xm = random_matrix(rng);
    PartitionerConfig cfg;
    cfg.misr = {32, 7};
    cfg.cell_choice = SplitCellChoice::kRandom;
    cfg.seed = rng.next_u64();
    const XMatrixStore store(xm);
    PartitionEngine serial(store, cfg, nullptr);
    const PartitionResult want = serial.run();
    for (const std::size_t lanes : {2u, 3u, 5u}) {
      ThreadPool pool(lanes);
      PartitionEngine engine(store, cfg, &pool);
      expect_identical(want, engine.run(),
                       "iter " + std::to_string(iter) + " lanes " +
                           std::to_string(lanes));
    }
  }
}

// The pool tests above stay below the 2048-row fan-out grain, so each of
// their sweeps is one chunk. This matrix has over twice that many X rows,
// so the root analysis and the large children of the first splits run
// several chunks whose records are joined in chunk order. The engine
// tallies its probes where the chunks join, so each run's store counts
// the same probes at every pool size.
TEST(EngineEquivalence, MultiChunkSweepsMatchSerialAndSeed) {
  WorkloadProfile profile;
  profile.name = "multi-chunk";
  profile.geometry = {32, 224};
  profile.num_patterns = 64;
  profile.x_density = 0.05;
  profile.clustered_fraction = 0.9;
  profile.cluster_cells_mean = 16;
  profile.cluster_patterns_mean = 5;
  profile.seed = 2048;
  const XMatrix xm = generate_workload(profile);
  const XMatrixStore store(xm);
  ASSERT_GT(store.num_rows(), 2u * 2048);

  PartitionerConfig cfg;
  cfg.misr = {32, 7};
  cfg.stop_on_cost_increase = false;  // no split pays for its mask here
  cfg.max_rounds = 5;
  cfg.cell_choice = SplitCellChoice::kRandom;
  cfg.seed = 17;
  const PartitionResult want = partition_patterns_reference(xm, cfg);
  ASSERT_EQ(want.history.size(), cfg.max_rounds + 1);
  PartitionEngine serial(store, cfg);
  expect_identical(want, serial.run(), "serial engine");
  const StoreStats serial_probes = store.stats();
  ASSERT_GT(serial_probes.probe_intersect, 0u);
  for (const std::size_t lanes : {2u, 3u, 5u}) {
    const std::string label = "lanes " + std::to_string(lanes);
    const XMatrixStore pooled_store(xm);
    ThreadPool pool(lanes);
    Trace trace;
    PartitionEngine engine(pooled_store, cfg, &pool, &trace);
    expect_identical(want, engine.run(), label);
    const StoreStats probes = pooled_store.stats();
    EXPECT_EQ(probes.probe_count_in, serial_probes.probe_count_in) << label;
    EXPECT_EQ(probes.probe_hash_in, serial_probes.probe_hash_in) << label;
    EXPECT_EQ(probes.probe_intersect, serial_probes.probe_intersect) << label;
    EXPECT_EQ(probes.rows_touched, serial_probes.rows_touched) << label;
#ifndef XH_OBS_NOOP
    // Each analysis adds its chunk count: a surplus means some ran two or
    // more chunks.
    EXPECT_GT(trace.counter("engine.pool_tasks").value,
              trace.counter("engine.cell_analyses").value)
        << label;
#endif
  }
}

// Two groups tie on score, size and X count, so only the group key can
// decide. The seed walks its (count, hash)-ordered map and keeps the first
// of equally ranked groups: the one with the smaller hash. Each pair of
// groups is laid out twice, smaller-hash group on the lower cell ids and
// then on the higher ones, so neither row order nor any fixed slot order
// can pass for the rule.
TEST(EngineEquivalence, TiedGroupsResolveLikeTheSeed) {
  constexpr std::size_t kPatterns = 100;  // two pattern words
  const std::vector<std::size_t> low_cells = {0, 1, 2};
  const std::vector<std::size_t> high_cells = {5, 6, 7};
  const auto build = [&](const std::vector<std::size_t>& low_set,
                         const std::vector<std::size_t>& high_set) {
    XMatrix::Builder xm({1, 8}, kPatterns);
    for (const std::size_t cell : low_cells) {
      for (const std::size_t p : low_set) xm.add_x(cell, p);
    }
    for (const std::size_t cell : high_cells) {
      for (const std::size_t p : high_set) xm.add_x(cell, p);
    }
    return xm.freeze();
  };
  const std::vector<std::vector<std::vector<std::size_t>>> pairs = {
      {{0, 1, 2, 70}, {3, 64, 65, 99}},
      {{10, 11}, {80, 81}},
      {{5, 33, 64, 97, 98}, {6, 34, 66, 90, 91}},
  };
  for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
    // The groups' keys on the unsplit root partition, from the store the
    // engine probes: rows 0 and 3 are the first cells of the two groups.
    const XMatrix probe = build(pairs[pi][0], pairs[pi][1]);
    const XMatrixStore probe_store(probe);
    const BitVec all(kPatterns, true);
    const PatternView root(all);
    ASSERT_EQ(probe_store.count_in(0, root), probe_store.count_in(3, root));
    const std::uint64_t hash_first = probe_store.hash_in(0, root);
    const std::uint64_t hash_second = probe_store.hash_in(3, root);
    ASSERT_NE(hash_first, hash_second);
    const auto& smaller = pairs[pi][hash_first < hash_second ? 0 : 1];
    const auto& larger = pairs[pi][hash_first < hash_second ? 1 : 0];

    for (const bool smaller_low : {true, false}) {
      const XMatrix xm =
          smaller_low ? build(smaller, larger) : build(larger, smaller);
      const std::vector<std::size_t>& winners =
          smaller_low ? low_cells : high_cells;
      for (const SplitCellChoice choice :
           {SplitCellChoice::kLowestIndex, SplitCellChoice::kRandom}) {
        const std::string label =
            "pair " + std::to_string(pi) +
            (smaller_low ? " smaller-hash low" : " smaller-hash high") +
            (choice == SplitCellChoice::kRandom ? " random" : " lowest");
        PartitionerConfig cfg;
        cfg.misr = {32, 7};
        cfg.cell_choice = choice;
        cfg.seed = 5 + pi;
        const XMatrixStore store(xm);
        PartitionEngine engine(store, cfg);
        const PartitionResult got = engine.run();
        ASSERT_GE(got.history.size(), 2u) << label;
        const std::size_t split = got.history[1].split_cell;
        EXPECT_NE(std::find(winners.begin(), winners.end(), split),
                  winners.end())
            << label << ": split cell " << split;
        expect_identical(partition_patterns_reference(xm, cfg), got, label);
      }
    }
  }
}

// The context-routed entry point is the same computation.
TEST(EngineEquivalence, ContextEntryPointMatchesWrapper) {
  Rng rng(99);
  const XMatrix xm = random_matrix(rng);
  PartitionerConfig cfg;
  cfg.misr = {24, 5};
  cfg.seed = 31337;
  PipelineContext ctx(cfg);
  expect_identical(partition_patterns(xm, cfg), run_partitioning(xm, ctx),
                   "context");
}

// A rejected probe must leave the engine state untouched: same partitions,
// same masked total, and materialize() unchanged except for the recorded
// rejection round.
TEST(EngineEquivalence, RejectedProbeIsIdempotent) {
  Rng rng(5150);
  int rejected_seen = 0;
  for (int iter = 0; iter < 40 && rejected_seen < 5; ++iter) {
    const XMatrix xm = random_matrix(rng);
    PartitionerConfig cfg;
    cfg.misr = {16, 3};  // small MISR: leaking is cheap, rejections common
    cfg.seed = rng.next_u64();
    const XMatrixStore store(xm);
    PartitionEngine engine(store, cfg);
    while (true) {
      const std::size_t parts_before = engine.num_partitions();
      const std::uint64_t masked_before = engine.masked_x();
      std::vector<BitVec> patterns_before;
      for (std::size_t i = 0; i < parts_before; ++i) {
        patterns_before.push_back(engine.partition_patterns_of(i));
      }
      const PartitionEngine::StepOutcome out = engine.step();
      if (out == PartitionEngine::StepOutcome::kSplit) continue;
      if (out == PartitionEngine::StepOutcome::kRejected) {
        ++rejected_seen;
        EXPECT_EQ(engine.num_partitions(), parts_before);
        EXPECT_EQ(engine.masked_x(), masked_before);
        for (std::size_t i = 0; i < parts_before; ++i) {
          EXPECT_TRUE(engine.partition_patterns_of(i) == patterns_before[i]);
        }
        EXPECT_FALSE(engine.history().back().accepted);
        EXPECT_TRUE(engine.finished());
        // Further stepping is inert and consumes no randomness.
        EXPECT_EQ(engine.step(), PartitionEngine::StepOutcome::kExhausted);
        EXPECT_EQ(engine.num_partitions(), parts_before);
      }
      break;
    }
  }
  EXPECT_GE(rejected_seen, 1);
}

}  // namespace
}  // namespace xh
