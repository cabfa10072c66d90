// XMatrixStore contract (DESIGN.md §12): the store must present the frozen
// X matrix as it is: same rows in ascending cell-id order, same counts, and
// count_in/hash_in/intersect_into agreeing bit for bit with the BitVec
// formulation the seed partitioner uses, for subsets spanning every word
// and for subsets whose words are zero outside a window (the PatternView
// range the probes read). The CSR section pins the store's raw word access
// into the matrix's own block; the accounting section pins the probe
// tallies the engine adds to it.
#include "storage/x_matrix_store.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/partition_engine.hpp"
#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "response/x_matrix.hpp"
#include "storage/store_factory.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

XMatrix random_matrix(std::uint64_t seed, std::size_t chains,
                      std::size_t length, std::size_t patterns,
                      double density) {
  WorkloadProfile profile;
  profile.name = "store-test";
  profile.geometry = {chains, length};
  profile.num_patterns = patterns;
  profile.x_density = density;
  profile.clustered_fraction = 0.5;
  // Clusters span about an eighth of the patterns. Narrower ones take
  // every cell of these small geometries before half the X budget is
  // placed, and the generator refuses a background with no room left.
  profile.cluster_cells_mean = 4;
  profile.cluster_patterns_mean = std::max<std::size_t>(4, patterns / 8);
  profile.seed = seed;
  return generate_workload(profile);
}

/// @p xm, with @p cell X-capturing under every pattern.
XMatrix with_full_row(const XMatrix& xm, std::size_t cell) {
  XMatrix::Builder b(xm.geometry(), xm.num_patterns());
  for (const std::size_t c : xm.x_cells()) b.append_row(c, xm.patterns_of(c));
  b.add_row(cell, BitVec(xm.num_patterns(), true));
  return b.freeze();
}

/// The seed partitioner's set_hash, restricted to (row & subset): the group
/// key hash_in must reproduce exactly — including the multiply step on
/// all-zero words.
std::uint64_t reference_hash(const BitVec& pats, const BitVec& subset) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t w = 0; w < subset.word_count(); ++w) {
    h ^= pats.word(w) & subset.word(w);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// A subset whose set bits lie only in the pattern words @p words, each of
/// them nonzero, so a PatternView of it spans exactly the first to the
/// last of them.
BitVec window_subset(std::size_t patterns,
                     const std::vector<std::size_t>& words, Rng& rng) {
  BitVec subset(patterns);
  for (const std::size_t w : words) {
    const std::size_t first = w * 64;
    const std::size_t last = std::min(patterns, first + 64);
    subset.set(first + static_cast<std::size_t>(rng.below(last - first)));
    for (std::size_t p = first; p < last; ++p) {
      if (rng.chance(0.5)) subset.set(p);
    }
  }
  return subset;
}

/// Checks every row's probes under @p subset against the BitVec
/// formulation.
void expect_probes_match(const XMatrix& xm, const XMatrixStore& store,
                         const BitVec& subset) {
  const PatternView view(subset);
  for (std::size_t r = 0; r < store.num_rows(); ++r) {
    const BitVec& pats = xm.patterns_of(store.cell_id(r));
    EXPECT_EQ(store.count_in(r, view), kernels::and_count(pats, subset));
    EXPECT_EQ(store.hash_in(r, view), reference_hash(pats, subset));
    BitVec expect = pats & subset;
    BitVec got;
    store.intersect_into(r, subset, &got);
    EXPECT_TRUE(got == expect);
  }
}

TEST(StoreContract, SnapshotMatchesSourceMatrixOnEveryBackend) {
  const XMatrix xm = random_matrix(11, 6, 9, 70, 0.05);
  const XMatrixStore store(xm);
  EXPECT_EQ(store.geometry(), xm.geometry());
  EXPECT_EQ(store.num_patterns(), xm.num_patterns());
  EXPECT_EQ(store.num_cells(), xm.num_cells());
  EXPECT_EQ(store.total_x(), xm.total_x());
  EXPECT_EQ(store.num_rows(), xm.x_cells().size());

  const auto cells = xm.x_cells();
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < store.num_rows(); ++r) {
    EXPECT_EQ(store.cell_id(r), cells[r]);
    EXPECT_EQ(store.x_count(r), xm.patterns_of(cells[r]).count());
    total += store.x_count(r);
  }
  EXPECT_EQ(total, store.total_x());
}

TEST(StoreContract, ProbesAgreeWithBitVecFormulationOnEveryBackend) {
  // Three pattern words, and six; both end in a partial tail word.
  for (const std::size_t patterns : {130u, 330u}) {
    // One cell X-captures under every pattern: all-ones words and a tail.
    const XMatrix xm =
        with_full_row(random_matrix(23, 4, 8, patterns, 0.08), 17);
    const std::size_t width = (patterns + 63) / 64;
    const std::size_t mid = width / 2;
    // The words each window-shaped subset sets: none, only the first, a
    // middle or the tail word, a block with zero words on both sides, and
    // two blocks separated by a zero word.
    std::vector<std::vector<std::size_t>> windows = {{}, {0}, {mid},
                                                     {width - 1}};
    std::vector<std::size_t> inner;
    std::vector<std::size_t> split;
    for (std::size_t w = 0; w < width; ++w) {
      if (w != 0 && w != width - 1) inner.push_back(w);
      if (w != mid) split.push_back(w);
    }
    windows.push_back(inner);
    windows.push_back(split);
    if (width >= 5) windows.push_back({1, 3});

    const XMatrixStore store(xm);
    SCOPED_TRACE(std::to_string(patterns) + " patterns");
    Rng rng(99);
    for (int iter = 0; iter < 20; ++iter) {
      BitVec subset(xm.num_patterns());
      for (std::size_t p = 0; p < subset.size(); ++p) {
        if (rng.chance(0.5)) subset.set(p);
      }
      expect_probes_match(xm, store, subset);
    }
    expect_probes_match(xm, store, BitVec(patterns, true));
    for (const std::vector<std::size_t>& words : windows) {
      const BitVec subset = window_subset(patterns, words, rng);
      const PatternView view(subset);
      SCOPED_TRACE("window of " + std::to_string(words.size()) +
                   " words from " +
                   std::to_string(words.empty() ? 0 : words.front()));
      if (words.empty()) {
        EXPECT_EQ(view.lo, view.hi);
      } else {
        EXPECT_EQ(view.lo, words.front());
        EXPECT_EQ(view.hi, words.back() + 1);
      }
      expect_probes_match(xm, store, subset);
    }
  }
}

TEST(StoreContract, SnapshotIsIndependentOfSourceMutation) {
  // A matrix is frozen, so its builder is the only source left to mutate:
  // what it records after freeze() goes into the next matrix, never into
  // the frozen one or a store over it.
  const XMatrix source = random_matrix(5, 3, 5, 40, 0.1);
  XMatrix::Builder builder(source.geometry(), source.num_patterns());
  for (const std::size_t cell : source.x_cells()) {
    builder.add_row(cell, source.patterns_of(cell));
  }
  const XMatrix xm = builder.freeze();
  const XMatrixStore store(xm);
  const std::uint64_t before = store.total_x();
  builder.add_x(0, 0);
  builder.add_x(1, 1);
  EXPECT_EQ(builder.freeze().total_x(), 2u);
  EXPECT_EQ(store.total_x(), before);
  EXPECT_TRUE(xm == source);
  for (std::size_t r = 0; r < store.num_rows(); ++r) {
    EXPECT_EQ(store.cell_id(r), source.x_cells()[r]);
    EXPECT_TRUE(std::equal(store.row_words(r),
                           store.row_words(r) + store.words_per_row(),
                           source.row_words(r)));
  }
}

TEST(StoreContract, EmptyMatrixHasNoRows) {
  const XMatrix xm({2, 4}, 10);
  const XMatrixStore store(xm);
  EXPECT_EQ(store.num_rows(), 0u);
  EXPECT_EQ(store.total_x(), 0u);
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.rows_touched, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
}

// The probes are pure reads; the engine adds its tallies to the store once
// per analysis, once per round and once per materialize(). So a second run
// on the same store doubles every counter, every round intersects once,
// and count_in is counted once for every candidate row an analysis swept
// plus every member row the result's masks were read from.
TEST(StoreContract, ProbeAccountingIsExactAndMonotonic) {
  const XMatrix xm = random_matrix(31, 4, 8, 96, 0.06);
  const XMatrixStore store(xm);
  ASSERT_GT(store.num_rows(), 0u);

  const BitVec all(xm.num_patterns(), true);
  const PatternView view(all);
  (void)store.count_in(0, view);
  (void)store.hash_in(0, view);
  BitVec out;
  store.intersect_into(0, all, &out);
  EXPECT_EQ(store.stats().rows_touched, 0u) << "a probe counts nothing";

  PartitionerConfig cfg;
  cfg.misr = {16, 4};
  cfg.stop_on_cost_increase = false;
  cfg.max_rounds = 6;
  Trace trace;
  const PartitionResult result =
      PartitionEngine(store, cfg, nullptr, &trace).run();
  const StoreStats once = store.stats();
  ASSERT_GT(once.probe_intersect, 0u);
  EXPECT_GT(once.probe_hash_in, 0u);
  EXPECT_EQ(once.rows_touched,
            once.probe_count_in + once.probe_hash_in + once.probe_intersect);

  (void)PartitionEngine(store, cfg).run();
  const StoreStats twice = store.stats();
  EXPECT_EQ(twice.probe_count_in, 2 * once.probe_count_in);
  EXPECT_EQ(twice.probe_hash_in, 2 * once.probe_hash_in);
  EXPECT_EQ(twice.probe_intersect, 2 * once.probe_intersect);
  EXPECT_EQ(twice.rows_touched, 2 * once.rows_touched);
  EXPECT_EQ(twice.resident_bytes, once.resident_bytes);

#ifndef XH_OBS_NOOP
  EXPECT_EQ(once.probe_intersect,
            trace.counter("engine.probes_attempted").value);
  std::uint64_t member_rows = 0;
  for (const BitVec& partition : result.partitions) {
    for (const std::size_t cell : xm.x_cells()) {
      if ((xm.patterns_of(cell) & partition).any()) ++member_rows;
    }
  }
  EXPECT_EQ(once.probe_count_in,
            trace.counter("engine.rows_examined").value + member_rows);
#endif
}

// --- CSR specifics -------------------------------------------------------

TEST(CsrStore, RowWordsReproduceTheSourceBitForBit) {
  const XMatrix xm = random_matrix(41, 6, 9, 70, 0.05);
  const XMatrixStore store(xm);
  const auto cells = xm.x_cells();
  for (std::size_t r = 0; r < store.num_rows(); ++r) {
    const BitVec& pats = xm.patterns_of(cells[r]);
    for (std::size_t w = 0; w < store.words_per_row(); ++w) {
      EXPECT_EQ(store.row_words(r)[w], pats.word(w));
    }
  }
  // Unpadded: cell id, X count and the row words, nothing else.
  EXPECT_EQ(store.stats().resident_bytes,
            store.num_rows() * (2 + store.words_per_row()) *
                sizeof(std::uint64_t));
}

TEST(CsrStore, BorrowsTheMatrixBlockAndOutlivesItsMove) {
  std::vector<XMatrix> matrices;
  matrices.push_back(random_matrix(43, 6, 9, 70, 0.05));
  const XMatrixStore store(matrices.front());
  ASSERT_GT(store.num_rows(), 0u);
  EXPECT_EQ(store.row_words(0), matrices.front().row_words(0))
      << "a csr store reads the matrix's own rows";
  const XMatrix copy = matrices.front();
  // Growing the vector moves the matrix; its block stays where it was.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    matrices.push_back(random_matrix(seed, 2, 3, 10, 0.2));
  }
  EXPECT_EQ(store.row_words(0), matrices.front().row_words(0));
  const XMatrix moved = std::move(matrices.front());
  EXPECT_EQ(store.row_words(0), moved.row_words(0));
  const BitVec all(copy.num_patterns(), true);
  const PatternView view(all);
  for (std::size_t r = 0; r < store.num_rows(); ++r) {
    EXPECT_EQ(store.cell_id(r), copy.x_cells()[r]);
    EXPECT_EQ(store.x_count(r), copy.row_counts()[r]);
    EXPECT_EQ(store.count_in(r, view), copy.row_counts()[r]);
  }
}

// --- make_store ----------------------------------------------------------

TEST(StoreFactory, EstimateScalesWithRowsAndPatternWords) {
  // A store reads 8 bytes of cell id, 8 of X count and 8 per pattern word
  // of every row.
  const auto resident = [](const XMatrix& xm) {
    return make_store(xm)->stats().resident_bytes;
  };
  EXPECT_EQ(resident(XMatrix({2, 5}, 64)), 0u);
  const auto ten_rows = [](std::size_t patterns) {
    XMatrix::Builder b({2, 5}, patterns);
    for (std::size_t cell = 0; cell < 10; ++cell) b.add_x(cell, cell);
    return b.freeze();
  };
  // 64 patterns fit one word, 65 take two.
  EXPECT_EQ(resident(ten_rows(64)), 10u * 3 * sizeof(std::uint64_t));
  EXPECT_EQ(resident(ten_rows(65)), 10u * 4 * sizeof(std::uint64_t));
}

}  // namespace
}  // namespace xh
