#include "masking/mask.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/paper_example.hpp"
#include "util/diagnostics.hpp"
#include "util/rng.hpp"

namespace xh {
namespace {

BitVec patterns_of(std::size_t width, std::initializer_list<std::size_t> set) {
  BitVec v(width);
  for (const std::size_t p : set) v.set(p);
  return v;
}

TEST(PartitionMask, OnlyAllXCellsMasked) {
  const XMatrix xm = paper_example_x_matrix();
  // Partition 2 of the paper = patterns {2,3,7,8} (indices {1,2,6,7}):
  // only SC4 cell 3 is X in all four.
  const BitVec mask = partition_mask(xm, patterns_of(8, {1, 2, 6, 7}));
  EXPECT_EQ(mask.count(), 1u);
  EXPECT_TRUE(mask.get(PaperExampleCells::sc4_c2));
}

TEST(PartitionMask, Partition3MasksFiveCells) {
  const XMatrix xm = paper_example_x_matrix();
  // Partition 3 = paper patterns {1,4,5} (indices {0,3,4}).
  const BitVec mask = partition_mask(xm, patterns_of(8, {0, 3, 4}));
  EXPECT_EQ(mask.count(), 5u);
  EXPECT_TRUE(mask.get(PaperExampleCells::sc1_c0));
  EXPECT_TRUE(mask.get(PaperExampleCells::sc2_c0));
  EXPECT_TRUE(mask.get(PaperExampleCells::sc3_c0));
  EXPECT_TRUE(mask.get(PaperExampleCells::sc4_c2));
  EXPECT_TRUE(mask.get(PaperExampleCells::sc5_c1));
  // The paper's explicit negative example: SC5 cell 2 must NOT be masked in
  // Partition 2 (it would destroy a non-X value).
  EXPECT_FALSE(
      partition_mask(xm, patterns_of(8, {1, 2, 6, 7})).get(
          PaperExampleCells::sc5_c1));
}

TEST(PartitionMask, SingletonPartitionMasksAllItsXs) {
  const XMatrix xm = paper_example_x_matrix();
  // Partition 4 = paper pattern {6} (index {5}).
  const BitVec mask = partition_mask(xm, patterns_of(8, {5}));
  EXPECT_EQ(mask.count(), 4u);
  EXPECT_TRUE(mask.get(PaperExampleCells::sc1_c0));
  EXPECT_TRUE(mask.get(PaperExampleCells::sc2_c0));
  EXPECT_TRUE(mask.get(PaperExampleCells::sc3_c0));
  EXPECT_TRUE(mask.get(PaperExampleCells::sc5_c2));
}

TEST(PartitionMask, EmptyPartitionRejected) {
  const XMatrix xm = paper_example_x_matrix();
  EXPECT_THROW(partition_mask(xm, BitVec(8)), std::invalid_argument);
  EXPECT_THROW(partition_mask(xm, BitVec(5, true)), std::invalid_argument);
}

TEST(MaskedXCount, MatchesPaperNumbers) {
  const XMatrix xm = paper_example_x_matrix();
  EXPECT_EQ(masked_x_count(xm, patterns_of(8, {1, 2, 6, 7})), 4u);
  EXPECT_EQ(masked_x_count(xm, patterns_of(8, {0, 3, 4})), 15u);
  EXPECT_EQ(masked_x_count(xm, patterns_of(8, {5})), 4u);
  // Total masked = 23, leaked = 5 — the Section 4 result.
  EXPECT_EQ(xm.total_x() - 23u, 5u);
}

TEST(ApplyMask, MaskedCellsBecomeZero) {
  ResponseMatrix rm = paper_example_response(7);
  const XMatrix xm = XMatrix::from_response(rm);
  const BitVec partition = patterns_of(8, {0, 3, 4});
  const BitVec mask = partition_mask(xm, partition);
  apply_mask(rm, partition, mask);
  for (const std::size_t p : partition.set_bits()) {
    for (const std::size_t c : mask.set_bits()) {
      EXPECT_EQ(rm.get(p, c), Lv::k0);
    }
  }
  // Untouched patterns keep their X's.
  EXPECT_TRUE(rm.is_x(1, PaperExampleCells::sc4_c2));
}

TEST(ApplyMask, WidthChecked) {
  ResponseMatrix rm = paper_example_response(7);
  EXPECT_THROW(apply_mask(rm, BitVec(9), BitVec(15)), std::invalid_argument);
  EXPECT_THROW(apply_mask(rm, BitVec(8), BitVec(14)), std::invalid_argument);
}

TEST(ObservabilityCheck, AcceptsSafeMasks) {
  const ResponseMatrix rm = paper_example_response(3);
  const XMatrix xm = XMatrix::from_response(rm);
  const std::vector<BitVec> partitions = {patterns_of(8, {0, 3, 4}),
                                          patterns_of(8, {5}),
                                          patterns_of(8, {1, 2, 6, 7})};
  std::vector<BitVec> masks;
  for (const auto& p : partitions) masks.push_back(partition_mask(xm, p));
  EXPECT_EQ(count_mask_violations(rm, partitions, masks), 0u);
}

TEST(ObservabilityCheck, RejectsUnsafeMask) {
  const ResponseMatrix rm = paper_example_response(3);
  // Masking SC5 cell 2 across Partition 2 kills a non-X (the paper's own
  // counter-example).
  BitVec mask(15);
  mask.set(PaperExampleCells::sc5_c1);
  const BitVec partition = patterns_of(8, {1, 2, 6, 7});
  std::uint64_t non_x = 0;
  for (const std::size_t p : partition.set_bits()) {
    if (!rm.is_x(p, PaperExampleCells::sc5_c1)) ++non_x;
  }
  ASSERT_GT(non_x, 0u);
  EXPECT_EQ(count_mask_violations(rm, {partition}, {mask}), non_x);
}

TEST(ObservabilityCheck, SizeMismatchRejected) {
  const ResponseMatrix rm = paper_example_response(3);
  EXPECT_THROW(count_mask_violations(rm, {BitVec(8, true)}, {}),
               std::invalid_argument);
  // A mask or partition of the wrong width is refused by name.
  const auto refusal = [&](const BitVec& partition, const BitVec& mask) {
    try {
      (void)count_mask_violations(rm, {partition}, {mask});
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(refusal(BitVec(8, true), BitVec(14)).find("mask width"),
            std::string::npos);
  EXPECT_NE(refusal(BitVec(9, true), BitVec(15)).find("partition width"),
            std::string::npos);
}

TEST(XMaskingOnly, ControlBitsAndFullCleaning) {
  ResponseMatrix rm = paper_example_response(5);
  EXPECT_EQ(XMaskingOnly::control_bits(rm.geometry(), rm.num_patterns()),
            120u);  // 3 · 5 · 8 — the paper's "120 control bits"
  EXPECT_EQ(rm.total_x(), 28u);
  XMaskingOnly::apply(rm);
  EXPECT_EQ(rm.total_x(), 0u);
}

// ---------------------------------------------------------------------------
// apply_mask, count_mask_violations and XMaskingOnly::apply work one pattern
// at a time by word. These pin them against the per-cell loops they replace,
// kept here as the reference, on random responses whose cell count is not a
// multiple of 64.

void apply_mask_per_cell(ResponseMatrix& rm, const BitVec& partition,
                         const BitVec& mask) {
  const auto cells = mask.set_bits();
  for (const std::size_t p : partition.set_bits()) {
    for (const std::size_t c : cells) rm.set(p, c, Lv::k0);
  }
}

std::uint64_t count_mask_violations_per_cell(
    const ResponseMatrix& rm, const std::vector<BitVec>& partitions,
    const std::vector<BitVec>& masks, Diagnostics* diags) {
  std::uint64_t violations = 0;
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const auto cells = masks[i].set_bits();
    for (const std::size_t p : partitions[i].set_bits()) {
      for (const std::size_t c : cells) {
        if (rm.is_x(p, c)) continue;
        ++violations;
        diag_report(diags, DiagSeverity::kWarning, DiagKind::kMaskHidesValue,
                    "pattern " + std::to_string(p) + " cell " +
                        std::to_string(c),
                    "partition " + std::to_string(i) +
                        " mask hides an observable value (declared X "
                        "resolved deterministic)");
      }
    }
  }
  return violations;
}

ResponseMatrix random_response(ScanGeometry geo, std::size_t patterns,
                               double x_density, Rng& rng) {
  ResponseMatrix rm(geo, patterns);
  for (std::size_t p = 0; p < patterns; ++p) {
    for (std::size_t c = 0; c < rm.num_cells(); ++c) {
      Lv v = Lv::kX;
      if (!rng.chance(x_density)) v = rng.chance(0.5) ? Lv::k1 : Lv::k0;
      rm.set(p, c, v);
    }
  }
  return rm;
}

/// Random pattern groups covering every pattern once, each with its safe
/// mask; with @p unsafe_cells > 0, that many random cells are added to
/// every mask, so some hide values.
void random_masks(const ResponseMatrix& rm, std::size_t groups,
                  std::size_t unsafe_cells, Rng& rng,
                  std::vector<BitVec>& partitions, std::vector<BitVec>& masks) {
  const XMatrix xm = XMatrix::from_response(rm);
  partitions.assign(groups, BitVec(rm.num_patterns()));
  for (std::size_t p = 0; p < rm.num_patterns(); ++p) {
    partitions[p < groups ? p : rng.below(groups)].set(p);
  }
  masks.clear();
  for (const BitVec& partition : partitions) {
    BitVec mask = partition_mask(xm, partition);
    for (std::size_t k = 0; k < unsafe_cells; ++k) {
      mask.set(rng.below(rm.num_cells()));
    }
    masks.push_back(std::move(mask));
  }
}

void expect_same_planes(const ResponseMatrix& a, const ResponseMatrix& b) {
  ASSERT_EQ(a.num_patterns(), b.num_patterns());
  for (std::size_t p = 0; p < a.num_patterns(); ++p) {
    EXPECT_EQ(a.x_row(p), b.x_row(p)) << "pattern " << p;
    EXPECT_EQ(a.value_row(p), b.value_row(p)) << "pattern " << p;
  }
}

void expect_same_diagnostics(const Diagnostics& a, const Diagnostics& b) {
  EXPECT_EQ(a.count(DiagKind::kMaskHidesValue),
            b.count(DiagKind::kMaskHidesValue));
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t k = 0; k < a.records().size(); ++k) {
    EXPECT_EQ(a.records()[k].to_string(), b.records()[k].to_string());
  }
}

TEST(MaskingEquivalence, WordLevelMatchesPerCellReference) {
  Rng rng(2301);
  std::uint64_t hiding_cases = 0;
  for (const ScanGeometry geo : {ScanGeometry{7, 23}, ScanGeometry{13, 11},
                                 ScanGeometry{3, 50}, ScanGeometry{1, 65}}) {
    ASSERT_NE(geo.num_cells() % 64, 0u);
    for (const std::size_t unsafe : {0u, 1u, 2u}) {
      const ResponseMatrix rm = random_response(geo, 37, 0.3, rng);
      std::vector<BitVec> partitions;
      std::vector<BitVec> masks;
      random_masks(rm, 5, unsafe, rng, partitions, masks);

      Diagnostics word_diags;
      Diagnostics cell_diags;
      const std::uint64_t violations =
          count_mask_violations(rm, partitions, masks, &word_diags);
      EXPECT_EQ(violations, count_mask_violations_per_cell(
                                rm, partitions, masks, &cell_diags));
      EXPECT_EQ(count_mask_violations(rm, partitions, masks), violations);
      expect_same_diagnostics(word_diags, cell_diags);
      // Under the per-kind record cap, so every record is compared.
      EXPECT_LE(violations, Diagnostics::kMaxRecordsPerKind);
      if (unsafe == 0) {
        EXPECT_EQ(violations, 0u);
      } else if (violations > 0) {
        ++hiding_cases;
      }

      ResponseMatrix by_word = rm;
      ResponseMatrix by_cell = rm;
      for (std::size_t i = 0; i < partitions.size(); ++i) {
        apply_mask(by_word, partitions[i], masks[i]);
        apply_mask_per_cell(by_cell, partitions[i], masks[i]);
      }
      expect_same_planes(by_word, by_cell);

      XMaskingOnly::apply(by_word);
      for (std::size_t p = 0; p < by_cell.num_patterns(); ++p) {
        for (const std::size_t c : by_cell.x_row(p).set_bits()) {
          by_cell.set(p, c, Lv::k0);
        }
      }
      expect_same_planes(by_word, by_cell);
      EXPECT_EQ(by_word.total_x(), 0u);
    }
  }
  EXPECT_GT(hiding_cases, 0u) << "some masks must hide values";
}

TEST(MaskingEquivalence, DiagnosticOrderPastTheRecordCap) {
  // Every masked cell of every pattern hides a value: the counts agree far
  // past the per-kind record cap, and the retained records are the first
  // ones in the reference's order.
  Rng rng(2302);
  const ResponseMatrix rm = random_response({5, 29}, 12, 0.0, rng);
  const std::vector<BitVec> partitions = {
      patterns_of(12, {0, 2, 4, 6, 8, 10}),
      patterns_of(12, {1, 3, 5, 7, 9, 11})};
  const std::vector<BitVec> masks = {BitVec(145, true), BitVec(145, true)};
  Diagnostics word_diags;
  Diagnostics cell_diags;
  EXPECT_EQ(count_mask_violations(rm, partitions, masks, &word_diags),
            12u * 145u);
  EXPECT_EQ(count_mask_violations_per_cell(rm, partitions, masks, &cell_diags),
            12u * 145u);
  EXPECT_EQ(word_diags.records().size(), Diagnostics::kMaxRecordsPerKind);
  expect_same_diagnostics(word_diags, cell_diags);
}

}  // namespace
}  // namespace xh
