#include "baseline/chain_masking.hpp"

#include <gtest/gtest.h>

#include "core/paper_example.hpp"

namespace xh {
namespace {

TEST(ChainMasking, CleanMatrixCostsControlOnly) {
  const XMatrix xm({4, 5}, 10);
  const ChainMaskingResult r = chain_masking(xm);
  EXPECT_EQ(r.control_bits, 40u);
  EXPECT_EQ(r.masked_chains, 0u);
  EXPECT_EQ(r.masked_x, 0u);
  EXPECT_EQ(r.lost_observations, 0u);
}

TEST(ChainMasking, SingleXMasksOneChainPattern) {
  XMatrix::Builder b({4, 5}, 10);
  b.add_x(7, 3);  // chain 1, position 2
  const ChainMaskingResult r = chain_masking(b.freeze());
  EXPECT_EQ(r.masked_chains, 1u);
  EXPECT_EQ(r.masked_x, 1u);
  EXPECT_EQ(r.lost_observations, 4u) << "4 clean cells die with the chain";
}

TEST(ChainMasking, PaperExampleNumbers) {
  // Figure 4: 5 chains x 3 cells, 8 patterns, 28 X's.
  const XMatrix xm = paper_example_x_matrix();
  const ChainMaskingResult r = chain_masking(xm);
  EXPECT_EQ(r.control_bits, 5u * 8u);
  EXPECT_EQ(r.masked_x, 28u);
  // Chains with X's per pattern:
  //   SC1: cell0 X under 4 patterns -> 4 chain-masks, 2 clean cells each.
  //   SC2: cell0 {P1,P4,P5,P6} + cell2 {P1,P4} -> 4 masks, losses 4*3-6=6.
  //   SC3: like SC1 -> losses 8. SC1 -> 8.
  //   SC4: cell2 X under 7 patterns -> 7 masks, losses 7*3-7=14.
  //   SC5: cell1 6 pats + cell2 1 pat (disjoint) -> 7 masks, 7*3-7=14.
  EXPECT_EQ(r.masked_chains, 4u + 4u + 4u + 7u + 7u);
  EXPECT_EQ(r.lost_observations, 8u + 6u + 8u + 14u + 14u);
}

TEST(ChainMasking, ControlBitsBeatCellMaskingByChainLength) {
  const XMatrix xm({3, 100}, 50);
  const ChainMaskingResult r = chain_masking(xm);
  EXPECT_EQ(r.control_bits, 150u);  // vs 3*100*50 = 15000 for cell masking
}

TEST(ChainMasking, LossGrowsWithScatter) {
  // Same X count: concentrated in one chain vs spread over all chains.
  XMatrix::Builder concentrated({4, 8}, 4);
  for (std::size_t pos = 0; pos < 4; ++pos) concentrated.add_x(pos, 0);
  XMatrix::Builder scattered({4, 8}, 4);
  for (std::size_t chain = 0; chain < 4; ++chain) {
    scattered.add_x(chain * 8, 0);
  }
  const ChainMaskingResult c = chain_masking(concentrated.freeze());
  const ChainMaskingResult s = chain_masking(scattered.freeze());
  EXPECT_EQ(c.masked_x, s.masked_x);
  EXPECT_LT(c.lost_observations, s.lost_observations);
}

}  // namespace
}  // namespace xh
