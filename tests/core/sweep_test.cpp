// Parameterized invariant sweeps: the partitioner and hybrid pipeline must
// hold their guarantees across workload shapes and MISR configurations, not
// just on the worked example.
#include <gtest/gtest.h>

#include <tuple>

#include "core/hybrid.hpp"
#include "masking/mask.hpp"
#include "misr/accounting.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

using SweepParam = std::tuple<double /*density*/, double /*clustered*/,
                              std::size_t /*m*/, std::size_t /*q*/>;

class HybridSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  static XMatrix workload(double density, double clustered) {
    WorkloadProfile p;
    p.name = "sweep";
    // With no clusters every X lands on the X-prone stripe, here its
    // minimum of 32 cells: 10 % of 320 cells holds the 8 % corner.
    p.geometry = {8, 40};
    p.num_patterns = 160;
    p.x_density = density;
    p.clustered_fraction = clustered;
    p.cluster_cells_mean = 24;
    p.cluster_patterns_mean = 32;
    p.seed = static_cast<std::uint64_t>(density * 1e6) + 77;
    return generate_workload(p);
  }
};

TEST_P(HybridSweep, InvariantsHold) {
  const auto [density, clustered, m, q] = GetParam();
  const XMatrix xm = workload(density, clustered);
  PipelineContext ctx;
  ctx.partitioner.misr = {m, q};
  const HybridReport rep = run_hybrid_analysis(xm, ctx);
  const PartitionResult& pr = rep.partitioning;

  // 1. Partitions form a disjoint cover.
  BitVec seen(xm.num_patterns());
  for (const auto& part : pr.partitions) {
    ASSERT_TRUE(part.any());
    ASSERT_FALSE(seen.intersects(part));
    seen |= part;
  }
  EXPECT_EQ(seen.count(), xm.num_patterns());

  // 2. Masks are exactly the safe masks and accounting is consistent.
  std::uint64_t masked = 0;
  for (std::size_t i = 0; i < pr.partitions.size(); ++i) {
    EXPECT_TRUE(pr.masks[i] == partition_mask(xm, pr.partitions[i]));
    masked += pr.masks[i].count() * pr.partitions[i].count();
  }
  EXPECT_EQ(masked, pr.masked_x);
  EXPECT_EQ(pr.masked_x + pr.leaked_x, xm.total_x());
  EXPECT_DOUBLE_EQ(
      pr.total_bits,
      hybrid_bits(xm.geometry(), pr.num_partitions(), ctx.misr(),
                  pr.leaked_x));

  // 3. The cost trajectory is strictly decreasing over accepted rounds and
  //    the final state matches its last accepted entry.
  for (std::size_t i = 1; i < pr.history.size(); ++i) {
    if (pr.history[i].accepted) {
      EXPECT_LT(pr.history[i].total_bits, pr.history[i - 1].total_bits);
    }
  }
  const PartitionRound* last_accepted = &pr.history.front();
  for (const auto& h : pr.history) {
    if (h.accepted) last_accepted = &h;
  }
  EXPECT_DOUBLE_EQ(last_accepted->total_bits, pr.total_bits);
  EXPECT_EQ(last_accepted->num_partitions, pr.num_partitions());

  // 4. Report ratios are self-consistent.
  EXPECT_DOUBLE_EQ(rep.proposed_bits, pr.total_bits);
  if (rep.proposed_bits > 0) {
    EXPECT_DOUBLE_EQ(rep.improvement_over_canceling,
                     rep.canceling_only_bits / rep.proposed_bits);
  }
  EXPECT_GE(rep.test_time_canceling_only, rep.test_time_proposed - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    DensityCorrelationMisr, HybridSweep,
    ::testing::Combine(::testing::Values(0.002, 0.02, 0.08),
                       ::testing::Values(0.0, 0.5, 0.9),
                       ::testing::Values<std::size_t>(16, 32),
                       ::testing::Values<std::size_t>(2, 7)));

}  // namespace
}  // namespace xh
