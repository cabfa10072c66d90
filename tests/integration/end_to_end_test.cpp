// Full-stack integration: synthetic circuit with X-sources → ATPG patterns →
// captured responses → pattern-partitioned hybrid X-handling → verified
// coverage preservation and control-bit/test-time wins.
#include <gtest/gtest.h>

#include <map>

#include "atpg/test_generation.hpp"
#include "core/hybrid.hpp"
#include "fault/fault_sim.hpp"
#include "masking/mask.hpp"
#include "misr/accounting.hpp"
#include "netlist/generator.hpp"
#include "scan/test_application.hpp"

namespace xh {
namespace {

struct Flow {
  Netlist nl;
  ScanPlan plan;
  AtpgResult atpg;
  ResponseMatrix response;

  static Flow build(std::uint64_t seed) {
    GeneratorConfig gcfg;
    gcfg.seed = seed;
    gcfg.num_gates = 220;
    gcfg.num_dffs = 24;
    gcfg.nonscan_fraction = 0.20;
    gcfg.num_buses = 2;
    Netlist nl = generate_circuit(gcfg);
    ScanPlan plan = ScanPlan::build(nl, 4);
    AtpgConfig acfg;
    acfg.random_patterns = 48;
    acfg.seed = seed * 31 + 7;
    AtpgResult atpg = generate_test_set(nl, plan, acfg);
    TestApplicator app(nl, plan);
    ResponseMatrix response = app.capture(atpg.patterns);
    return Flow{std::move(nl), std::move(plan), std::move(atpg),
                std::move(response)};
  }
};

class EndToEnd : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// The seed's flow, built on first use and shared by every test of the
  /// suite that runs in this process.
  static const Flow& shared_flow() {
    static std::map<std::uint64_t, Flow> flows;
    const std::uint64_t seed = GetParam();
    auto it = flows.find(seed);
    if (it == flows.end()) it = flows.emplace(seed, Flow::build(seed)).first;
    return it->second;
  }
};

TEST_P(EndToEnd, ResponsesContainXs) {
  const Flow& flow = shared_flow();
  EXPECT_GT(flow.response.total_x(), 0u)
      << "unscanned flops / buses must pollute some captures";
  EXPECT_LT(flow.response.x_density(), 1.0);
}

TEST_P(EndToEnd, HybridPipelineRunsAndVerifies) {
  const Flow& flow = shared_flow();
  PipelineContext ctx;
  ctx.partitioner.misr = {16, 4};
  const HybridSimulation sim = run_hybrid_simulation(flow.response, ctx);
  const PartitionResult& pr = sim.report.partitioning;
  // The reference the fused masking must match: an apply_mask copy.
  ResponseMatrix masked = flow.response;
  for (std::size_t i = 0; i < pr.partitions.size(); ++i) {
    apply_mask(masked, pr.partitions[i], pr.masks[i]);
  }
  EXPECT_TRUE(sim.observability_preserved);
  EXPECT_EQ(masked.total_x(), sim.report.partitioning.leaked_x);
  EXPECT_EQ(sim.cancel, run_x_canceling(masked, ctx.misr()));
  // The hybrid's floor is one partition's mask (L·C bits); the cost
  // function guarantees no state above the unsplit hybrid.
  EXPECT_LE(sim.report.proposed_bits,
            sim.report.canceling_only_bits +
                static_cast<double>(flow.response.num_cells()) + 1e-9)
      << "the cost function may never exceed the unsplit hybrid";
}

TEST_P(EndToEnd, FaultCoverageIsExactlyPreserved) {
  // The paper's headline guarantee: masking only all-X cells per partition
  // cannot lose a single detection. Verified by running fault simulation
  // with full observability vs. the hybrid's observation filter.
  const Flow& flow = shared_flow();
  PipelineContext ctx;
  ctx.partitioner.misr = {16, 4};
  const HybridReport rep =
      run_hybrid_analysis(XMatrix::from_response(flow.response), ctx);

  // Every fault of the collapsed universe, not a sample.
  FaultSimulator fsim(flow.nl, flow.plan);
  const std::vector<StuckFault>& faults = flow.atpg.faults;
  const FaultSimResult ideal =
      fsim.run(flow.atpg.patterns, faults, observe_all());
  const FaultSimResult masked = fsim.run(
      flow.atpg.patterns, faults,
      observe_with_partition_masks(rep.partitioning.partitions,
                                   rep.partitioning.masks));
  ASSERT_EQ(ideal.detected.size(), masked.detected.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(ideal.detected[i], masked.detected[i])
        << "coverage loss on " << fault_name(flow.nl, faults[i]);
  }
  EXPECT_EQ(ideal.num_detected, masked.num_detected);
  EXPECT_GE(ideal.num_detected, flow.atpg.num_detected);
}

TEST_P(EndToEnd, HybridReducesMisrStops) {
  const Flow& flow = shared_flow();
  PipelineContext ctx;
  ctx.partitioner.misr = {16, 4};
  const HybridSimulation sim = run_hybrid_simulation(flow.response, ctx);
  const XCancelResult baseline =
      run_x_canceling(flow.response, ctx.misr());
  EXPECT_LE(sim.cancel.stops, baseline.stops);
  if (sim.report.partitioning.masked_x > 0) {
    EXPECT_LT(sim.cancel.total_x_seen, baseline.total_x_seen);
  }
}

TEST_P(EndToEnd, AnalysisMatchesSimulation) {
  const Flow& flow = shared_flow();
  PipelineContext actx;
  actx.partitioner.misr = {16, 4};
  PipelineContext sctx;
  sctx.partitioner.misr = {16, 4};
  const XMatrix xm = XMatrix::from_response(flow.response);
  const HybridReport analytic = run_hybrid_analysis(xm, actx);
  const HybridSimulation sim = run_hybrid_simulation(flow.response, sctx);
  EXPECT_EQ(analytic.total_x, sim.report.total_x);
  EXPECT_DOUBLE_EQ(analytic.proposed_bits, sim.report.proposed_bits);
  EXPECT_EQ(analytic.partitioning.num_partitions(),
            sim.report.partitioning.num_partitions());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEnd, ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace xh
