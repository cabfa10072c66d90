#include "core/hybrid.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/paper_example.hpp"
#include "misr/accounting.hpp"

namespace xh {
namespace {

PartitionerConfig paper_cfg() {
  PartitionerConfig cfg;
  cfg.misr = {10, 2};
  return cfg;
}

TEST(HybridAnalysis, ReportFieldsConsistent) {
  const XMatrix xm = paper_example_x_matrix();
  PipelineContext ctx(paper_cfg());
  const HybridReport rep = run_hybrid_analysis(xm, ctx);
  EXPECT_EQ(rep.num_patterns, 8u);
  EXPECT_EQ(rep.num_chains, 5u);
  EXPECT_EQ(rep.chain_length, 3u);
  EXPECT_EQ(rep.total_x, 28u);
  EXPECT_DOUBLE_EQ(rep.x_density, 28.0 / 120.0);
  EXPECT_EQ(rep.masking_only_bits, 120u);
  EXPECT_DOUBLE_EQ(rep.canceling_only_bits, 10.0 * 2 * 28 / 8);
  EXPECT_DOUBLE_EQ(rep.proposed_bits, 57.5);
  EXPECT_DOUBLE_EQ(rep.improvement_over_masking, 120.0 / 57.5);
  EXPECT_DOUBLE_EQ(rep.improvement_over_canceling, 70.0 / 57.5);
}

TEST(HybridAnalysis, TestTimeUsesLeakedDensity) {
  const XMatrix xm = paper_example_x_matrix();
  PipelineContext ctx(paper_cfg());
  const HybridReport rep = run_hybrid_analysis(xm, ctx);
  const MisrConfig misr{10, 2};
  EXPECT_DOUBLE_EQ(rep.test_time_canceling_only,
                   normalized_test_time(5, 28.0 / 120.0, misr));
  EXPECT_DOUBLE_EQ(rep.test_time_proposed,
                   normalized_test_time(5, 5.0 / 120.0, misr));
  EXPECT_GT(rep.test_time_improvement, 1.0);
}

TEST(HybridSimulation, EndToEndOnPaperExample) {
  const ResponseMatrix response = paper_example_response(21);
  PipelineContext ctx(paper_cfg());
  const HybridSimulation sim = run_hybrid_simulation(response, ctx);
  EXPECT_TRUE(sim.observability_preserved);
  EXPECT_EQ(sim.masked_response.total_x(), 5u);
  // 5 chains map to 5 distinct MISR stages (m=10 ≥ chains), so no X's merge
  // in the spatial compactor.
  EXPECT_EQ(sim.x_entering_misr, 5u);
  EXPECT_EQ(sim.cancel.shift_cycles, 8u * 3u);
}

TEST(HybridSimulation, MaskedCellsReadZero) {
  const ResponseMatrix response = paper_example_response(4);
  PipelineContext ctx(paper_cfg());
  const HybridSimulation sim = run_hybrid_simulation(response, ctx);
  const auto& pr = sim.report.partitioning;
  for (std::size_t i = 0; i < pr.partitions.size(); ++i) {
    for (const std::size_t p : pr.partitions[i].set_bits()) {
      for (const std::size_t c : pr.masks[i].set_bits()) {
        EXPECT_EQ(sim.masked_response.get(p, c), Lv::k0);
      }
    }
  }
}

TEST(HybridSimulation, DeterministicValuesUntouched) {
  const ResponseMatrix response = paper_example_response(9);
  PipelineContext ctx(paper_cfg());
  const HybridSimulation sim = run_hybrid_simulation(response, ctx);
  for (std::size_t p = 0; p < response.num_patterns(); ++p) {
    for (std::size_t c = 0; c < response.num_cells(); ++c) {
      if (!response.is_x(p, c)) {
        EXPECT_EQ(sim.masked_response.get(p, c), response.get(p, c))
            << "pattern " << p << " cell " << c;
      }
    }
  }
}

TEST(HybridSimulation, FewerStopsThanCancelingOnly) {
  const ResponseMatrix response = paper_example_response(13);
  PipelineContext ctx(paper_cfg());
  const HybridSimulation sim = run_hybrid_simulation(response, ctx);
  const XCancelResult baseline =
      run_x_canceling(response, paper_cfg().misr);
  EXPECT_LT(sim.cancel.stops, baseline.stops)
      << "masking must reduce MISR halts";
  EXPECT_LE(sim.cancel.control_bits(paper_cfg().misr),
            baseline.control_bits(paper_cfg().misr));
}

TEST(HybridSimulation, SignatureBitsAreXFreeAcrossSeeds) {
  // Values at X positions differ per seed; the extracted signature values
  // must not (positions, combinations and values all identical), because
  // deterministic cells are identical across these responses.
  PipelineContext ctx_a(paper_cfg());
  PipelineContext ctx_b(paper_cfg());
  const HybridSimulation a =
      run_hybrid_simulation(paper_example_response(100), ctx_a);
  const HybridSimulation b =
      run_hybrid_simulation(paper_example_response(100), ctx_b);
  ASSERT_EQ(a.cancel.signature.size(), b.cancel.signature.size());
  for (std::size_t i = 0; i < a.cancel.signature.size(); ++i) {
    EXPECT_EQ(a.cancel.signature[i].value, b.cancel.signature[i].value);
  }
}

// ---- Migration from the removed validating overload -----------------------
//
// run_hybrid_simulation(response, declared, HybridConfig, Diagnostics*) is
// gone; its callers now write ctx.adopt_collector(diags) and call the
// context form. These pin the two contracts that overload documented.

/// Turns the first deterministic cell of pattern 0 into an X the
/// declaration does not predict.
void inject_undeclared_x(ResponseMatrix& response) {
  for (std::size_t c = 0; c < response.num_cells(); ++c) {
    if (response.get(0, c) != Lv::kX) {
      response.set(0, c, Lv::kX);
      return;
    }
  }
  FAIL() << "no deterministic cell to corrupt";
}

TEST(DeprecatedApi, ValidatingOverloadRoutesDiagnosticsLikeAdoption) {
  // A non-null Diagnostics* degrades exactly as the context's own lenient
  // collector does, and the records land in the caller's collector.
  ResponseMatrix response = paper_example_response(5);
  const XMatrix declared = XMatrix::from_response(response);
  inject_undeclared_x(response);

  Diagnostics adopted_diags;
  PipelineContext adopted(paper_cfg());
  adopted.adopt_collector(&adopted_diags);
  const HybridSimulation via_adoption =
      run_hybrid_simulation(response, declared, adopted);

  PipelineContext lenient(paper_cfg());
  lenient.be_lenient();
  const HybridSimulation via_lenient =
      run_hybrid_simulation(response, declared, lenient);

  EXPECT_TRUE(via_adoption.degraded);
  EXPECT_TRUE(via_lenient.degraded);
  EXPECT_EQ(via_adoption.validation.undeclared_x, 1u);
  EXPECT_EQ(via_adoption.validation.undeclared_x,
            via_lenient.validation.undeclared_x);
  EXPECT_EQ(adopted_diags.count(DiagKind::kUndeclaredX), 1u);
  EXPECT_EQ(lenient.diagnostics().count(DiagKind::kUndeclaredX), 1u);
  EXPECT_EQ(via_adoption.cancel.signature.size(),
            via_lenient.cancel.signature.size());
}

TEST(DeprecatedApi, ValidatingOverloadNullDiagsIsStrict) {
  // A null Diagnostics* releases any adopted collector: strict mode throws
  // and nothing reaches the released collector.
  ResponseMatrix response = paper_example_response(5);
  const XMatrix declared = XMatrix::from_response(response);
  inject_undeclared_x(response);

  Diagnostics released;
  PipelineContext ctx(paper_cfg());
  ctx.adopt_collector(&released);
  ctx.adopt_collector(nullptr);
  EXPECT_THROW((void)run_hybrid_simulation(response, declared, ctx),
               std::runtime_error);
  EXPECT_EQ(released.count(DiagKind::kUndeclaredX), 0u);
}

}  // namespace
}  // namespace xh
