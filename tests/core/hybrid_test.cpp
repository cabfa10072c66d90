#include "core/hybrid.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/paper_example.hpp"
#include "masking/mask.hpp"
#include "misr/accounting.hpp"
#include "util/rng.hpp"

namespace xh {
namespace {

PartitionerConfig paper_cfg() {
  PartitionerConfig cfg;
  cfg.misr = {10, 2};
  return cfg;
}

/// @p response with every partition's mask applied, as a copy: what
/// run_hybrid_simulation's MISR must see without one.
ResponseMatrix masked_copy(const ResponseMatrix& response,
                           const PartitionResult& pr) {
  ResponseMatrix masked = response;
  for (std::size_t i = 0; i < pr.partitions.size(); ++i) {
    apply_mask(masked, pr.partitions[i], pr.masks[i]);
  }
  return masked;
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
  const ResponseMatrix masked =
      masked_copy(response, sim.report.partitioning);
  EXPECT_TRUE(sim.observability_preserved);
  EXPECT_EQ(masked.total_x(), 5u);
  // 5 chains map to 5 distinct MISR stages (m=10 ≥ chains), so no X's merge
  // in the spatial compactor.
  EXPECT_EQ(sim.x_entering_misr, 5u);
  EXPECT_EQ(sim.cancel.shift_cycles, 8u * 3u);
  EXPECT_EQ(sim.cancel, run_x_canceling(masked, paper_cfg().misr));
}

TEST(HybridSimulation, MaskedCellsReadZero) {
  const ResponseMatrix response = paper_example_response(4);
  PipelineContext ctx(paper_cfg());
  const HybridSimulation sim = run_hybrid_simulation(response, ctx);
  const auto& pr = sim.report.partitioning;
  const ResponseMatrix masked = masked_copy(response, pr);
  for (std::size_t i = 0; i < pr.partitions.size(); ++i) {
    for (const std::size_t p : pr.partitions[i].set_bits()) {
      for (const std::size_t c : pr.masks[i].set_bits()) {
        EXPECT_EQ(masked.get(p, c), Lv::k0);
      }
    }
  }
  EXPECT_EQ(sim.cancel, run_x_canceling(masked, paper_cfg().misr));
}

TEST(HybridSimulation, DeterministicValuesUntouched) {
  const ResponseMatrix response = paper_example_response(9);
  PipelineContext ctx(paper_cfg());
  const HybridSimulation sim = run_hybrid_simulation(response, ctx);
  const ResponseMatrix masked =
      masked_copy(response, sim.report.partitioning);
  for (std::size_t p = 0; p < response.num_patterns(); ++p) {
    for (std::size_t c = 0; c < response.num_cells(); ++c) {
      if (!response.is_x(p, c)) {
        EXPECT_EQ(masked.get(p, c), response.get(p, c))
            << "pattern " << p << " cell " << c;
      }
    }
  }
  EXPECT_EQ(sim.cancel, run_x_canceling(masked, paper_cfg().misr));
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

// ---- Masks applied in the MISR fold --------------------------------------
//
// run_hybrid_simulation masks each pattern on its way into the MISR instead
// of masking a copy of the response. Its XCancelResult must equal, field
// for field and bit for bit, run_x_canceling over an apply_mask copy.

/// Random 0/1 response with sparse X's, plus X-prone cells (cell 0 and
/// about a sixth of the rest) that are X in all but ~3% of the patterns,
/// so the partitioner finds cells to mask.
ResponseMatrix prone_response(std::size_t chains, std::size_t length,
                              std::size_t patterns, std::uint64_t seed) {
  ResponseMatrix rm({chains, length}, patterns);
  Rng rng(seed);
  std::vector<bool> prone(rm.num_cells());
  for (std::size_t c = 0; c < prone.size(); ++c) {
    prone[c] = c == 0 || rng.chance(0.15);
  }
  for (std::size_t p = 0; p < patterns; ++p) {
    for (std::size_t c = 0; c < rm.num_cells(); ++c) {
      Lv v = rng.chance(prone[c] ? 0.97 : 0.02) ? Lv::kX : Lv::k0;
      if (v == Lv::k0 && rng.chance(0.5)) v = Lv::k1;
      rm.set(p, c, v);
    }
  }
  return rm;
}

std::size_t masked_cells(const PartitionResult& pr) {
  std::size_t n = 0;
  for (const BitVec& mask : pr.masks) n += mask.count();
  return n;
}

TEST(FusedMasking, MaskTableEqualsMaskedCopy) {
  // The primitive call, with masks no partitioner would make: random ones,
  // empty and full ones, null entries, and masks that hide values.
  for (const std::size_t chains : {3u, 8u, 19u}) {
    for (const std::size_t length : {1u, 63u, 64u, 65u, 481u}) {
      const ResponseMatrix rm = prone_response(chains, length, 6, length);
      const std::size_t cells = rm.num_cells();
      Rng rng(chains * 1000 + length);
      std::vector<BitVec> masks;
      masks.emplace_back(cells);        // empty
      masks.emplace_back(cells, true);  // full
      for (int i = 0; i < 3; ++i) {
        BitVec random(cells);
        for (std::size_t c = 0; c < cells; ++c) {
          if (rng.chance(0.3)) random.set(c);
        }
        masks.push_back(std::move(random));
      }
      // Patterns 0-4 take masks 0-4; pattern 5 has none.
      std::vector<const BitVec*> table(rm.num_patterns(), nullptr);
      ResponseMatrix copy = rm;
      for (std::size_t p = 0; p < 5; ++p) {
        table[p] = &masks[p];
        BitVec partition(rm.num_patterns());
        partition.set(p);
        apply_mask(copy, partition, masks[p]);
      }
      for (const MisrConfig cfg :
           {MisrConfig{8, 3}, MisrConfig{32, 7}, MisrConfig{48, 20}}) {
        EXPECT_EQ(run_x_canceling(rm, cfg, nullptr, nullptr, table),
                  run_x_canceling(copy, cfg))
            << chains << " chains of " << length << ", m " << cfg.size;
      }
      EXPECT_EQ(run_x_canceling(rm, {8, 3}, nullptr, nullptr, {}),
                run_x_canceling(rm, {8, 3}));
    }
  }
}

TEST(FusedMasking, TrustingSimulationEqualsMaskedCopy) {
  // m = 16: chains below, at and above it (the spatial compactor folds
  // 40 chains onto 16 stages).
  std::size_t masked_runs = 0;
  for (const std::size_t chains : {5u, 16u, 40u}) {
    for (const std::size_t length : {1u, 63u, 64u, 65u, 481u}) {
      const ResponseMatrix response =
          prone_response(chains, length, 20, chains + length);
      PipelineContext ctx;
      ctx.partitioner.misr = {16, 4};
      const HybridSimulation sim = run_hybrid_simulation(response, ctx);
      const PartitionResult& pr = sim.report.partitioning;
      if (masked_cells(pr) > 0) ++masked_runs;
      EXPECT_EQ(sim.cancel,
                run_x_canceling(masked_copy(response, pr), ctx.misr()))
          << chains << " chains of " << length;
    }
  }
  EXPECT_GE(masked_runs, 12u) << "most cases must mask something";
}

TEST(FusedMasking, EmptyAndFullMasks) {
  PipelineContext ctx;
  ctx.partitioner.misr = {8, 3};
  // No cell X in every pattern of a partition: every mask is empty.
  const ResponseMatrix sparse =
      ResponseMatrix::from_strings({4, 2}, {"0X100110", "10X01101",
                                            "1100X011", "011010X1"});
  const HybridSimulation a = run_hybrid_simulation(sparse, ctx);
  EXPECT_EQ(masked_cells(a.report.partitioning), 0u);
  EXPECT_EQ(a.cancel, run_x_canceling(sparse, ctx.misr()));
  // Every cell X in every pattern: the one mask covers every cell, and the
  // MISR sees only 0's.
  const ResponseMatrix all_x =
      ResponseMatrix::from_strings({4, 2}, {"XXXXXXXX", "XXXXXXXX"});
  const HybridSimulation b = run_hybrid_simulation(all_x, ctx);
  const PartitionResult& pr = b.report.partitioning;
  EXPECT_EQ(masked_cells(pr), pr.partitions.size() * all_x.num_cells());
  EXPECT_EQ(b.cancel.total_x_seen, 0u);
  EXPECT_EQ(b.cancel, run_x_canceling(masked_copy(all_x, pr), ctx.misr()));
}

TEST(FusedMasking, ValidatingRunWhoseMasksHideValues) {
  // Declared X's under a mask resolve to 1 in silicon: the masks hide
  // those values in the fold exactly as they do in the copy.
  ResponseMatrix response = prone_response(19, 65, 20, 7);
  const XMatrix declared = XMatrix::from_response(response);
  PipelineContext plan;
  plan.partitioner.misr = {16, 4};
  const PartitionResult pr = run_hybrid_analysis(declared, plan).partitioning;
  ASSERT_GT(masked_cells(pr), 0u);
  std::size_t resolved = 0;
  for (std::size_t i = 0; i < pr.partitions.size() && resolved < 6; ++i) {
    if (pr.masks[i].count() == 0) continue;
    const std::size_t p = pr.partitions[i].set_bits().front();
    response.set(p, pr.masks[i].set_bits().front(), Lv::k1);
    ++resolved;
  }

  PipelineContext ctx;
  ctx.partitioner.misr = {16, 4};
  ctx.be_lenient();
  const HybridSimulation sim = run_hybrid_simulation(response, declared, ctx);
  EXPECT_EQ(sim.masked_observable, resolved);
  EXPECT_EQ(sim.validation.missing_x, resolved);
  EXPECT_TRUE(sim.degraded);
  EXPECT_EQ(sim.cancel, run_x_canceling(
                            masked_copy(response, sim.report.partitioning),
                            ctx.misr()));
}

TEST(FusedMasking, ValidatingRunWithUndeclaredXs) {
  // Silicon captures X's the declaration does not predict; they are outside
  // every mask and reach the MISR, in the fold as in the copy.
  ResponseMatrix response = prone_response(40, 64, 20, 11);
  const XMatrix declared = XMatrix::from_response(response);
  Rng rng(12);
  std::size_t injected = 0;
  while (injected < 9) {
    const std::size_t p = rng.below(response.num_patterns());
    const std::size_t c = rng.below(response.num_cells());
    if (response.is_x(p, c)) continue;
    response.set(p, c, Lv::kX);
    ++injected;
  }

  PipelineContext ctx;
  ctx.partitioner.misr = {16, 4};
  ctx.be_lenient();
  const HybridSimulation sim = run_hybrid_simulation(response, declared, ctx);
  EXPECT_EQ(sim.validation.undeclared_x, injected);
  EXPECT_GT(masked_cells(sim.report.partitioning), 0u);
  EXPECT_EQ(sim.cancel, run_x_canceling(
                            masked_copy(response, sim.report.partitioning),
                            ctx.misr()));
}

// ---- validate_response's diagnostics --------------------------------------

/// Random 0/1 response with about 10% X's.
ResponseMatrix random_response(ScanGeometry geometry, std::size_t patterns,
                               Rng& rng) {
  ResponseMatrix response(geometry, patterns);
  for (std::size_t p = 0; p < response.num_patterns(); ++p) {
    for (std::size_t c = 0; c < response.num_cells(); ++c) {
      Lv v = rng.chance(0.1) ? Lv::kX : Lv::k0;
      if (v == Lv::k0 && rng.chance(0.5)) v = Lv::k1;
      response.set(p, c, v);
    }
  }
  return response;
}

/// Makes @p n cells of pattern @p p disagree with @p declared: undeclared
/// X's when @p to_x, else declared X's resolved to 1.
void flip(ResponseMatrix& response, const XMatrix& declared, std::size_t p,
          bool to_x, std::size_t n, Rng& rng) {
  std::size_t eligible = 0;
  for (std::size_t c = 0; c < response.num_cells(); ++c) {
    if (response.is_x(p, c) != to_x && declared.is_x(c, p) != to_x) {
      ++eligible;
    }
  }
  ASSERT_GE(eligible, n) << "pattern " << p;
  for (std::size_t c = rng.below(50); n > 0; c += 1 + rng.below(40)) {
    c %= response.num_cells();
    if (response.is_x(p, c) == to_x || declared.is_x(c, p) == to_x) {
      continue;
    }
    response.set(p, c, to_x ? Lv::kX : Lv::k1);
    --n;
  }
}

/// Reference: cell by cell, each pattern's undeclared X's, then its
/// missing ones.
Diagnostics per_cell_records(const ResponseMatrix& response,
                             const XMatrix& declared) {
  Diagnostics expected;
  for (std::size_t p = 0; p < response.num_patterns(); ++p) {
    const std::string at = "pattern " + std::to_string(p) + " cell ";
    for (std::size_t c = 0; c < response.num_cells(); ++c) {
      if (response.is_x(p, c) && !declared.is_x(c, p)) {
        expected.error(DiagKind::kUndeclaredX, at + std::to_string(c),
                       "response captures X where the declaration "
                       "predicts a deterministic value");
      }
    }
    for (std::size_t c = 0; c < response.num_cells(); ++c) {
      if (declared.is_x(c, p) && !response.is_x(p, c)) {
        expected.warn(DiagKind::kMissingX, at + std::to_string(c),
                      "declared X resolved to a deterministic value");
      }
    }
  }
  return expected;
}

void expect_same_records(const Diagnostics& got, const Diagnostics& want) {
  ASSERT_EQ(got.records().size(), want.records().size());
  for (std::size_t i = 0; i < want.records().size(); ++i) {
    EXPECT_EQ(got.records()[i].to_string(), want.records()[i].to_string())
        << "record " << i;
  }
}

TEST(HybridValidation, DiagnosticsListEveryMismatchInOrder) {
  // 3 chains of 70 cells (a partial tail word), 10 patterns. Patterns 1, 4
  // and 9 gain undeclared X's, patterns 2, 4 and 8 lose declared X's, and
  // the rest match their declaration.
  Rng rng(77);
  ResponseMatrix response = random_response({3, 70}, 10, rng);
  const XMatrix declared = XMatrix::from_response(response);
  flip(response, declared, 1, true, 3, rng);
  flip(response, declared, 4, true, 2, rng);
  flip(response, declared, 9, true, 4, rng);
  flip(response, declared, 2, false, 2, rng);
  flip(response, declared, 4, false, 3, rng);
  flip(response, declared, 8, false, 1, rng);

  Diagnostics diags;
  const XValidation v = validate_response(response, declared, &diags);
  EXPECT_EQ(v.undeclared_x, 9u);
  EXPECT_EQ(v.missing_x, 6u);
  expect_same_records(diags, per_cell_records(response, declared));
  const XValidation quiet = validate_response(response, declared);
  EXPECT_EQ(quiet.undeclared_x, v.undeclared_x);
  EXPECT_EQ(quiet.missing_x, v.missing_x);
  EXPECT_EQ(quiet.confirmed_x, v.confirmed_x);
  EXPECT_EQ(quiet.deterministic, v.deterministic);
}

TEST(HybridValidation, PatternBlocksOfSixtyFour) {
  // 150 patterns: the declaration is transposed 64 patterns at a time, so
  // mismatches sit on both sides of each block edge and in the short tail.
  Rng rng(78);
  ResponseMatrix response = random_response({3, 40}, 150, rng);
  const XMatrix declared = XMatrix::from_response(response);
  std::size_t undeclared = 0;
  std::size_t missing = 0;
  for (const std::size_t p : {0u, 63u, 64u, 100u, 127u, 128u, 149u}) {
    flip(response, declared, p, true, 2, rng);
    flip(response, declared, p, false, 1 + p % 3, rng);
    undeclared += 2;
    missing += 1 + p % 3;
  }

  Diagnostics diags;
  const XValidation v = validate_response(response, declared, &diags);
  EXPECT_EQ(v.undeclared_x, undeclared);
  EXPECT_EQ(v.missing_x, missing);
  EXPECT_EQ(v.confirmed_x + v.missing_x, declared.total_x());
  EXPECT_EQ(v.confirmed_x + v.undeclared_x, response.total_x());
  expect_same_records(diags, per_cell_records(response, declared));
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
