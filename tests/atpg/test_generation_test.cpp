#include "atpg/test_generation.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"

namespace xh {
namespace {

TEST(TestGeneration, FullCoverageOnCleanCircuit) {
  const Netlist nl = read_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(q)\n"
      "g1 = AND(a, b)\ng2 = OR(g1, c)\nq = DFF(g2)\n");
  const ScanPlan plan = ScanPlan::build(nl, 1);
  AtpgConfig cfg;
  cfg.random_patterns = 4;
  const AtpgResult r = generate_test_set(nl, plan, cfg);
  EXPECT_DOUBLE_EQ(r.coverage(), 1.0);
  EXPECT_EQ(r.num_untestable, 0u);
  EXPECT_EQ(r.num_aborted, 0u);
  EXPECT_FALSE(r.patterns.empty());
}

TEST(TestGeneration, CountsRedundantFaults) {
  const Netlist nl = read_bench_string(
      "INPUT(a)\nOUTPUT(q)\nn = NOT(a)\nr = AND(a, n)\n"
      "q = DFF(d)\nd = OR(r, a)\n");
  const ScanPlan plan = ScanPlan::build(nl, 1);
  AtpgConfig cfg;
  cfg.random_patterns = 8;
  const AtpgResult r = generate_test_set(nl, plan, cfg);
  EXPECT_GT(r.num_untestable, 0u) << "r s-a-0 is redundant";
  EXPECT_LT(r.coverage(), 1.0);
  EXPECT_EQ(r.num_detected + r.num_untestable + r.num_aborted,
            r.faults.size());
}

TEST(TestGeneration, DeterministicPhaseImprovesOnRandom) {
  GeneratorConfig gcfg;
  gcfg.seed = 13;
  gcfg.num_gates = 150;
  gcfg.num_dffs = 12;
  const Netlist nl = generate_circuit(gcfg);
  const ScanPlan plan = ScanPlan::build(nl, 2);

  AtpgConfig random_only;
  random_only.random_patterns = 16;
  random_only.backtrack_limit = 0;  // cripple PODEM: abort instantly
  const AtpgResult ro = generate_test_set(nl, plan, random_only);

  AtpgConfig full;
  full.random_patterns = 16;
  const AtpgResult f = generate_test_set(nl, plan, full);
  EXPECT_GE(f.num_detected, ro.num_detected);
  EXPECT_GT(f.coverage(), 0.5);
}

TEST(TestGeneration, CompactionKeepsCoverage) {
  GeneratorConfig gcfg;
  gcfg.seed = 17;
  gcfg.num_gates = 100;
  gcfg.num_dffs = 8;
  const Netlist nl = generate_circuit(gcfg);
  const ScanPlan plan = ScanPlan::build(nl, 2);

  AtpgConfig compacted;
  compacted.random_patterns = 64;
  AtpgConfig uncompacted = compacted;
  uncompacted.compact_random_phase = false;

  const AtpgResult a = generate_test_set(nl, plan, compacted);
  const AtpgResult b = generate_test_set(nl, plan, uncompacted);
  EXPECT_EQ(a.num_detected, b.num_detected);
  EXPECT_LE(a.patterns.size(), b.patterns.size());
}

TEST(TestGeneration, WorksWithXSources) {
  GeneratorConfig gcfg;
  gcfg.seed = 23;
  gcfg.num_gates = 120;
  gcfg.num_dffs = 12;
  gcfg.nonscan_fraction = 0.25;
  gcfg.num_buses = 2;
  const Netlist nl = generate_circuit(gcfg);
  const ScanPlan plan = ScanPlan::build(nl, 3);
  AtpgConfig cfg;
  cfg.random_patterns = 32;
  const AtpgResult r = generate_test_set(nl, plan, cfg);
  // X-sources cost real coverage (many cones are only observable through
  // X-poisoned paths); the flow must stay functional, detect a meaningful
  // share, and account for every fault.
  EXPECT_GT(r.coverage(), 0.15);
  EXPECT_EQ(r.num_detected + r.num_untestable + r.num_aborted,
            r.faults.size());
}

TEST(TestGeneration, DeterministicForFixedSeed) {
  GeneratorConfig gcfg;
  gcfg.seed = 29;
  gcfg.num_gates = 60;
  const Netlist nl = generate_circuit(gcfg);
  const ScanPlan plan = ScanPlan::build(nl, 2);
  AtpgConfig cfg;
  cfg.random_patterns = 16;
  cfg.seed = 99;
  const AtpgResult a = generate_test_set(nl, plan, cfg);
  const AtpgResult b = generate_test_set(nl, plan, cfg);
  EXPECT_EQ(a.patterns.size(), b.patterns.size());
  EXPECT_EQ(a.num_detected, b.num_detected);
}

// ---------------------------------------------------------------------------
// Golden pins: FNV-1a hashes over ATPG output on generated circuits with
// X-sources. The AtpgResult pin folds every pattern's pi and scan_in values,
// the per-fault detected flags and the detected/untestable/aborted counts;
// the Podem pin also folds each search's PodemStats, so it pins the decision
// path as well as its result. Any change to implication, the X-path check,
// objective or backtrace selection, backtrack counting, the abort limit,
// the don't-care fill or fault dropping changes a hash.

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t pattern_hash(std::uint64_t h, const TestPattern& p) {
  h = fnv(h, p.pi.size());
  for (const Lv v : p.pi) h = fnv(h, static_cast<std::uint64_t>(v));
  h = fnv(h, p.scan_in.size());
  for (const Lv v : p.scan_in) h = fnv(h, static_cast<std::uint64_t>(v));
  return h;
}

std::uint64_t result_hash(const AtpgResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::size_t v : {r.patterns.size(), r.faults.size(),
                              r.num_detected, r.num_untestable,
                              r.num_aborted}) {
    h = fnv(h, v);
  }
  for (const TestPattern& p : r.patterns) h = pattern_hash(h, p);
  for (const bool d : r.detected) h = fnv(h, d ? 1 : 0);
  return h;
}

/// The Ablation-D circuit generator (16 PIs, 15% unscanned flops, three
/// tri-state buses) at a test-sized gate and flop count.
Netlist ablation_d_circuit(std::size_t gates, std::size_t dffs) {
  GeneratorConfig g;
  g.seed = 2016;
  g.num_inputs = 16;
  g.num_outputs = 16;
  g.num_gates = gates;
  g.num_dffs = dffs;
  g.nonscan_fraction = 0.15;
  g.num_buses = 3;
  return generate_circuit(g);
}

TEST(AtpgGolden, GeneratedCircuitWithAborts) {
  const Netlist nl = ablation_d_circuit(60, 48);
  const ScanPlan plan = ScanPlan::build(nl, 6);
  AtpgConfig cfg;
  cfg.random_patterns = 32;
  cfg.seed = 42;
  const AtpgResult r = generate_test_set(nl, plan, cfg);
  EXPECT_GT(r.num_aborted, 0u);
  EXPECT_GT(r.num_untestable, 0u);
  EXPECT_EQ(result_hash(r), 0x88ebbf45145b13f5ULL);
}

TEST(AtpgGolden, DontCaresKept) {
  const Netlist nl = ablation_d_circuit(80, 16);
  const ScanPlan plan = ScanPlan::build(nl, 6);
  AtpgConfig cfg;
  cfg.random_patterns = 32;  // skipped: random patterns have no don't-cares
  cfg.seed = 42;
  cfg.fill_dont_cares = false;
  const AtpgResult r = generate_test_set(nl, plan, cfg);
  EXPECT_GT(r.num_aborted, 0u);
  EXPECT_EQ(result_hash(r), 0x1a716f3415e73164ULL);
}

TEST(AtpgGolden, PodemOnEveryCollapsedFault) {
  // Every collapsed fault of one circuit, alternating the two fill modes;
  // each search's stats are folded in with its pattern (or its absence).
  const Netlist nl = ablation_d_circuit(60, 48);
  const ScanPlan plan = ScanPlan::build(nl, 6);
  const std::vector<StuckFault> faults =
      collapse_faults(nl, enumerate_faults(nl));
  Podem podem(nl, plan);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t aborted = 0;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const auto p = podem.generate(faults[fi], 2000, fi + 1, fi % 2 == 0);
    const PodemStats& s = podem.stats();
    h = fnv(h, p.has_value() ? 1 : 0);
    if (p) h = pattern_hash(h, *p);
    h = fnv(h, s.decisions);
    h = fnv(h, s.backtracks);
    h = fnv(h, s.aborted ? 1 : 0);
    if (s.aborted) ++aborted;
  }
  EXPECT_GT(aborted, 0u);
  EXPECT_EQ(h, 0xb2b2558f1036ca03ULL);
}

}  // namespace
}  // namespace xh
