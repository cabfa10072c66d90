#include "atpg/podem.hpp"

#include <gtest/gtest.h>

#include "fault/fault_sim.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"

namespace xh {
namespace {

void expect_pattern_detects(const Netlist& nl, const ScanPlan& plan,
                            const StuckFault& fault, const TestPattern& p) {
  FaultSimulator fsim(nl, plan);
  EXPECT_TRUE(fsim.run({p}, {fault}).detected[0])
      << "generated pattern must detect " << fault_name(nl, fault);
}

TEST(Podem, GeneratesTestForAndGate) {
  const Netlist nl = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(q)\ng = AND(a, b)\nq = DFF(g)\n");
  const ScanPlan plan = ScanPlan::build(nl, 1);
  Podem podem(nl, plan);
  const StuckFault f{nl.find("g"), false};
  const auto p = podem.generate(f);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->pi[0], Lv::k1);
  EXPECT_EQ(p->pi[1], Lv::k1);
  expect_pattern_detects(nl, plan, f, *p);
}

TEST(Podem, GeneratesTestRequiringPropagation) {
  // Fault deep inside: s-a-1 on g1 needs a=1,b=0 (or 0,1) and c=1 to
  // propagate through the AND to the capture flop.
  const Netlist nl = read_bench_string(
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(q)\n"
      "g1 = XOR(a, b)\ng2 = AND(g1, c)\nq = DFF(g2)\n");
  const ScanPlan plan = ScanPlan::build(nl, 1);
  Podem podem(nl, plan);
  const StuckFault f{nl.find("g1"), true};
  const auto p = podem.generate(f);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->pi[2], Lv::k1) << "c must be non-controlling";
  EXPECT_EQ(p->pi[0], p->pi[1]) << "XOR must evaluate to 0 to excite s-a-1";
  expect_pattern_detects(nl, plan, f, *p);
}

TEST(Podem, UsesScanStateAsControllableInput) {
  // Fault excitation requires the scanned flop's present state.
  const Netlist nl = read_bench_string(
      "INPUT(a)\nOUTPUT(q)\ns = DFF(d0)\nd0 = BUF(a)\n"
      "g = AND(a, s)\nq = DFF(g)\n");
  const ScanPlan plan = ScanPlan::build(nl, 1);
  Podem podem(nl, plan);
  const StuckFault f{nl.find("g"), false};
  const auto p = podem.generate(f);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->pi[0], Lv::k1);
  EXPECT_EQ(p->scan_in[plan.cell_of(nl.find("s"))], Lv::k1);
  expect_pattern_detects(nl, plan, f, *p);
}

TEST(Podem, ProvesRedundantFaultUntestable) {
  // g = AND(a, NOT(a)) is constant 0: s-a-0 on g is undetectable.
  const Netlist nl = read_bench_string(
      "INPUT(a)\nOUTPUT(q)\nn = NOT(a)\ng = AND(a, n)\nq = DFF(g)\n");
  const ScanPlan plan = ScanPlan::build(nl, 1);
  Podem podem(nl, plan);
  const auto p = podem.generate({nl.find("g"), false});
  EXPECT_FALSE(p.has_value());
  EXPECT_FALSE(podem.stats().aborted) << "search space exhausted, not aborted";
}

TEST(Podem, FaultBlockedByXSourceIsUntestable) {
  // The only observation path XORs with an unscanned flop — hopeless.
  const Netlist nl = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nu = NDFF(a)\n"
      "g = AND(a, b)\nd = XOR(g, u)\nq = DFF(d)\n");
  const ScanPlan plan = ScanPlan::build(nl, 1);
  Podem podem(nl, plan);
  const auto p = podem.generate({nl.find("g"), false});
  EXPECT_FALSE(p.has_value());
}

TEST(Podem, NavigatesAroundXSourceWhenAPathExists) {
  // Two observation paths: one X-poisoned, one clean via q2.
  const Netlist nl = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(q1)\nOUTPUT(q2)\nu = NDFF(a)\n"
      "g = AND(a, b)\nd1 = XOR(g, u)\nq1 = DFF(d1)\nq2 = DFF(g)\n");
  const ScanPlan plan = ScanPlan::build(nl, 1);
  Podem podem(nl, plan);
  const StuckFault f{nl.find("g"), false};
  const auto p = podem.generate(f);
  ASSERT_TRUE(p.has_value());
  expect_pattern_detects(nl, plan, f, *p);
}

TEST(Podem, TristateEnablePath) {
  const Netlist nl = read_bench_string(
      "INPUT(en)\nINPUT(d)\nOUTPUT(q)\n"
      "t = TRISTATE(en, d)\nb = BUS(t)\nq = DFF(b)\n");
  const ScanPlan plan = ScanPlan::build(nl, 1);
  Podem podem(nl, plan);
  const StuckFault f{nl.find("d"), false};
  const auto p = podem.generate(f);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->pi[0], Lv::k1) << "driver must be enabled to observe d";
  expect_pattern_detects(nl, plan, f, *p);
}

TEST(Podem, EveryGeneratedPatternDetectsOnRandomCircuits) {
  for (const std::uint64_t seed : {3ull, 5ull, 8ull}) {
    GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.num_gates = 90;
    cfg.num_dffs = 10;
    cfg.nonscan_fraction = 0.2;
    cfg.num_buses = 1;
    const Netlist nl = generate_circuit(cfg);
    const ScanPlan plan = ScanPlan::build(nl, 2);
    Podem podem(nl, plan);
    FaultSimulator fsim(nl, plan);
    const auto faults = collapse_faults(nl, enumerate_faults(nl));
    std::size_t produced = 0;
    for (std::size_t fi = 0; fi < faults.size(); fi += 7) {  // sample
      const auto p = podem.generate(faults[fi], 500);
      if (!p) continue;
      ++produced;
      EXPECT_TRUE(fsim.run({*p}, {faults[fi]}).detected[0])
          << "seed " << seed << " fault " << fault_name(nl, faults[fi]);
    }
    EXPECT_GT(produced, 0u);
  }
}

}  // namespace
}  // namespace xh
