#include "scan/test_application.hpp"

#include <gtest/gtest.h>

#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "sim/comb_sim.hpp"

namespace xh {
namespace {

TEST(TestApplication, CapturesCombinationalFunction) {
  // q captures XOR(a, s0): fully deterministic circuit.
  const Netlist nl = read_bench_string(
      "INPUT(a)\nOUTPUT(q)\ns0 = DFF(d)\nd = XOR(a, s0)\nq = BUF(d)\n");
  const ScanPlan plan = ScanPlan::build(nl, 1);
  TestApplicator app(nl, plan);

  std::vector<TestPattern> patterns;
  for (const bool a : {false, true}) {
    for (const bool s : {false, true}) {
      TestPattern p;
      p.pi = {a ? Lv::k1 : Lv::k0};
      p.scan_in = {s ? Lv::k1 : Lv::k0};
      patterns.push_back(p);
    }
  }
  const ResponseMatrix r = app.capture(patterns);
  EXPECT_EQ(r.get(0, 0), Lv::k0);  // 0^0
  EXPECT_EQ(r.get(1, 0), Lv::k1);  // 0^1
  EXPECT_EQ(r.get(2, 0), Lv::k1);  // 1^0
  EXPECT_EQ(r.get(3, 0), Lv::k0);  // 1^1
  EXPECT_EQ(r.total_x(), 0u);
}

TEST(TestApplication, UnscannedFlopPollutesCapture) {
  // The scanned flop captures XOR(a, unscanned) = X always.
  const Netlist nl = read_bench_string(
      "INPUT(a)\nOUTPUT(q)\nu = NDFF(a)\nq = DFF(d)\nd = XOR(a, u)\n");
  const ScanPlan plan = ScanPlan::build(nl, 1);
  TestApplicator app(nl, plan);
  TestPattern p;
  p.pi = {Lv::k1};
  p.scan_in = {Lv::k0};
  const ResponseMatrix r = app.capture({p});
  EXPECT_EQ(r.get(0, 0), Lv::kX);
}

TEST(TestApplication, XSourceOnlyPollutesItsCone) {
  // Two scanned flops: one captures clean logic, one captures X-source data.
  const Netlist nl = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(q1)\nOUTPUT(q2)\n"
      "u = NDFF(a)\n"
      "clean = AND(a, b)\nq1 = DFF(clean)\n"
      "dirty = OR(u, b)\nq2 = DFF(dirty)\n");
  const ScanPlan plan = ScanPlan::build(nl, 2);
  TestApplicator app(nl, plan);
  TestPattern p;
  p.pi = {Lv::k1, Lv::k0};  // b = 0 so OR(u, 0) = X
  p.scan_in.assign(plan.geometry().num_cells(), Lv::k0);
  const ResponseMatrix r = app.capture({p});
  const std::size_t clean_cell = plan.cell_of(nl.find("q1"));
  const std::size_t dirty_cell = plan.cell_of(nl.find("q2"));
  EXPECT_EQ(r.get(0, clean_cell), Lv::k0);
  EXPECT_EQ(r.get(0, dirty_cell), Lv::kX);
  // With b = 1 the OR is controlled and the X is blocked.
  p.pi = {Lv::k1, Lv::k1};
  const ResponseMatrix r2 = app.capture({p});
  EXPECT_EQ(r2.get(0, dirty_cell), Lv::k1);
}

TEST(TestApplication, MatchesScalarSimulatorOnRandomCircuit) {
  GeneratorConfig gcfg;
  gcfg.seed = 9;
  gcfg.num_gates = 120;
  gcfg.num_dffs = 10;
  gcfg.nonscan_fraction = 0.2;
  const Netlist nl = generate_circuit(gcfg);
  const ScanPlan plan = ScanPlan::build(nl, 2);
  TestApplicator app(nl, plan);

  Rng rng(4);
  std::vector<TestPattern> patterns;
  for (int i = 0; i < 70; ++i) {  // spans two 64-lane blocks
    patterns.push_back(random_pattern(nl, plan, rng));
  }
  const ResponseMatrix r = app.capture(patterns);

  CombSim ref(nl);
  for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
    ref.set_inputs(patterns[pi].pi);
    ref.set_all_state(Lv::kX);
    for (std::size_t cell = 0; cell < plan.geometry().num_cells(); ++cell) {
      const GateId dff = plan.dff_at(cell);
      if (dff != kNoGate) ref.set_state(dff, patterns[pi].scan_in[cell]);
    }
    ref.evaluate();
    for (std::size_t cell = 0; cell < plan.geometry().num_cells(); ++cell) {
      const GateId dff = plan.dff_at(cell);
      if (dff == kNoGate) continue;
      ASSERT_EQ(r.get(pi, cell), ref.next_state(dff))
          << "pattern " << pi << " cell " << cell;
    }
  }
}

TEST(TestApplication, CaptureOpensOneSpan) {
  GeneratorConfig gcfg;
  gcfg.seed = 5;
  gcfg.num_gates = 80;
  gcfg.num_dffs = 8;
  gcfg.nonscan_fraction = 0.25;
  const Netlist nl = generate_circuit(gcfg);
  const ScanPlan plan = ScanPlan::build(nl, 2);
  const TestApplicator app(nl, plan);
  Rng rng(6);
  std::vector<TestPattern> patterns;
  for (int i = 0; i < 70; ++i) {
    patterns.push_back(random_pattern(nl, plan, rng));
  }

  Trace trace;
  const ResponseMatrix traced = app.capture(patterns, &trace);
  const ResponseMatrix plain = app.capture(patterns);
  for (std::size_t p = 0; p < plain.num_patterns(); ++p) {
    EXPECT_EQ(traced.row_string(p), plain.row_string(p)) << "pattern " << p;
  }
#ifndef XH_OBS_NOOP
  ASSERT_EQ(trace.timers().size(), 1u) << "one span, no other";
  EXPECT_EQ(trace.timers().at("capture").count, 1u);
  (void)app.capture(patterns, &trace);
  EXPECT_EQ(trace.timers().at("capture").count, 2u);
#endif
}

TEST(TestApplication, RandomPatternShapes) {
  GeneratorConfig gcfg;
  gcfg.num_dffs = 7;
  const Netlist nl = generate_circuit(gcfg);
  const ScanPlan plan = ScanPlan::build(nl, 3);
  Rng rng(1);
  const TestPattern p = random_pattern(nl, plan, rng);
  EXPECT_EQ(p.pi.size(), nl.inputs().size());
  EXPECT_EQ(p.scan_in.size(), plan.geometry().num_cells());
  for (const Lv v : p.pi) EXPECT_TRUE(is_definite(v));
}

}  // namespace
}  // namespace xh
