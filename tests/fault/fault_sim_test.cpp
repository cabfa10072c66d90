#include "fault/fault_sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "sim/parallel_sim.hpp"

namespace xh {
namespace {

// q captures AND(a, b); s-a-0 at g detectable by a=b=1 only.
const char* kTiny =
    "INPUT(a)\nINPUT(b)\nOUTPUT(q)\ng = AND(a, b)\nq = DFF(g)\n";

std::vector<TestPattern> all_pi_patterns(const Netlist& nl,
                                         const ScanPlan& plan) {
  std::vector<TestPattern> out;
  const std::size_t n = nl.inputs().size();
  for (std::size_t bits = 0; bits < (1u << n); ++bits) {
    TestPattern p;
    for (std::size_t i = 0; i < n; ++i) {
      p.pi.push_back((bits >> i) & 1 ? Lv::k1 : Lv::k0);
    }
    p.scan_in.assign(plan.geometry().num_cells(), Lv::k0);
    out.push_back(p);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reference: fault simulation as it was before the cone-bounded simulator.
// Every fault gets a whole faulty capture, built through ParallelSim::inject
// over every gate, plus the shift-out rule for a scanned flop's Q pin; the
// captures are then compared cell by cell.

/// The response the faulty machine shifts out.
ResponseMatrix reference_capture_faulty(const Netlist& nl,
                                        const ScanPlan& plan,
                                        const std::vector<TestPattern>& patterns,
                                        const StuckFault& fault) {
  const Lv stuck = fault.stuck_at_one ? Lv::k1 : Lv::k0;
  ResponseMatrix response(plan.geometry(), patterns.size());
  ParallelSim sim(nl);
  sim.inject(ParallelSim::Fault{fault.gate, stuck});
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t lanes = load_patterns(sim, plan, patterns, base);
    sim.evaluate();
    for (std::size_t cell = 0; cell < plan.geometry().num_cells(); ++cell) {
      const GateId dff = plan.dff_at(cell);
      if (dff == kNoGate) continue;
      for (std::size_t s = 0; s < lanes; ++s) {
        response.set(base + s, cell, sim.next_state_plane(dff).get(s));
      }
    }
  }
  // A stuck-at on a scanned flop's Q pin corrupts the value shifted out of
  // that cell regardless of what was captured (the scan path reads Q).
  const Gate& g = nl.gate(fault.gate);
  if (g.type == GateType::kDff && g.scanned) {
    const std::size_t cell = plan.cell_of(fault.gate);
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      response.set(p, cell, stuck);
    }
  }
  return response;
}

/// Per pattern: does some observed cell capture a definite value in both
/// machines, and different ones? Stops at the first such pattern when
/// @p first_only.
std::vector<bool> detecting_patterns(const ResponseMatrix& good,
                                     const ResponseMatrix& bad,
                                     const ObservationFilter& observe,
                                     bool first_only) {
  std::vector<bool> out(good.num_patterns(), false);
  for (std::size_t p = 0; p < good.num_patterns(); ++p) {
    for (std::size_t c = 0; c < good.num_cells() && !out[p]; ++c) {
      const Lv gv = good.get(p, c);
      const Lv bv = bad.get(p, c);
      out[p] = is_definite(gv) && is_definite(bv) && gv != bv && observe(p, c);
    }
    if (out[p] && first_only) break;
  }
  return out;
}

FaultSimResult reference_run(const Netlist& nl, const ScanPlan& plan,
                             const std::vector<TestPattern>& patterns,
                             const std::vector<StuckFault>& faults,
                             const ObservationFilter& observe) {
  FaultSimResult result;
  result.faults = faults;
  result.detected.assign(faults.size(), false);
  result.first_pattern.assign(faults.size(), 0);
  const ResponseMatrix good = TestApplicator(nl, plan).capture(patterns);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    const std::vector<bool> hits = detecting_patterns(
        good, reference_capture_faulty(nl, plan, patterns, faults[fi]),
        observe, true);
    for (std::size_t p = 0; p < hits.size(); ++p) {
      if (!hits[p]) continue;
      result.detected[fi] = true;
      result.first_pattern[fi] = p;
      ++result.num_detected;
      break;
    }
  }
  return result;
}

TEST(FaultSim, DetectsStuckAtWithExhaustivePatterns) {
  const Netlist nl = read_bench_string(kTiny);
  const ScanPlan plan = ScanPlan::build(nl, 1);
  FaultSimulator fsim(nl, plan);
  const auto patterns = all_pi_patterns(nl, plan);
  const auto faults = enumerate_faults(nl);
  const FaultSimResult r = fsim.run(patterns, faults);
  EXPECT_EQ(r.num_detected, faults.size()) << "AND cone is fully testable";
  EXPECT_DOUBLE_EQ(r.coverage(), 1.0);
}

TEST(FaultSim, FirstPatternIsTheEarliestDetector) {
  const Netlist nl = read_bench_string(kTiny);
  const ScanPlan plan = ScanPlan::build(nl, 1);
  FaultSimulator fsim(nl, plan);
  const auto patterns = all_pi_patterns(nl, plan);  // 00,10,01,11
  const StuckFault g_sa0{nl.find("g"), false};
  const FaultSimResult r = fsim.run(patterns, {g_sa0});
  ASSERT_TRUE(r.detected[0]);
  EXPECT_EQ(r.first_pattern[0], 3u) << "only a=b=1 excites g s-a-0";
}

TEST(FaultSim, XBlocksDetection) {
  // The AND output is XORed with an unscanned flop: every capture is X, so
  // nothing is ever detected even though the fault propagates electrically.
  const Netlist nl = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nu = NDFF(a)\n"
      "g = AND(a, b)\nd = XOR(g, u)\nq = DFF(d)\n");
  const ScanPlan plan = ScanPlan::build(nl, 1);
  FaultSimulator fsim(nl, plan);
  const auto patterns = all_pi_patterns(nl, plan);
  const StuckFault g_sa0{nl.find("g"), false};
  const FaultSimResult r = fsim.run(patterns, {g_sa0});
  EXPECT_FALSE(r.detected[0]) << "X-corrupted capture cannot detect";
}

TEST(FaultSim, DetectsMatchesRunPerPattern) {
  GeneratorConfig cfg;
  cfg.seed = 21;
  cfg.num_gates = 60;
  cfg.num_dffs = 8;
  const Netlist nl = generate_circuit(cfg);
  const ScanPlan plan = ScanPlan::build(nl, 2);
  FaultSimulator fsim(nl, plan);
  Rng rng(8);
  std::vector<TestPattern> patterns;
  for (int i = 0; i < 12; ++i) patterns.push_back(random_pattern(nl, plan, rng));
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  const StuckFault probe = faults[faults.size() / 2];
  const auto per_pattern = detecting_patterns(
      TestApplicator(nl, plan).capture(patterns),
      reference_capture_faulty(nl, plan, patterns, probe), observe_all(),
      false);
  const FaultSimResult r = fsim.run(patterns, {probe});
  bool any = false;
  std::size_t first = 0;
  for (std::size_t p = 0; p < per_pattern.size(); ++p) {
    if (per_pattern[p]) {
      any = true;
      first = p;
      break;
    }
  }
  EXPECT_EQ(r.detected[0], any);
  if (any) {
    EXPECT_EQ(r.first_pattern[0], first);
  }
}

TEST(FaultSim, ObservationFilterRemovesDetections) {
  const Netlist nl = read_bench_string(kTiny);
  const ScanPlan plan = ScanPlan::build(nl, 1);
  FaultSimulator fsim(nl, plan);
  const auto patterns = all_pi_patterns(nl, plan);
  const StuckFault g_sa0{nl.find("g"), false};
  // Blind the only observation cell.
  const auto blind = [](std::size_t, std::size_t) { return false; };
  const FaultSimResult r = fsim.run(patterns, {g_sa0}, blind);
  EXPECT_FALSE(r.detected[0]);
}

TEST(FaultSim, PartitionMaskFilterSemantics) {
  // 2 patterns, 2 partitions; cell 0 masked in partition of pattern 0 only.
  BitVec part0(2);
  part0.set(0);
  BitVec part1(2);
  part1.set(1);
  BitVec mask0(4);
  mask0.set(0);
  const BitVec mask1(4);
  const auto filter =
      observe_with_partition_masks({part0, part1}, {mask0, mask1});
  EXPECT_FALSE(filter(0, 0));
  EXPECT_TRUE(filter(0, 1));
  EXPECT_TRUE(filter(1, 0));
  EXPECT_TRUE(filter(2, 0)) << "uncovered pattern fully observable";
}

TEST(FaultSim, ScannedFlopQPinIsSeenOnShiftOut) {
  // s shifts out its own Q; u is unscanned and its Q drives nothing, so
  // only the scan path could ever see a stuck value there.
  const Netlist nl = read_bench_string(
      "INPUT(a)\nOUTPUT(s)\ns = DFF(a)\nu = NDFF(a)\n");
  const ScanPlan plan = ScanPlan::build(nl, 1);
  FaultSimulator fsim(nl, plan);
  const auto patterns = all_pi_patterns(nl, plan);  // a = 0, then a = 1
  const GateId s = nl.find("s");
  const GateId u = nl.find("u");
  const std::vector<StuckFault> faults = {
      {s, false}, {s, true}, {u, false}, {u, true}};
  const FaultSimResult r = fsim.run(patterns, faults);
  // The good machine captures a; s's cell reads the stuck value instead,
  // so it differs exactly when a is the complement of the stuck value.
  ASSERT_TRUE(r.detected[0]);
  EXPECT_EQ(r.first_pattern[0], 1u) << "s s-a-0 needs a good capture of 1";
  ASSERT_TRUE(r.detected[1]);
  EXPECT_EQ(r.first_pattern[1], 0u) << "s s-a-1 needs a good capture of 0";
  EXPECT_FALSE(r.detected[2]) << "an unscanned flop is never shifted out";
  EXPECT_FALSE(r.detected[3]) << "an unscanned flop is never shifted out";
  EXPECT_EQ(r.num_detected, 2u);

  const FaultSimResult ref =
      reference_run(nl, plan, patterns, faults, observe_all());
  EXPECT_EQ(r.detected, ref.detected);
  EXPECT_EQ(r.first_pattern, ref.first_pattern);
}

TEST(TestApplication, FaultChangesCapture) {
  // The faulty capture is the reference's: TestApplicator captures the good
  // machine only.
  const Netlist nl = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(q)\ng = AND(a, b)\nq = DFF(g)\n");
  const ScanPlan plan = ScanPlan::build(nl, 1);
  TestApplicator app(nl, plan);
  TestPattern p;
  p.pi = {Lv::k1, Lv::k1};
  p.scan_in = {Lv::k0};
  const ResponseMatrix good = app.capture({p});
  const ResponseMatrix bad =
      reference_capture_faulty(nl, plan, {p}, {nl.find("g"), false});
  EXPECT_EQ(good.get(0, 0), Lv::k1);
  EXPECT_EQ(bad.get(0, 0), Lv::k0);
}

// ---------------------------------------------------------------------------
// The cone-bounded simulator against the reference on 48 generated
// circuits: 40 to 640 gates, 0-3 buses, 0-20% unscanned flops, 1-7 chains;
// 1, 63, 64, 65 and 150 patterns, half of the sets with X's; and the whole
// uncollapsed fault list, which holds faults on inputs, scanned flops and
// unscanned flops. Each filter (all-observed, blind, partition masks) gets
// a third of the circuits, spread over the whole size range.

enum class Filter { kAll, kBlind, kPartitionMasks };

/// Faults compared, by the kind of their site.
struct Tally {
  std::size_t input_detected = 0;
  std::size_t scanned_detected = 0;
  std::size_t unscanned_faults = 0;
  std::size_t detected = 0;
};

/// Partition-mask filter over @p num_patterns patterns and @p num_cells
/// cells: three random partitions (every seventh pattern in none) with
/// random masks.
ObservationFilter random_partition_filter(std::size_t num_patterns,
                                          std::size_t num_cells, Rng& rng) {
  std::vector<BitVec> partitions(3, BitVec(num_patterns));
  std::vector<BitVec> masks(3, BitVec(num_cells));
  for (std::size_t p = 0; p < num_patterns; ++p) {
    if (p % 7 != 3) partitions[rng.below(3)].set(p);
  }
  for (BitVec& mask : masks) {
    for (std::size_t c = 0; c < num_cells; ++c) {
      if (rng.chance(0.3)) mask.set(c);
    }
  }
  return observe_with_partition_masks(partitions, masks);
}

/// Runs case @p k of 48 under @p filter_kind through both simulators;
/// false (with a failure naming the case and fault) at the first mismatch.
bool matches_reference(std::size_t k, Filter filter_kind, Tally& tally) {
  constexpr std::size_t kPatternCounts[] = {1, 63, 64, 65, 150};
  GeneratorConfig gen;
  gen.seed = 700 + k;
  gen.num_gates = 40 + k * 600 / 47;
  gen.num_dffs = 4 + (k * 7) % 29;
  gen.num_buses = k % 4;
  gen.nonscan_fraction = 0.05 * static_cast<double>(k % 5);
  const Netlist nl = generate_circuit(gen);
  const ScanPlan plan = ScanPlan::build(nl, 1 + k % 7);

  Rng rng(9000 + k);
  const std::size_t num_patterns = kPatternCounts[(k * 3) % 5];
  const double x_rate = k % 2 == 0 ? 0.0 : 0.1;
  std::vector<TestPattern> patterns;
  for (std::size_t i = 0; i < num_patterns; ++i) {
    TestPattern p = random_pattern(nl, plan, rng);
    for (Lv& v : p.pi) {
      if (rng.chance(x_rate)) v = Lv::kX;
    }
    for (Lv& v : p.scan_in) {
      if (rng.chance(x_rate)) v = Lv::kX;
    }
    patterns.push_back(std::move(p));
  }

  ObservationFilter filter = observe_all();
  if (filter_kind == Filter::kBlind) {
    filter = [](std::size_t, std::size_t) { return false; };
  } else if (filter_kind == Filter::kPartitionMasks) {
    filter = random_partition_filter(num_patterns,
                                     plan.geometry().num_cells(), rng);
  }

  const std::vector<StuckFault> faults = enumerate_faults(nl);
  const FaultSimResult got =
      FaultSimulator(nl, plan).run(patterns, faults, filter);
  const FaultSimResult want =
      reference_run(nl, plan, patterns, faults, filter);
  const std::string where = "case " + std::to_string(k) + " (" +
                            std::to_string(gen.num_gates) + " gates, " +
                            std::to_string(num_patterns) + " patterns)";
  if (got.num_detected != want.num_detected) {
    ADD_FAILURE() << where << ": " << got.num_detected << " detected, "
                  << want.num_detected << " in the reference";
    return false;
  }
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (got.detected[fi] != want.detected[fi] ||
        (want.detected[fi] &&
         got.first_pattern[fi] != want.first_pattern[fi])) {
      ADD_FAILURE() << where << ": fault " << fault_name(nl, faults[fi])
                    << " differs from the reference";
      return false;
    }
    const Gate& g = nl.gate(faults[fi].gate);
    const std::size_t hit = want.detected[fi] ? 1 : 0;
    if (g.type == GateType::kInput) {
      tally.input_detected += hit;
    } else if (g.type == GateType::kDff && g.scanned) {
      tally.scanned_detected += hit;
    } else if (g.type == GateType::kDff) {
      ++tally.unscanned_faults;
    }
  }
  tally.detected += want.num_detected;
  return true;
}

// An unscanned flop's Q is X in the good machine, and three-valued
// simulation is monotone, so no stuck value there can flip a definite
// capture: those faults are compared but never detected.

TEST(FaultSimEquivalence, AllObservedMatchesTheReference) {
  Tally tally;
  for (std::size_t k = 0; k < 48; k += 3) {
    ASSERT_TRUE(matches_reference(k, Filter::kAll, tally));
  }
  EXPECT_GT(tally.input_detected, 0u);
  EXPECT_GT(tally.scanned_detected, 0u);
  EXPECT_GT(tally.unscanned_faults, 0u);
}

TEST(FaultSimEquivalence, BlindFilterMatchesTheReference) {
  Tally tally;
  for (std::size_t k = 1; k < 48; k += 3) {
    ASSERT_TRUE(matches_reference(k, Filter::kBlind, tally));
  }
  EXPECT_EQ(tally.detected, 0u);
  EXPECT_GT(tally.unscanned_faults, 0u);
}

TEST(FaultSimEquivalence, PartitionMasksMatchTheReference) {
  Tally tally;
  for (std::size_t k = 2; k < 48; k += 3) {
    ASSERT_TRUE(matches_reference(k, Filter::kPartitionMasks, tally));
  }
  EXPECT_GT(tally.input_detected, 0u);
  EXPECT_GT(tally.scanned_detected, 0u);
  EXPECT_GT(tally.unscanned_faults, 0u);
}

}  // namespace
}  // namespace xh
