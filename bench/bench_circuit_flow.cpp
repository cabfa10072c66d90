// Ablation D — the full circuit-level flow the analytic workloads stand in
// for: synthesize a sequential circuit with real X-sources (unscanned flops,
// tri-state buses), run ATPG, capture responses through the scan plan, apply
// the pattern-partitioned hybrid, stream the masked response through a real
// X-canceling MISR, and verify the zero-coverage-loss guarantee by fault
// simulation of the full fault list under the hybrid's observation filter.
// The program exits 1 when the hybrid's masks lose a detection.
#include <cstdio>

#include "atpg/test_generation.hpp"
#include "core/hybrid.hpp"
#include "fault/fault_sim.hpp"
#include "fault/transition.hpp"
#include "misr/accounting.hpp"
#include "netlist/generator.hpp"
#include "printer_args.hpp"
#include "response/x_stats.hpp"
#include "scan/test_application.hpp"
#include "util/table.hpp"

namespace xh {
namespace {

GeneratorConfig circuit_cfg() {
  GeneratorConfig g;
  g.seed = 2016;
  g.num_inputs = 16;
  g.num_outputs = 16;
  g.num_gates = 600;
  g.num_dffs = 48;
  g.nonscan_fraction = 0.15;
  g.num_buses = 3;
  return g;
}

/// Runs and prints the flow; returns false when the masks lose coverage.
bool print_flow() {
  const Netlist nl = generate_circuit(circuit_cfg());
  const NetlistStats ns = compute_stats(nl);
  std::printf("== Ablation D: end-to-end circuit flow ===================\n");
  std::printf(
      "circuit: %zu gates, %zu DFFs (%zu unscanned), %zu tri-state drivers "
      "on %zu buses, depth %zu\n",
      ns.gates, ns.dffs, ns.nonscan_dffs, ns.tristate_drivers, ns.buses,
      ns.depth);

  const ScanPlan plan = ScanPlan::build(nl, 6);
  AtpgConfig acfg;
  acfg.random_patterns = 96;
  acfg.seed = 42;
  const AtpgResult atpg = generate_test_set(nl, plan, acfg);
  std::printf(
      "ATPG: %zu patterns, %zu/%zu faults detected (%.1f%%), "
      "%zu untestable, %zu aborted\n",
      atpg.patterns.size(), atpg.num_detected, atpg.faults.size(),
      100.0 * atpg.coverage(), atpg.num_untestable, atpg.num_aborted);

  TestApplicator app(nl, plan);
  const ResponseMatrix response = app.capture(atpg.patterns);
  std::printf("capture: %zu patterns x %zu cells, %zu X's (density %.2f%%)\n",
              response.num_patterns(), response.num_cells(),
              response.total_x(), 100.0 * response.x_density());
  const IntraCorrelation ic =
      analyze_intra_correlation(XMatrix::from_response(response));
  std::printf(
      "intra-correlation: %zu X runs, mean length %.2f, longest %zu, "
      "adjacency %.0f%%\n",
      ic.total_runs, ic.mean_run_length, ic.longest_run,
      100.0 * ic.adjacency_fraction);

  PipelineContext ctx;
  ctx.partitioner.misr = {16, 4};
  const HybridSimulation sim = run_hybrid_simulation(response, ctx);
  const XCancelResult baseline = run_x_canceling(response, ctx.misr());

  TextTable t({"scheme", "control bits", "MISR stops", "X into MISR"});
  t.add_row({"X-canceling only [12]",
             TextTable::num(sim.report.canceling_only_bits, 0),
             std::to_string(baseline.stops),
             std::to_string(baseline.total_x_seen)});
  t.add_row({"proposed hybrid",
             TextTable::num(sim.report.proposed_bits, 0),
             std::to_string(sim.cancel.stops),
             std::to_string(sim.x_entering_misr)});
  std::printf("\n%s", t.render().c_str());
  // Test-time: measured halting of the real session vs the paper's closed
  // form, plus the shadow-register alternative's channel cost.
  const double measured_base =
      measured_normalized_test_time(baseline, ctx.misr());
  const double measured_hybrid =
      measured_normalized_test_time(sim.cancel, ctx.misr());
  std::printf(
      "measured test time (halt simulation): %.3f -> %.3f "
      "(closed form: %.3f -> %.3f)\n",
      measured_base, measured_hybrid, sim.report.test_time_canceling_only,
      sim.report.test_time_proposed);
  const ShadowRegisterCost shadow = shadow_register_cost(
      ctx.misr(), baseline.total_x_seen, baseline.shift_cycles);
  std::printf(
      "shadow-register variant [11]: time 1.000 but %.2f control bits/cycle "
      "(%zu extra tester channels) — why the paper excludes it\n",
      shadow.control_bits_per_cycle, shadow.extra_channels);
  std::printf("partitions: %zu, masked %llu / leaked %llu X's\n",
              sim.report.partitioning.num_partitions(),
              static_cast<unsigned long long>(sim.report.partitioning.masked_x),
              static_cast<unsigned long long>(
                  sim.report.partitioning.leaked_x));

  // Coverage preservation, verified (not assumed) on every fault: a fault
  // detected under full observation must stay detected under the masks.
  FaultSimulator fsim(nl, plan);
  const FaultSimResult ideal =
      fsim.run(atpg.patterns, atpg.faults, observe_all());
  const FaultSimResult masked = fsim.run(
      atpg.patterns, atpg.faults,
      observe_with_partition_masks(sim.report.partitioning.partitions,
                                   sim.report.partitioning.masks));
  std::size_t lost = 0;
  for (std::size_t i = 0; i < atpg.faults.size(); ++i) {
    if (ideal.detected[i] && !masked.detected[i]) ++lost;
  }
  std::printf(
      "fault coverage: %.2f%% ideal vs %.2f%% under hybrid masks "
      "(%zu vs %zu of the full list of %zu faults) — %s\n",
      100.0 * ideal.coverage(), 100.0 * masked.coverage(),
      ideal.num_detected, masked.num_detected, atpg.faults.size(),
      lost == 0 ? "PRESERVED" : "LOST");

  // Transition-delay faults under launch-on-capture with the same patterns.
  TransitionFaultSimulator tsim(nl, plan);
  std::vector<TransitionFault> tf_sample;
  for (std::size_t i = 0; i < atpg.faults.size(); i += 6) {
    tf_sample.push_back({atpg.faults[i].gate, !atpg.faults[i].stuck_at_one});
  }
  const TransitionSimResult tdf = tsim.run(atpg.patterns, tf_sample);
  const ResponseMatrix loc_frame = tsim.capture_frame_response(atpg.patterns);
  std::printf(
      "transition faults (LOC, %zu-fault sample): %.2f%% coverage, "
      "%zu never launched; LOC capture frame X-density %.2f%% "
      "(stuck-at frame: %.2f%%)\n\n",
      tf_sample.size(), 100.0 * tdf.coverage(), tdf.never_launched,
      100.0 * loc_frame.x_density(), 100.0 * response.x_density());
  return lost == 0;
}

}  // namespace
}  // namespace xh

int main(int argc, char** argv) {
  xh::parse_no_arguments(argc, argv);
  return xh::print_flow() ? 0 : 1;
}
