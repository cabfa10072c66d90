// Parallel-pattern single-fault stuck-at fault simulation with X-awareness.
//
// Detection rule: fault f is detected by pattern p iff some OBSERVABLE scan
// cell captures a definite (non-X) value in both the good and the faulty
// machine and the two values differ. An X in either machine never counts —
// this is precisely why X's destroy coverage in compacted test and why the
// paper's "never mask a non-X" rule keeps coverage intact. A stuck-at on a
// scanned flop's Q pin is also seen on shift-out: that cell reads the stuck
// value whatever the flop captured.
//
// The good machine is simulated once per 64-pattern block. Each fault is
// then propagated event-driven through its own combinational fanout only,
// level by level, and the walk stops wherever the faulty planes equal the
// good ones; so a fault's cone is found as it is simulated, and no cone is
// kept.
//
// Observability is pluggable: full observation, or restricted by an
// X-handling scheme's per-pattern cell masks (used to VERIFY rather than
// assume the paper's zero-coverage-loss claim).
#pragma once

#include <functional>
#include <vector>

#include "fault/fault_model.hpp"
#include "netlist/netlist.hpp"
#include "obs/trace.hpp"
#include "scan/scan_plan.hpp"
#include "scan/test_application.hpp"
#include "sim/parallel_sim.hpp"
#include "util/bitvec.hpp"

namespace xh {

/// Per-(pattern, cell) observability predicate.
using ObservationFilter =
    std::function<bool(std::size_t pattern, std::size_t cell)>;

/// Everything observable (ideal bit-level compare).
ObservationFilter observe_all();

/// Observable unless the cell is masked for the pattern's partition.
/// @p partitions / @p masks use the partitioner's conventions.
ObservationFilter observe_with_partition_masks(
    const std::vector<BitVec>& partitions, const std::vector<BitVec>& masks);

struct [[nodiscard]] FaultSimResult {
  std::vector<StuckFault> faults;
  std::vector<bool> detected;
  /// First detecting pattern per fault (undefined when undetected).
  std::vector<std::size_t> first_pattern;
  std::size_t num_detected = 0;

  double coverage() const {
    return faults.empty() ? 0.0
                          : static_cast<double>(num_detected) /
                                static_cast<double>(faults.size());
  }
};

class FaultSimulator {
 public:
  FaultSimulator(const Netlist& nl, const ScanPlan& plan);

  /// Simulates every fault against every pattern (serial fault, 64-way
  /// parallel patterns). @p observe filters which captures count; it is
  /// asked once per (pattern, scan cell). With a @p trace, the call runs in
  /// a "fault_sim" span and adds the faulty machines' gate evaluations to
  /// fault.gates_evaluated.
  FaultSimResult run(const std::vector<TestPattern>& patterns,
                     const std::vector<StuckFault>& faults,
                     const ObservationFilter& observe = observe_all(),
                     Trace* trace = nullptr) const;

  const ScanPlan& plan() const { return *plan_; }

 private:
  const Netlist* nl_;
  const ScanPlan* plan_;
  GateGraph graph_;
  // Per net, the cells whose scanned flop captures it.
  std::vector<std::vector<std::size_t>> observers_;
};

}  // namespace xh
