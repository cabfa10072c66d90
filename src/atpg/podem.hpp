// PODEM (Path-Oriented DEcision Making) deterministic test generation.
//
// Implemented as dual three-valued simulation: a good machine and a faulty
// machine run side by side over the same partial input assignment; X marks
// "not yet assigned". Three-valued simulation is monotone in assignments
// (definite values never change as X's get filled in), which yields exact
// early conflict detection: once every observation point is definite and
// equal in both machines, no completion can detect the fault.
//
// Implication is event-driven. generate() simulates both machines in full
// once; after that an assignment re-evaluates only the gates whose fanin
// changed, level by level through the input's combinational fanout, and
// every overwritten (good, bad) pair goes onto an undo trail. A backtrack
// rolls the trail back to the decision's mark instead of re-simulating.
// Outside the fault's combinational fanout cone the faulty machine equals
// the good one, so those values are copied, and the D-frontier and X-path
// searches walk the cone only. Because three-valued simulation is a pure
// function of the assignment, the values after every step equal a full
// re-simulation.
//
// Controllable inputs are the primary inputs and the scanned flops; the
// observation points are the scanned flops' capture values. Unscanned flops
// and floating/contending buses stay X — PODEM navigates around them exactly
// like a commercial ATPG must.
#pragma once

#include <cstdint>
#include <optional>

#include "fault/fault_model.hpp"
#include "fault/testability.hpp"
#include "netlist/netlist.hpp"
#include "scan/scan_plan.hpp"
#include "scan/test_application.hpp"
#include "sim/logic.hpp"

namespace xh {

struct PodemStats {
  std::size_t decisions = 0;
  std::size_t backtracks = 0;
  bool aborted = false;  // hit the backtrack limit (fault MAY be testable)
};

class Podem {
 public:
  Podem(const Netlist& nl, const ScanPlan& plan);

  /// Generates a test for @p fault or returns nullopt (untestable, or
  /// aborted — see stats().aborted). Unassigned inputs in the returned
  /// pattern are filled with pseudo-random values from @p fill_seed, or left
  /// as Lv::kX don't-cares when @p fill_dont_cares is false (the form a
  /// stimulus decompressor wants).
  std::optional<TestPattern> generate(const StuckFault& fault,
                                      std::size_t backtrack_limit = 2000,
                                      std::uint64_t fill_seed = 1,
                                      bool fill_dont_cares = true);

  const PodemStats& stats() const { return stats_; }

 private:
  struct Assignment {
    GateId input;       // PI or scanned DFF
    bool value;
    bool tried_both;
    std::size_t trail_mark;  // trail size before this input was assigned
  };
  /// A (good, bad) pair as it was before an implication overwrote it.
  struct TrailEntry {
    GateId gate;
    Lv good;
    Lv bad;
  };

  /// Marks the fault site and its combinational fanout in in_fault_cone_
  /// and lists them in topological order in fault_cone_.
  void build_fault_cone(const StuckFault& fault);
  /// Full simulation of both machines with every input unassigned.
  void simulate(const StuckFault& fault);
  /// Assigns @p input and implies the change through its fanout.
  void assign(const StuckFault& fault, GateId input, bool value);
  /// Overwrites one gate's (good, bad) pair, trails the old pair and
  /// schedules the gate's combinational fanout for re-evaluation.
  void set_values(GateId id, Lv good, Lv bad);
  /// Restores every value overwritten since the trail had @p mark entries.
  void undo_to(std::size_t mark);
  bool detected(const StuckFault& fault) const;
  bool conflict(const StuckFault& fault) const;
  /// X-path check: can the fault effect still reach an observer through
  /// gates whose output is unresolved? False ⇒ no completion detects.
  bool x_path_exists(const StuckFault& fault);
  /// Finds (gate, value) to pursue next; nullopt when the D-frontier is gone.
  std::optional<std::pair<GateId, bool>> objective(const StuckFault& fault);
  /// Walks an X-path from the objective to a controllable input; returns the
  /// input and the value to assign, or nullopt when no path exists.
  std::optional<std::pair<GateId, bool>> backtrace(GateId gate, bool value);

  const Netlist* nl_;
  const ScanPlan* plan_;
  Testability scoap_;
  std::vector<Lv> good_;
  std::vector<Lv> bad_;
  // Fanout edges into flops are dropped: a flop's value is its scan
  // assignment, and the edge into a scanned flop is the observation itself.
  std::vector<std::vector<GateId>> comb_fanout_;
  std::vector<GateId> observed_nets_;  // D inputs of the scanned flops
  std::vector<bool> is_observed_;
  std::vector<bool> in_fault_cone_;
  std::vector<GateId> fault_cone_;
  // Event queue: one bucket of scheduled gates per logic level.
  std::vector<std::vector<GateId>> level_queue_;
  std::vector<bool> queued_;
  std::vector<TrailEntry> trail_;
  // x_path_exists scratch: a gate is visited iff its stamp equals epoch_.
  std::vector<std::uint32_t> visit_stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<GateId> dfs_stack_;
  PodemStats stats_;
};

}  // namespace xh
