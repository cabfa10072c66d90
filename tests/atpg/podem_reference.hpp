// Reference PODEM: the scalar search the lockstep engine (atpg/podem.hpp)
// replaced, kept to pin it. One search at a time in lanes 0 and 1 of one
// plane (good and faulty machine); an assignment is implied event-driven,
// level by level through the input's combinational fanout, every
// overwritten plane goes onto an undo trail, and a backtrack rolls the trail
// back to the decision's mark. The D-frontier and X-path searches walk the
// fault's cone only (the X-path check depth-first).
//
// reference_test_set() is generate_test_set() as a sequential loop over this
// search: one fault after another, in fault order.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/podem.hpp"
#include "atpg/test_generation.hpp"
#include "fault/fault_model.hpp"
#include "fault/testability.hpp"
#include "netlist/netlist.hpp"
#include "scan/scan_plan.hpp"
#include "scan/test_application.hpp"
#include "sim/logic.hpp"
#include "sim/parallel_sim.hpp"

namespace xh {

class ReferencePodem {
 public:
  ReferencePodem(const Netlist& nl, const ScanPlan& plan);

  /// Same contract as Podem::generate().
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
  /// A gate's (good, bad) plane as it was before an implication
  /// overwrote it.
  struct TrailEntry {
    GateId gate;
    LvPlane planes;
  };

  /// Marks the fault site and its combinational fanout in in_fault_cone_
  /// and lists them in topological order in fault_cone_.
  void build_fault_cone(const StuckFault& fault);
  /// Full simulation of both machines with every input unassigned.
  void simulate(const StuckFault& fault);
  /// Both machines' planes of combinational gate @p id over its fanin's,
  /// the fault site's faulty lane forced to the stuck value.
  LvPlane implied(const StuckFault& fault, GateId id) const;
  /// Assigns @p input and implies the change through its fanout.
  void assign(const StuckFault& fault, GateId input, bool value);
  /// Overwrites one gate's planes, trails the old ones and schedules the
  /// gate's combinational fanout for re-evaluation.
  void set_planes(GateId id, const LvPlane& planes);
  /// Restores every plane overwritten since the trail had @p mark entries.
  void undo_to(std::size_t mark);
  /// The good (lane 0) machine's value of a net.
  Lv good(GateId id) const;
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
  GateGraph graph_;
  // Lane 0 of a gate's plane is its good value, lane 1 its faulty value.
  std::vector<LvPlane> planes_;
  std::vector<GateId> observed_nets_;  // D inputs of the scanned flops
  std::vector<bool> is_observed_;
  std::vector<bool> in_fault_cone_;
  std::vector<GateId> fault_cone_;
  // Event queue: one bucket of scheduled gates per logic level, filled up
  // to top_level_.
  std::vector<std::vector<GateId>> level_queue_;
  std::size_t top_level_ = 0;
  std::vector<bool> queued_;
  std::vector<TrailEntry> trail_;
  // x_path_exists scratch: a gate is visited iff its stamp equals epoch_.
  std::vector<std::uint32_t> visit_stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<GateId> dfs_stack_;
  PodemStats stats_;
};

/// generate_test_set() as a sequential loop over ReferencePodem: the same
/// random phase, then one search per undetected fault in fault order, each
/// with its rng draw, counts and dropping pass. With @p stats, appends every
/// search's stats in order.
AtpgResult reference_test_set(const Netlist& nl, const ScanPlan& plan,
                              const AtpgConfig& cfg,
                              std::vector<PodemStats>* stats = nullptr);

}  // namespace xh
