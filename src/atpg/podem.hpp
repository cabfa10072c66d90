// PODEM (Path-Oriented DEcision Making) deterministic test generation.
//
// Implemented as dual three-valued simulation: a good machine and a faulty
// machine run side by side over the same partial input assignment; X marks
// "not yet assigned". Three-valued simulation is monotone in assignments
// (definite values never change as X's get filled in), which yields exact
// early conflict detection: once every observation point is definite and
// equal in both machines, no completion can detect the fault.
//
// Up to kSlots searches run in lockstep in one 64-lane plane: search k holds
// its good machine in lane 2k and its faulty machine in lane 2k+1, and
// per-gate lane masks force each search's faulty lane at its fault site. A
// round makes one topological sweep that implies every lane through
// evaluate_plane() and, in the same pass, derives per-search masks: which
// nets differ, which an X-path reaches, the D-frontier's best objective and
// what the observed nets show. Then every running search takes exactly one
// iteration of the sequential PODEM loop and assigns or un-assigns its own
// lane bits. A lane's values are a pure function of its own assignment
// stack, so nothing is undone: the next sweep recomputes them.
//
// Controllable inputs are the primary inputs and the scanned flops; the
// observation points are the scanned flops' capture values. Unscanned flops
// and floating/contending buses stay X — PODEM navigates around them exactly
// like a commercial ATPG must.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "fault/fault_model.hpp"
#include "fault/testability.hpp"
#include "netlist/netlist.hpp"
#include "scan/scan_plan.hpp"
#include "scan/test_application.hpp"
#include "sim/parallel_sim.hpp"

namespace xh {

struct PodemStats {
  std::size_t decisions = 0;
  std::size_t backtracks = 0;
  bool aborted = false;  // hit the backtrack limit (fault MAY be testable)
};

/// One finished search. A found pattern holds every input the search did
/// not assign as Lv::kX, and so does every scan cell with no flop behind it;
/// fill_unassigned() completes it.
struct [[nodiscard]] PodemResult {
  PodemStats stats;
  std::optional<TestPattern> pattern;
};

/// Fills @p pattern's unassigned inputs with pseudo-random values from
/// @p fill_seed (primary inputs, then scan cells, in order) and its cells
/// with no flop behind them with 0.
void fill_unassigned(TestPattern& pattern, const ScanPlan& plan,
                     std::uint64_t fill_seed);

class Podem {
 public:
  /// Searches that share the plane.
  static constexpr std::size_t kSlots = 32;

  Podem(const Netlist& nl, const ScanPlan& plan);

  /// Generates a test for @p fault or returns nullopt (untestable, or
  /// aborted — see stats().aborted): a batch of one. Unassigned inputs in
  /// the returned pattern are filled with pseudo-random values from
  /// @p fill_seed, or left as Lv::kX don't-cares when @p fill_dont_cares is
  /// false (the form a stimulus decompressor wants).
  std::optional<TestPattern> generate(const StuckFault& fault,
                                      std::size_t backtrack_limit = 2000,
                                      std::uint64_t fill_seed = 1,
                                      bool fill_dont_cares = true);

  const PodemStats& stats() const { return stats_; }

  /// Lockstep use: launch() starts a search in a free slot and returns the
  /// slot; round() runs one round and returns the mask of slots whose
  /// search finished in it; take() hands over a finished search's result
  /// and frees its slot; cancel() frees a slot whatever its search is
  /// doing. A search's result does not depend on what the other slots run.
  bool has_free_slot() const { return busy_ != kAllSlots; }
  std::size_t launch(const StuckFault& fault, std::size_t backtrack_limit);
  std::uint32_t round();
  PodemResult take(std::size_t slot);
  void cancel(std::size_t slot);

  /// Rounds run, and search iterations run in them, since construction.
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t lane_steps() const { return lane_steps_; }

 private:
  static constexpr std::uint32_t kAllSlots = 0xffffffffU;

  struct Assignment {
    GateId input;  // PI or scanned DFF
    bool value;
    bool tried_both;
  };
  /// The best D-frontier objective a sweep found for one search: the
  /// cheapest unassigned input (SCOAP CC) of the most observable gate
  /// (SCOAP CO), and the value that sensitizes it.
  struct Objective {
    GateId input = kNoGate;
    bool value = false;
    std::uint32_t co = kScoapInf;
    std::uint32_t cc = kScoapInf;
  };
  struct Search {
    StuckFault fault{};
    std::size_t backtrack_limit = 0;
    std::vector<Assignment> stack;
    PodemStats stats;
    std::optional<TestPattern> pattern;
  };
  /// A net's per-search masks (bit 2k for search k): its two machines
  /// differ, and an X-path reaches it.
  struct PairMasks {
    std::uint64_t diff = 0;
    std::uint64_t reach = 0;
  };

  /// Implies every lane and derives the per-search masks (one topological
  /// pass).
  void sweep();
  /// One iteration of search @p k's loop; true when the search finished.
  bool step(std::size_t k);
  /// Sets search @p k's lanes of @p input to @p value, or to X.
  void assign(std::size_t k, GateId input, bool value);
  void unassign(std::size_t k, GateId input);
  /// Un-assigns every input search @p k holds and lifts its site forcing.
  void clear(std::size_t k);
  /// Is search @p k's good machine definite (0 or 1) on net @p id?
  bool good_definite(std::size_t k, GateId id) const;
  bool good_one(std::size_t k, GateId id) const;
  /// A scanned-flop site's shift-out observer: has the good machine
  /// captured the complement of the stuck value / the stuck value itself?
  bool shift_out_differs(std::size_t k) const;
  bool shift_out_settled_equal(std::size_t k) const;
  /// Walks an X-path from the objective to a controllable input; returns the
  /// input and the value to assign, or nullopt when no path exists.
  std::optional<std::pair<GateId, bool>> backtrace(std::size_t k, GateId gate,
                                                   bool value) const;

  const Netlist* nl_;
  const ScanPlan* plan_;
  Testability scoap_;
  GateGraph graph_;
  std::vector<std::uint8_t> is_observed_;  // D inputs of the scanned flops
  std::vector<std::uint8_t> is_scanned_dff_;
  // Inputs' and flops' planes as assigned (X where not), before forcing.
  std::vector<LvPlane> source_;
  // Faulty lanes forced at a gate, and the subset forced to 1.
  std::vector<std::uint64_t> forced_;
  std::vector<std::uint64_t> forced_one_;
  std::vector<LvPlane> planes_;
  std::vector<PairMasks> masks_;
  // The sweep's per-search results over the observed nets.
  std::uint64_t observed_open_ = 0;
  std::uint64_t observed_diff_ = 0;
  std::uint64_t observed_reach_ = 0;
  std::array<Objective, kSlots> objective_{};
  std::array<Search, kSlots> slots_;
  std::uint32_t busy_ = 0;     // slots holding a search
  std::uint32_t running_ = 0;  // busy slots whose search has not finished
  std::uint64_t rounds_ = 0;
  std::uint64_t lane_steps_ = 0;
  PodemStats stats_;
};

}  // namespace xh
