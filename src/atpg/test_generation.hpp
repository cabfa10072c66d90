// Complete test-set generation: random phase with fault dropping, then
// deterministic PODEM top-up for the survivors.
#pragma once

#include <cstdint>

#include "atpg/podem.hpp"
#include "fault/fault_model.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/netlist.hpp"
#include "obs/trace.hpp"
#include "scan/scan_plan.hpp"
#include "scan/test_application.hpp"

namespace xh {

struct AtpgConfig {
  /// Random-fill patterns tried before deterministic generation.
  std::size_t random_patterns = 64;
  std::size_t backtrack_limit = 2000;
  std::uint64_t seed = 1;
  /// Drop random patterns that detect nothing new (test-set compaction).
  bool compact_random_phase = true;
  /// Fill PODEM don't-cares with random values (true, standard) or keep
  /// them as Lv::kX for a downstream stimulus decompressor (false; the
  /// random phase is skipped in that mode since random patterns have no
  /// don't-cares worth compressing).
  bool fill_dont_cares = true;
};

struct [[nodiscard]] AtpgResult {
  std::vector<TestPattern> patterns;
  std::vector<StuckFault> faults;      // the collapsed universe targeted
  std::vector<bool> detected;          // per fault
  std::size_t num_detected = 0;
  std::size_t num_untestable = 0;      // PODEM exhausted the search space
  std::size_t num_aborted = 0;         // backtrack limit hit

  double coverage() const {
    return faults.empty() ? 0.0
                          : static_cast<double>(num_detected) /
                                static_cast<double>(faults.size());
  }
};

/// Generates a pattern set for the collapsed stuck-at universe of @p nl.
///
/// The deterministic phase runs up to Podem::kSlots searches in lockstep:
/// free slots take the next undetected faults, and finished searches commit
/// in fault order. A commit does what a sequential loop over the faults
/// would do for that fault: draw the fill seed from the config's rng, fill
/// the don't-cares, count the search, and drop with one fault simulation
/// every remaining fault a found pattern detects. A search whose fault an
/// earlier commit dropped is discarded (cancelled if it still runs). So the
/// result equals the sequential loop's, bit for bit.
///
/// With a @p trace, the call runs in this span tree:
///
///   atpg
///     random          the random phase
///       fault_sim
///     podem           a stretch of lockstep rounds, run until the oldest
///                     uncommitted search has finished
///     drop            one per committed pattern: the dropping pass
///       fault_sim
///
/// Counters: atpg.searches (committed searches), atpg.backtracks (summed
/// over committed searches only), atpg.rounds (lockstep sweeps),
/// atpg.lane_steps (search iterations run, discarded searches' included),
/// atpg.discarded (speculative searches thrown away), and each fault
/// simulation's fault.gates_evaluated.
AtpgResult generate_test_set(const Netlist& nl, const ScanPlan& plan,
                             const AtpgConfig& cfg, Trace* trace = nullptr);

}  // namespace xh
