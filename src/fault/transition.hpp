// Transition-delay fault model with launch-on-capture (broadside)
// application.
//
// A slow-to-rise (STR) fault at a site delays its 0→1 edge past the at-speed
// capture window: whenever the launch frame leaves the site at 0 and the
// fault-free capture frame would raise it to 1, the faulty machine still
// reads 0 at capture (dually for slow-to-fall). LOC application:
//
//   1. scan-load the launch state, apply the PI vector,
//   2. functional clock — EVERY flop (scanned and unscanned) captures,
//   3. the at-speed capture frame evaluates; scanned flops capture and the
//      result shifts out.
//
// The launch (shift) frame runs at slow clock, so the site settles correctly
// there; the delay only matters in the capture frame — modeled by forcing
// the site to its pre-transition value in exactly the pattern lanes where a
// transition was launched (ParallelSim's lane-masked fault injection).
// Detection uses the same X-aware rule as stuck-at: both machines definite
// at an observed cell and different.
//
// A side effect worth noting: the functional launch clock initializes
// unscanned flops with (possibly definite) captured data, so the capture
// frame typically carries FEWER X's than a stuck-at frame — LOC interacts
// with the paper's X statistics.
#pragma once

#include <vector>

#include "fault/fault_model.hpp"
#include "netlist/netlist.hpp"
#include "scan/scan_plan.hpp"
#include "scan/test_application.hpp"

namespace xh {

struct TransitionFault {
  GateId gate = kNoGate;
  bool slow_to_rise = true;

  bool operator==(const TransitionFault&) const = default;
};

std::string transition_fault_name(const Netlist& nl,
                                  const TransitionFault& fault);

/// STR+STF on every faultable site (same universe as stuck-at enumeration).
std::vector<TransitionFault> enumerate_transition_faults(const Netlist& nl);

struct [[nodiscard]] TransitionSimResult {
  std::vector<TransitionFault> faults;
  std::vector<bool> detected;
  std::size_t num_detected = 0;
  /// Faults whose transition was never even launched by the pattern set.
  std::size_t never_launched = 0;

  double coverage() const {
    return faults.empty() ? 0.0
                          : static_cast<double>(num_detected) /
                                static_cast<double>(faults.size());
  }
};

/// Launch-on-capture transition fault simulation (64 patterns per sweep;
/// the PI vector is held across both frames).
class TransitionFaultSimulator {
 public:
  TransitionFaultSimulator(const Netlist& nl, const ScanPlan& plan);

  TransitionSimResult run(const std::vector<TestPattern>& patterns,
                          const std::vector<TransitionFault>& faults) const;

  /// Fault-free capture-frame response under LOC (what the compactor sees);
  /// exposes the X-density effect of the functional launch clock.
  ResponseMatrix capture_frame_response(
      const std::vector<TestPattern>& patterns) const;

 private:
  const Netlist* nl_;
  const ScanPlan* plan_;
};

}  // namespace xh
