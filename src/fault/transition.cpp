#include "fault/transition.hpp"

#include "util/check.hpp"

namespace xh {
namespace {

std::uint64_t lane_mask(std::size_t lanes) {
  return lanes >= 64 ? ~0ULL : ((1ULL << lanes) - 1);
}

}  // namespace

std::string transition_fault_name(const Netlist& nl,
                                  const TransitionFault& fault) {
  return nl.gate(fault.gate).name +
         (fault.slow_to_rise ? "/str" : "/stf");
}

std::vector<TransitionFault> enumerate_transition_faults(const Netlist& nl) {
  std::vector<TransitionFault> out;
  for (const StuckFault& sf : enumerate_faults(nl)) {
    // enumerate_faults yields each site twice (sa0/sa1); map onto STR/STF.
    out.push_back({sf.gate, !sf.stuck_at_one});
  }
  return out;
}

TransitionFaultSimulator::TransitionFaultSimulator(const Netlist& nl,
                                                   const ScanPlan& plan)
    : nl_(&nl), plan_(&plan) {
  XH_REQUIRE(nl.finalized(), "transition simulation needs a finalized netlist");
}

TransitionSimResult TransitionFaultSimulator::run(
    const std::vector<TestPattern>& patterns,
    const std::vector<TransitionFault>& faults) const {
  XH_REQUIRE(!patterns.empty(), "need at least one pattern");
  TransitionSimResult result;
  result.faults = faults;
  result.detected.assign(faults.size(), false);
  std::vector<bool> launched(faults.size(), false);

  ParallelSim good(*nl_);
  ParallelSim bad(*nl_);

  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, patterns.size() - base);
    const std::uint64_t active = lane_mask(lanes);

    // ---- launch frame (fault-free; shift clock is slow) -------------------
    for (std::size_t i = 0; i < nl_->inputs().size(); ++i) {
      LvPlane plane;
      for (std::size_t s = 0; s < lanes; ++s) {
        plane.set(s, patterns[base + s].pi[i]);
      }
      good.set_input(nl_->inputs()[i], plane);
      bad.set_input(nl_->inputs()[i], plane);
    }
    good.set_all_state(Lv::kX);
    for (std::size_t cell = 0; cell < plan_->geometry().num_cells(); ++cell) {
      const GateId dff = plan_->dff_at(cell);
      if (dff == kNoGate) continue;
      LvPlane plane;
      for (std::size_t s = 0; s < lanes; ++s) {
        plane.set(s, patterns[base + s].scan_in[cell]);
      }
      good.set_state(dff, plane);
    }
    good.evaluate();

    // Launch-frame site values and the functional capture into ALL flops.
    std::vector<LvPlane> frame1(nl_->gate_count());
    for (GateId id = 0; id < nl_->gate_count(); ++id) {
      frame1[id] = good.plane(id);
    }
    std::vector<LvPlane> launched_state(nl_->gate_count());
    for (const GateId dff : nl_->dffs()) {
      launched_state[dff] = good.next_state_plane(dff);
    }

    // ---- capture frame, fault-free ----------------------------------------
    good.clock();
    good.evaluate();
    std::vector<LvPlane> frame2(nl_->gate_count());
    for (GateId id = 0; id < nl_->gate_count(); ++id) {
      frame2[id] = good.plane(id);
    }
    std::vector<LvPlane> good_capture(nl_->gate_count());
    for (const GateId dff : nl_->scan_dffs()) {
      good_capture[dff] = good.next_state_plane(dff);
    }

    // ---- per fault: capture frame with the delayed site -------------------
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (result.detected[fi]) continue;
      const GateId site = faults[fi].gate;
      const bool str = faults[fi].slow_to_rise;
      const std::uint64_t launch =
          (str ? frame1[site].zeros() & frame2[site].ones()
               : frame1[site].ones() & frame2[site].zeros()) &
          active;
      if (launch == 0) continue;
      launched[fi] = true;

      for (const GateId dff : nl_->dffs()) {
        bad.set_state(dff, launched_state[dff]);
      }
      bad.inject(
          ParallelSim::Fault{site, str ? Lv::k0 : Lv::k1, launch});
      bad.evaluate();
      for (const GateId dff : nl_->scan_dffs()) {
        const LvPlane& g = good_capture[dff];
        const LvPlane& b = bad.next_state_plane(dff);
        // Definite in both machines and different, in any active lane.
        const std::uint64_t differs =
            ((g.zeros() & b.ones()) | (g.ones() & b.zeros())) &
            active;
        if (differs != 0) {
          result.detected[fi] = true;
          ++result.num_detected;
          break;
        }
      }
      bad.inject(std::nullopt);
    }
  }

  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (!launched[fi]) ++result.never_launched;
  }
  return result;
}

ResponseMatrix TransitionFaultSimulator::capture_frame_response(
    const std::vector<TestPattern>& patterns) const {
  XH_REQUIRE(!patterns.empty(), "need at least one pattern");
  ResponseMatrix response(plan_->geometry(), patterns.size());
  ParallelSim sim(*nl_);
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, patterns.size() - base);
    for (std::size_t i = 0; i < nl_->inputs().size(); ++i) {
      LvPlane plane;
      for (std::size_t s = 0; s < lanes; ++s) {
        plane.set(s, patterns[base + s].pi[i]);
      }
      sim.set_input(nl_->inputs()[i], plane);
    }
    sim.set_all_state(Lv::kX);
    for (std::size_t cell = 0; cell < plan_->geometry().num_cells(); ++cell) {
      const GateId dff = plan_->dff_at(cell);
      if (dff == kNoGate) continue;
      LvPlane plane;
      for (std::size_t s = 0; s < lanes; ++s) {
        plane.set(s, patterns[base + s].scan_in[cell]);
      }
      sim.set_state(dff, plane);
    }
    sim.evaluate();  // launch
    sim.clock();     // functional capture into every flop
    sim.evaluate();  // at-speed frame
    for (std::size_t cell = 0; cell < plan_->geometry().num_cells(); ++cell) {
      const GateId dff = plan_->dff_at(cell);
      if (dff == kNoGate) continue;
      const LvPlane& next = sim.next_state_plane(dff);
      for (std::size_t s = 0; s < lanes; ++s) {
        response.set(base + s, cell, next.get(s));
      }
    }
  }
  return response;
}

}  // namespace xh
