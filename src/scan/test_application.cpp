#include "scan/test_application.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace xh {

TestPattern random_pattern(const Netlist& nl, const ScanPlan& plan,
                           Rng& rng) {
  TestPattern p;
  p.pi.reserve(nl.inputs().size());
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    p.pi.push_back(rng.chance(0.5) ? Lv::k1 : Lv::k0);
  }
  p.scan_in.assign(plan.geometry().num_cells(), Lv::k0);
  for (std::size_t cell = 0; cell < p.scan_in.size(); ++cell) {
    if (plan.dff_at(cell) != kNoGate) {
      p.scan_in[cell] = rng.chance(0.5) ? Lv::k1 : Lv::k0;
    }
  }
  return p;
}

std::size_t load_patterns(ParallelSim& sim, const ScanPlan& plan,
                          const std::vector<TestPattern>& patterns,
                          std::size_t base) {
  const Netlist& nl = sim.netlist();
  const std::size_t lanes = std::min<std::size_t>(64, patterns.size() - base);

  // Primary inputs.
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    LvPlane plane;
    for (std::size_t s = 0; s < lanes; ++s) {
      const TestPattern& p = patterns[base + s];
      XH_REQUIRE(p.pi.size() == nl.inputs().size(),
                 "pattern PI width mismatch");
      plane.set(s, p.pi[i]);
    }
    sim.set_input(nl.inputs()[i], plane);
  }

  // State: scanned flops get their scan-in data, unscanned flops are X.
  sim.set_all_state(Lv::kX);
  for (std::size_t cell = 0; cell < plan.geometry().num_cells(); ++cell) {
    const GateId dff = plan.dff_at(cell);
    if (dff == kNoGate) continue;
    LvPlane plane;
    for (std::size_t s = 0; s < lanes; ++s) {
      const TestPattern& p = patterns[base + s];
      XH_REQUIRE(p.scan_in.size() == plan.geometry().num_cells(),
                 "pattern scan width mismatch");
      plane.set(s, p.scan_in[cell]);
    }
    sim.set_state(dff, plane);
  }
  return lanes;
}

TestApplicator::TestApplicator(const Netlist& nl, const ScanPlan& plan)
    : nl_(&nl), plan_(&plan) {
  XH_REQUIRE(nl.finalized(), "test application requires a finalized netlist");
}

ResponseMatrix TestApplicator::capture(const std::vector<TestPattern>& patterns,
                                       Trace* trace) const {
  XH_REQUIRE(!patterns.empty(), "need at least one pattern");
  const ScopedSpan span(trace, "capture");
  ResponseMatrix response(plan_->geometry(), patterns.size());
  ParallelSim sim(*nl_);
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t lanes = load_patterns(sim, *plan_, patterns, base);
    sim.evaluate();
    for (std::size_t cell = 0; cell < plan_->geometry().num_cells(); ++cell) {
      const GateId dff = plan_->dff_at(cell);
      if (dff == kNoGate) continue;  // padding cells stay deterministic 0
      const LvPlane& next = sim.next_state_plane(dff);
      for (std::size_t s = 0; s < lanes; ++s) {
        response.set(base + s, cell, next.get(s));
      }
    }
  }
  return response;
}

}  // namespace xh
