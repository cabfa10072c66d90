#include "fault/fault_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/check.hpp"

namespace xh {
namespace {

/// Lanes where both machines capture a definite value and the values
/// differ. A flop reads Z as X at its D pin, so ~p1 marks a definite capture.
std::uint64_t differs(const LvPlane& good, const LvPlane& bad) {
  return ~good.p1 & ~bad.p1 & (good.p0 ^ bad.p0);
}

}  // namespace

ObservationFilter observe_all() {
  return [](std::size_t, std::size_t) { return true; };
}

ObservationFilter observe_with_partition_masks(
    const std::vector<BitVec>& partitions, const std::vector<BitVec>& masks) {
  XH_REQUIRE(partitions.size() == masks.size(),
             "one mask per partition required");
  // Copy by value into the closure: the filter outlives its arguments.
  return [partitions, masks](std::size_t pattern, std::size_t cell) {
    for (std::size_t i = 0; i < partitions.size(); ++i) {
      if (pattern < partitions[i].size() && partitions[i].get(pattern)) {
        return cell >= masks[i].size() || !masks[i].get(cell);
      }
    }
    return true;  // pattern not covered by any partition — fully observable
  };
}

FaultSimulator::FaultSimulator(const Netlist& nl, const ScanPlan& plan)
    : nl_(&nl), plan_(&plan), graph_(nl), observers_(nl.gate_count()) {
  for (std::size_t cell = 0; cell < plan.geometry().num_cells(); ++cell) {
    const GateId dff = plan.dff_at(cell);
    if (dff != kNoGate) observers_[nl.gate(dff).fanin[0]].push_back(cell);
  }
}

FaultSimResult FaultSimulator::run(const std::vector<TestPattern>& patterns,
                                   const std::vector<StuckFault>& faults,
                                   const ObservationFilter& observe,
                                   Trace* trace) const {
  XH_REQUIRE(!patterns.empty(), "need at least one pattern");
  const ScopedSpan span(trace, "fault_sim");
  const TraceCounterHandle evaluated =
      obs_counter(trace, "fault.gates_evaluated");
  FaultSimResult result;
  result.faults = faults;
  result.detected.assign(faults.size(), false);
  result.first_pattern.assign(faults.size(), 0);

  const std::size_t n = nl_->gate_count();
  const std::size_t num_cells = plan_->geometry().num_cells();
  ParallelSim sim(*nl_);
  std::vector<LvPlane> good(n);
  // The faulty machine: equal to `good` except at the gates in `changed`.
  std::vector<LvPlane> bad(n);
  std::vector<GateId> changed;
  // Lane s of observed[cell] is set when pattern base + s is seen there.
  std::vector<std::uint64_t> observed(num_cells);
  // Event queue: one bucket of scheduled gates per logic level.
  std::vector<std::vector<GateId>> level_queue(nl_->depth() + 1);
  std::size_t top_level = 0;
  std::vector<bool> queued(n, false);
  std::uint64_t evaluations = 0;

  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t lanes = load_patterns(sim, *plan_, patterns, base);
    sim.evaluate();
    for (GateId id = 0; id < n; ++id) good[id] = sim.plane(id);
    bad = good;
    for (std::size_t cell = 0; cell < num_cells; ++cell) {
      std::uint64_t word = 0;
      if (plan_->dff_at(cell) != kNoGate) {
        for (std::size_t s = 0; s < lanes; ++s) {
          if (observe(base + s, cell)) word |= std::uint64_t{1} << s;
        }
      }
      observed[cell] = word;
    }

    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (result.detected[fi]) continue;
      const GateId site = faults[fi].gate;
      XH_REQUIRE(site < n, "fault gate out of range");
      const LvPlane stuck =
          LvPlane::splat(faults[fi].stuck_at_one ? Lv::k1 : Lv::k0);

      // A scanned flop's cell shifts out its Q pin, so a stuck Q shows
      // there whatever the flop captured; that cell reads nothing else.
      std::uint64_t hits = 0;
      std::size_t site_cell = num_cells;
      if (graph_.type(site) == GateType::kDff && nl_->gate(site).scanned) {
        site_cell = plan_->cell_of(site);
        hits = differs(good[graph_.fanin(site)[0]], stuck) &
               observed[site_cell];
      }
      const auto set_bad = [&](GateId id, const LvPlane& value) {
        bad[id] = value;
        changed.push_back(id);
        for (const std::size_t cell : observers_[id]) {
          if (cell == site_cell) continue;
          hits |= differs(good[id], value) & observed[cell];
        }
        for (const GateId next : graph_.fanout(id)) {
          if (queued[next]) continue;
          queued[next] = true;
          const std::size_t level = graph_.level(next);
          level_queue[level].push_back(next);
          top_level = std::max(top_level, level);
        }
      };

      if (!(stuck == good[site])) {
        set_bad(site, stuck);
        // A gate's fanout sits on strictly higher levels, so each bucket is
        // complete by the time the sweep reaches it.
        for (std::size_t level = graph_.level(site) + 1; level <= top_level;
             ++level) {
          for (const GateId id : level_queue[level]) {
            queued[id] = false;
            ++evaluations;
            const LvPlane out = graph_.evaluate(id, bad);
            if (!(out == bad[id])) set_bad(id, out);
          }
          level_queue[level].clear();
        }
        top_level = 0;
        for (const GateId id : changed) bad[id] = good[id];
        changed.clear();
      }

      if (hits != 0) {
        result.detected[fi] = true;
        result.first_pattern[fi] =
            base + static_cast<std::size_t>(std::countr_zero(hits));
        ++result.num_detected;
      }
    }
  }
  obs_add(evaluated, evaluations);
  return result;
}

}  // namespace xh
