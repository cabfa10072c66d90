#include "atpg/test_generation.hpp"

#include <array>
#include <bit>
#include <deque>
#include <map>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace xh {

AtpgResult generate_test_set(const Netlist& nl, const ScanPlan& plan,
                             const AtpgConfig& cfg, Trace* trace) {
  const ScopedSpan span(trace, "atpg");
  const TraceCounterHandle backtracks = obs_counter(trace, "atpg.backtracks");
  const TraceCounterHandle searches = obs_counter(trace, "atpg.searches");
  const TraceCounterHandle rounds = obs_counter(trace, "atpg.rounds");
  const TraceCounterHandle lane_steps = obs_counter(trace, "atpg.lane_steps");
  const TraceCounterHandle discarded = obs_counter(trace, "atpg.discarded");
  AtpgResult result;
  result.faults = collapse_faults(nl, enumerate_faults(nl));
  result.detected.assign(result.faults.size(), false);

  FaultSimulator fsim(nl, plan);
  Rng rng(cfg.seed);

  // --- random phase --------------------------------------------------------
  if (cfg.random_patterns > 0 && cfg.fill_dont_cares) {
    const ScopedSpan random_span(trace, "random");
    std::vector<TestPattern> randoms;
    randoms.reserve(cfg.random_patterns);
    for (std::size_t i = 0; i < cfg.random_patterns; ++i) {
      randoms.push_back(random_pattern(nl, plan, rng));
    }
    const FaultSimResult rs =
        fsim.run(randoms, result.faults, observe_all(), trace);

    if (cfg.compact_random_phase) {
      // Keep only patterns that are some fault's first detector.
      std::vector<bool> keep(randoms.size(), false);
      for (std::size_t fi = 0; fi < result.faults.size(); ++fi) {
        if (rs.detected[fi]) keep[rs.first_pattern[fi]] = true;
      }
      for (std::size_t i = 0; i < randoms.size(); ++i) {
        if (keep[i]) result.patterns.push_back(randoms[i]);
      }
    } else {
      result.patterns = randoms;
    }
    for (std::size_t fi = 0; fi < result.faults.size(); ++fi) {
      if (rs.detected[fi]) {
        result.detected[fi] = true;
        ++result.num_detected;
      }
    }
  }

  // --- deterministic phase -------------------------------------------------
  // Free slots take the next undetected faults; results wait in `finished`
  // until every earlier launched fault has committed.
  constexpr std::size_t kIdle = ~std::size_t{0};
  const std::size_t num_faults = result.faults.size();
  Podem podem(nl, plan);
  std::array<std::size_t, Podem::kSlots> slot_fault;  // the fault per slot
  slot_fault.fill(kIdle);
  std::deque<std::size_t> window;  // launched, uncommitted faults, in order
  std::map<std::size_t, PodemResult> finished;  // by fault
  std::size_t next = 0;
  const auto launch = [&]() {
    for (;;) {
      while (next < num_faults && result.detected[next]) ++next;
      if (next == num_faults || !podem.has_free_slot()) return;
      slot_fault[podem.launch(result.faults[next], cfg.backtrack_limit)] =
          next;
      window.push_back(next++);
    }
  };
  launch();
  while (!window.empty()) {
    if (!finished.contains(window.front())) {
      const ScopedSpan podem_span(trace, "podem");
      do {
        for (std::uint32_t m = podem.round(); m != 0; m &= m - 1) {
          const auto slot = static_cast<std::size_t>(std::countr_zero(m));
          finished.emplace(slot_fault[slot], podem.take(slot));
          slot_fault[slot] = kIdle;
        }
        launch();
      } while (!finished.contains(window.front()));
    }

    const std::size_t fi = window.front();
    window.pop_front();
    auto node = finished.extract(fi);
    PodemResult& search = node.mapped();
    const std::uint64_t fill_seed = rng.next_u64();
    obs_add(searches);
    obs_add(backtracks, search.stats.backtracks);
    if (!search.pattern) {
      if (search.stats.aborted) {
        ++result.num_aborted;
      } else {
        ++result.num_untestable;
      }
      continue;
    }
    if (cfg.fill_dont_cares) fill_unassigned(*search.pattern, plan, fill_seed);
    result.patterns.push_back(*search.pattern);
    // Drop every remaining fault this new pattern detects (random fill may
    // catch more than the targeted fault): one fault-simulation call, so the
    // good machine is simulated once per pattern.
    {
      const ScopedSpan drop_span(trace, "drop");
      std::vector<std::size_t> remaining;
      std::vector<StuckFault> candidates;
      for (std::size_t fj = fi; fj < num_faults; ++fj) {
        if (result.detected[fj]) continue;
        remaining.push_back(fj);
        candidates.push_back(result.faults[fj]);
      }
      const FaultSimResult drop =
          fsim.run({*search.pattern}, candidates, observe_all(), trace);
      for (std::size_t k = 0; k < remaining.size(); ++k) {
        if (drop.detected[k]) {
          result.detected[remaining[k]] = true;
          ++result.num_detected;
        }
      }
    }
    XH_ASSERT(result.detected[fi],
              "PODEM produced a pattern that does not detect its target");
    // Searches on faults this pattern dropped are speculation the
    // sequential loop never runs.
    for (std::size_t slot = 0; slot < Podem::kSlots; ++slot) {
      if (slot_fault[slot] != kIdle && result.detected[slot_fault[slot]]) {
        podem.cancel(slot);
        slot_fault[slot] = kIdle;
        obs_add(discarded);
      }
    }
    const std::size_t dropped_results =
        std::erase_if(finished, [&](const auto& entry) {
          return result.detected[entry.first];
        });
    obs_add(discarded, dropped_results);
    std::erase_if(window, [&](std::size_t f) { return result.detected[f]; });
    launch();
  }
  obs_add(rounds, podem.rounds());
  obs_add(lane_steps, podem.lane_steps());
  return result;
}

}  // namespace xh
