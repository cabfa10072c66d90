#include "atpg/test_generation.hpp"

#include "util/check.hpp"
#include "util/rng.hpp"

namespace xh {

AtpgResult generate_test_set(const Netlist& nl, const ScanPlan& plan,
                             const AtpgConfig& cfg) {
  AtpgResult result;
  result.faults = collapse_faults(nl, enumerate_faults(nl));
  result.detected.assign(result.faults.size(), false);

  FaultSimulator fsim(nl, plan);
  Rng rng(cfg.seed);

  // --- random phase --------------------------------------------------------
  if (cfg.random_patterns > 0 && cfg.fill_dont_cares) {
    std::vector<TestPattern> randoms;
    randoms.reserve(cfg.random_patterns);
    for (std::size_t i = 0; i < cfg.random_patterns; ++i) {
      randoms.push_back(random_pattern(nl, plan, rng));
    }
    const FaultSimResult rs = fsim.run(randoms, result.faults);

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
  Podem podem(nl, plan);
  for (std::size_t fi = 0; fi < result.faults.size(); ++fi) {
    if (result.detected[fi]) continue;
    const auto pattern =
        podem.generate(result.faults[fi], cfg.backtrack_limit,
                       rng.next_u64(), cfg.fill_dont_cares);
    if (!pattern) {
      if (podem.stats().aborted) {
        ++result.num_aborted;
      } else {
        ++result.num_untestable;
      }
      continue;
    }
    result.patterns.push_back(*pattern);
    // Drop every remaining fault this new pattern detects (random fill may
    // catch more than the targeted fault): one fault-simulation call, so the
    // good machine is captured once per pattern.
    std::vector<std::size_t> remaining;
    std::vector<StuckFault> candidates;
    for (std::size_t fj = fi; fj < result.faults.size(); ++fj) {
      if (result.detected[fj]) continue;
      remaining.push_back(fj);
      candidates.push_back(result.faults[fj]);
    }
    const FaultSimResult drop = fsim.run({*pattern}, candidates);
    for (std::size_t k = 0; k < remaining.size(); ++k) {
      if (drop.detected[k]) {
        result.detected[remaining[k]] = true;
        ++result.num_detected;
      }
    }
    XH_ASSERT(result.detected[fi],
              "PODEM produced a pattern that does not detect its target");
  }
  return result;
}

}  // namespace xh
