// The lockstep PODEM engine against the scalar reference it replaced
// (podem_reference.hpp), on a generated family: 40 to 612 gates, 0-3 buses,
// 0-20% unscanned flops, 1-7 chains, both fill modes and backtrack limits
// 0, 1, 7 and 2000. Every collapsed fault's search must end the same way
// with the same decisions, backtracks and pattern bytes, and
// generate_test_set() must equal the sequential driver over the reference.
// The sanitizer builds run the members of at most 150 gates.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "atpg/podem.hpp"
#include "atpg/test_generation.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "obs/trace.hpp"
#include "podem_reference.hpp"

namespace xh {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr std::size_t kMaxGates = 150;
#else
constexpr std::size_t kMaxGates = 612;
#endif

constexpr std::size_t kCases = 24;

struct Case {
  GeneratorConfig gen;
  std::size_t chains = 1;
  std::size_t backtrack_limit = 0;
  bool fill_dont_cares = true;
  std::size_t random_patterns = 0;
};

/// Member @p k of the family.
Case family_case(std::size_t k) {
  constexpr std::size_t kLimits[] = {0, 1, 7, 2000};
  constexpr std::size_t kRandomPatterns[] = {0, 8, 32};
  Case c;
  c.gen.seed = 800 + k;
  c.gen.num_gates = 40 + k * 572 / (kCases - 1);
  c.gen.num_dffs = 4 + (k * 7) % 29;
  c.gen.num_buses = k % 4;
  c.gen.nonscan_fraction = 0.05 * static_cast<double>(k % 5);
  c.chains = 1 + k % 7;
  c.backtrack_limit = kLimits[(k + k / 4) % 4];
  c.fill_dont_cares = (k / 2) % 2 == 0;
  c.random_patterns = kRandomPatterns[k % 3];
  return c;
}

std::string describe(std::size_t k, const Case& c) {
  return "case " + std::to_string(k) + " (" +
         std::to_string(c.gen.num_gates) + " gates, limit " +
         std::to_string(c.backtrack_limit) +
         (c.fill_dont_cares ? ", filled" : ", don't-cares kept") + ")";
}

/// Every fault of @p faults through one engine, kSlots at a time in
/// lockstep; results in fault order.
std::vector<PodemResult> lockstep_all(Podem& podem,
                                      const std::vector<StuckFault>& faults,
                                      std::size_t backtrack_limit) {
  std::vector<PodemResult> results(faults.size());
  std::vector<std::size_t> slot_fault(Podem::kSlots);
  std::size_t next = 0;
  std::size_t done = 0;
  while (done < faults.size()) {
    while (next < faults.size() && podem.has_free_slot()) {
      slot_fault[podem.launch(faults[next], backtrack_limit)] = next;
      ++next;
    }
    for (std::uint32_t m = podem.round(); m != 0; m &= m - 1) {
      const auto slot = static_cast<std::size_t>(std::countr_zero(m));
      results[slot_fault[slot]] = podem.take(slot);
      ++done;
    }
  }
  return results;
}

bool same_pattern(const TestPattern& a, const TestPattern& b) {
  return a.pi == b.pi && a.scan_in == b.scan_in;
}

TEST(PodemEquivalence, EverySearchMatchesTheReference) {
  std::size_t compared = 0;
  std::size_t found = 0;
  std::size_t aborted = 0;
  std::size_t untestable = 0;
  for (std::size_t k = 0; k < kCases; ++k) {
    const Case c = family_case(k);
    if (c.gen.num_gates > kMaxGates) continue;
    const Netlist nl = generate_circuit(c.gen);
    const ScanPlan plan = ScanPlan::build(nl, c.chains);
    const std::vector<StuckFault> faults =
        collapse_faults(nl, enumerate_faults(nl));
    Podem podem(nl, plan);
    const std::vector<PodemResult> got =
        lockstep_all(podem, faults, c.backtrack_limit);
    ReferencePodem reference(nl, plan);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      const std::uint64_t fill_seed = 1000 * k + fi;
      const std::optional<TestPattern> want = reference.generate(
          faults[fi], c.backtrack_limit, fill_seed, c.fill_dont_cares);
      const PodemStats& ws = reference.stats();
      const PodemResult& g = got[fi];
      std::optional<TestPattern> pattern = g.pattern;
      if (pattern && c.fill_dont_cares) {
        fill_unassigned(*pattern, plan, fill_seed);
      }
      const bool same = g.stats.decisions == ws.decisions &&
                        g.stats.backtracks == ws.backtracks &&
                        g.stats.aborted == ws.aborted &&
                        pattern.has_value() == want.has_value() &&
                        (!want || same_pattern(*pattern, *want));
      ASSERT_TRUE(same) << describe(k, c) << ": fault "
                        << fault_name(nl, faults[fi])
                        << " differs from the reference (decisions "
                        << g.stats.decisions << " vs " << ws.decisions
                        << ", backtracks " << g.stats.backtracks << " vs "
                        << ws.backtracks << ")";
      ++compared;
      if (want) {
        ++found;
      } else if (ws.aborted) {
        ++aborted;
      } else {
        ++untestable;
      }
    }
  }
  EXPECT_GT(compared, 0u);
  EXPECT_GT(found, 0u);
  EXPECT_GT(aborted, 0u);
  EXPECT_GT(untestable, 0u);
}

bool same_result(const AtpgResult& a, const AtpgResult& b) {
  if (a.patterns.size() != b.patterns.size()) return false;
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    if (!same_pattern(a.patterns[i], b.patterns[i])) return false;
  }
  return a.detected == b.detected && a.num_detected == b.num_detected &&
         a.num_untestable == b.num_untestable &&
         a.num_aborted == b.num_aborted;
}

/// What the compared runs searched.
struct Totals {
  std::size_t searches = 0;    // by the reference driver
  std::uint64_t discarded = 0;  // atpg.discarded of the traced runs
};

/// Runs generate_test_set() traced and the sequential reference driver on
/// one circuit; false (with a failure naming @p where) on any difference.
bool test_set_matches(const Netlist& nl, const ScanPlan& plan,
                      const AtpgConfig& cfg, const std::string& where,
                      Totals& totals) {
  std::vector<PodemStats> stats;
  const AtpgResult want = reference_test_set(nl, plan, cfg, &stats);
  Trace trace;
  const AtpgResult got = generate_test_set(nl, plan, cfg, &trace);
  if (!same_result(got, want)) {
    ADD_FAILURE() << where << ": generate_test_set differs from the "
                  << "sequential reference driver";
    return false;
  }
#ifndef XH_OBS_NOOP
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    const auto it = trace.counters().find(name);
    return it == trace.counters().end() ? 0 : it->second.value;
  };
  std::uint64_t want_backtracks = 0;
  for (const PodemStats& s : stats) want_backtracks += s.backtracks;
  if (counter("atpg.searches") != stats.size() ||
      counter("atpg.backtracks") != want_backtracks) {
    ADD_FAILURE() << where << ": " << counter("atpg.searches")
                  << " searches and " << counter("atpg.backtracks")
                  << " backtracks committed, the reference ran "
                  << stats.size() << " and " << want_backtracks;
    return false;
  }
  totals.discarded += counter("atpg.discarded");
#endif
  totals.searches += stats.size();
  return true;
}

TEST(PodemEquivalence, TestSetMatchesTheSequentialDriver) {
  Totals totals;
  for (std::size_t k = 0; k < kCases; ++k) {
    const Case c = family_case(k);
    if (c.gen.num_gates > kMaxGates) continue;
    const Netlist nl = generate_circuit(c.gen);
    const ScanPlan plan = ScanPlan::build(nl, c.chains);
    AtpgConfig cfg;
    cfg.random_patterns = c.random_patterns;
    cfg.backtrack_limit = c.backtrack_limit;
    cfg.fill_dont_cares = c.fill_dont_cares;
    cfg.seed = 50 + k;
    ASSERT_TRUE(test_set_matches(nl, plan, cfg, describe(k, c), totals));
  }
#ifndef XH_OBS_NOOP
  EXPECT_GT(totals.discarded, 0u) << "no speculative search was dropped";
#endif
}

/// A 4-bit ripple-carry adder captured in scan flops, with an 8-input AND
/// that random patterns rarely excite and a redundant AND(a0, NOT(a0)).
std::string adder_bench() {
  std::string s;
  for (int i = 0; i < 4; ++i) {
    s += "INPUT(a" + std::to_string(i) + ")\nINPUT(b" + std::to_string(i) +
         ")\n";
  }
  s += "INPUT(c0)\nOUTPUT(c4)\n";
  for (int i = 0; i < 4; ++i) {
    const std::string n = std::to_string(i);
    const std::string carry_out = "c" + std::to_string(i + 1);
    s += "x" + n + " = XOR(a" + n + ", b" + n + ")\n";
    s += "s" + n + " = XOR(x" + n + ", c" + n + ")\n";
    s += "t" + n + " = AND(a" + n + ", b" + n + ")\n";
    s += "u" + n + " = AND(x" + n + ", c" + n + ")\n";
    s += carry_out + " = OR(t" + n + ", u" + n + ")\n";
    s += "q" + n + " = DFF(s" + n + ")\n";
  }
  s += "na0 = NOT(a0)\nr = AND(a0, na0)\n"
       "all = AND(a0, a1, a2, a3, b0, b1, b2, b3)\n"
       "y = OR(all, r, c4)\nq4 = DFF(y)\n";
  return s;
}

TEST(PodemEquivalence, FewerFaultsThanSlots) {
  // Fewer faults than slots, and a random phase that leaves only a few of
  // more faults than slots to the searches.
  const Netlist nl = read_bench_string(adder_bench());
  const ScanPlan plan = ScanPlan::build(nl, 2);
  ASSERT_GT(collapse_faults(nl, enumerate_faults(nl)).size(), Podem::kSlots);
  for (const std::size_t random_patterns : {std::size_t{0}, std::size_t{64}}) {
    for (const bool fill : {true, false}) {
      Totals totals;
      AtpgConfig cfg;
      cfg.random_patterns = random_patterns;
      cfg.fill_dont_cares = fill;
      ASSERT_TRUE(test_set_matches(
          nl, plan, cfg,
          std::to_string(random_patterns) + " random patterns", totals));
      EXPECT_GT(totals.searches, 0u);
      if (random_patterns > 0 && fill) {
        EXPECT_LT(totals.searches, Podem::kSlots);
      }
    }
  }
  const Netlist tiny = read_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(q)\ng = AND(a, b)\nq = DFF(g)\n");
  ASSERT_LT(collapse_faults(tiny, enumerate_faults(tiny)).size(),
            Podem::kSlots);
  Totals totals;
  AtpgConfig cfg;
  cfg.random_patterns = 0;
  ASSERT_TRUE(test_set_matches(tiny, ScanPlan::build(tiny, 1), cfg,
                               "one AND gate", totals));
  EXPECT_GT(totals.searches, 0u);
}

TEST(PodemEquivalence, DroppedWhileInFlight) {
  // No random phase: every fault goes to the searches, and each found
  // pattern drops faults whose searches are already running or finished.
  Totals totals;
  GeneratorConfig gen;
  gen.seed = 2016;
  gen.num_inputs = 16;
  gen.num_outputs = 16;
  gen.num_gates = 100;
  gen.num_dffs = 24;
  gen.nonscan_fraction = 0.15;
  gen.num_buses = 3;
  const Netlist nl = generate_circuit(gen);
  const ScanPlan plan = ScanPlan::build(nl, 4);
  for (const std::size_t limit : {std::size_t{7}, std::size_t{2000}}) {
    AtpgConfig cfg;
    cfg.random_patterns = 0;
    cfg.backtrack_limit = limit;
    ASSERT_TRUE(test_set_matches(nl, plan, cfg,
                                 "limit " + std::to_string(limit), totals));
  }
#ifndef XH_OBS_NOOP
  EXPECT_GT(totals.discarded, 0u);
#endif
}

}  // namespace
}  // namespace xh
