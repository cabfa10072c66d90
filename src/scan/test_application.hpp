// Test application: drive patterns through the scan architecture and capture
// responses.
//
// Test protocol per pattern (standard stuck-at scan test):
//   1. shift the pattern's scan data into the scanned flops,
//   2. apply the primary-input vector,
//   3. let the combinational cloud settle,
//   4. capture every scanned flop's D input.
// Unscanned flops hold UNKNOWN state during capture (they are never
// initialized by the tester) — together with tri-state buses these are the
// X-sources whose captures pollute the response.
#pragma once

#include <vector>

#include "netlist/netlist.hpp"
#include "obs/trace.hpp"
#include "response/response_matrix.hpp"
#include "scan/scan_plan.hpp"
#include "sim/logic.hpp"
#include "sim/parallel_sim.hpp"
#include "util/rng.hpp"

namespace xh {

/// One deterministic test: primary-input values (order of netlist.inputs())
/// and scan-in values (indexed by scan CELL index; padding cells ignored).
struct TestPattern {
  std::vector<Lv> pi;
  std::vector<Lv> scan_in;
};

/// Fully random pattern over a plan's inputs (fault-independent fill).
TestPattern random_pattern(const Netlist& nl, const ScanPlan& plan, Rng& rng);

/// Loads patterns [base, base + 64) (fewer at the end of the set) into the
/// lanes of @p sim: primary inputs, scanned flops' scan-in values, and X in
/// every unscanned flop. Returns the number of lanes loaded; the lanes past
/// it hold 0 in every input and scanned flop.
std::size_t load_patterns(ParallelSim& sim, const ScanPlan& plan,
                          const std::vector<TestPattern>& patterns,
                          std::size_t base);

/// Captures responses for a pattern set, 64 patterns per simulation sweep.
/// Padding cells capture deterministic 0.
class TestApplicator {
 public:
  TestApplicator(const Netlist& nl, const ScanPlan& plan);

  /// The optional @p trace times the call as a `capture` span.
  ResponseMatrix capture(const std::vector<TestPattern>& patterns,
                         Trace* trace = nullptr) const;

 private:
  const Netlist* nl_;
  const ScanPlan* plan_;
};

}  // namespace xh
