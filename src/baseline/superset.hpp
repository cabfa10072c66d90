// Superset X-canceling baseline (after Chung & Touba [18] / Yang & Touba
// [17]).
//
// Instead of per-pattern canceling control data, patterns are greedily
// grouped; each group shares one control-bit schedule computed for the
// UNION ("superset") of the group's X locations. Reuse shrinks control data,
// but every location in the superset is treated as X for every member
// pattern, so deterministic bits at those locations lose observability —
// which is exactly the drawback the paper's method avoids (and why [17,18]
// need iterative fault simulation).
//
// This is a faithful cost-model implementation of the published idea used as
// an ablation comparator; the original papers' fault-simulation-guided
// refinement loop is out of scope and noted in DESIGN.md.
#pragma once

#include <cstdint>
#include <vector>

#include "misr/x_cancel.hpp"
#include "response/x_matrix.hpp"

namespace xh {

struct SupersetConfig {
  MisrConfig misr;
  /// A pattern joins a group only while the union grows by at most this
  /// factor of the pattern's own X count (controls merge aggressiveness).
  double max_growth = 0.5;
};

struct SupersetGroup {
  std::vector<std::size_t> patterns;
  std::uint64_t superset_x = 0;        // |union of X locations|
  std::uint64_t lost_observations = 0; // non-X bits treated as X
};

struct [[nodiscard]] SupersetResult {
  std::vector<SupersetGroup> groups;
  /// One canceling schedule per group: m·q·|superset|/(m−q) bits.
  double control_bits = 0.0;
  std::uint64_t lost_observations = 0;
};

/// Greedy superset grouping over per-pattern X sets.
SupersetResult superset_x_canceling(const XMatrix& xm,
                                    const SupersetConfig& cfg);

}  // namespace xh
