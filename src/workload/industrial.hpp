// Synthetic industrial X-distributions.
//
// The paper evaluates on three proprietary designs (CKT-A/B/C); only their
// geometry, X-density and the Section 3 correlation structure are published.
// This generator reproduces those published statistics: a configurable share
// of the X budget is placed in *clusters* — groups of scan cells that capture
// X under an identical set of patterns (the inter-correlation the method
// exploits; cf. the 177-cell / 406-pattern cluster of Section 3) — and the
// remainder is scattered uniformly (intractable background X's that end up
// leaking into the X-canceling MISR).
//
// Geometries are reverse-engineered from Table 1 (all three designs have
// chain length 481; see DESIGN.md §2).
#pragma once

#include <cstdint>
#include <string>

#include "obs/trace.hpp"
#include "response/geometry.hpp"
#include "response/x_matrix.hpp"

namespace xh {

struct WorkloadProfile {
  std::string name;
  ScanGeometry geometry;
  std::size_t num_patterns = 3000;
  /// Target fraction of all response bits that are X.
  double x_density = 0.01;
  /// Share of the X budget placed into pattern-aligned cell clusters.
  double clustered_fraction = 0.5;
  /// Cluster shape (means; actual sizes jitter ±50%).
  std::size_t cluster_cells_mean = 100;
  std::size_t cluster_patterns_mean = 350;
  std::uint64_t seed = 1;

  std::uint64_t target_total_x() const {
    return static_cast<std::uint64_t>(
        x_density * static_cast<double>(geometry.num_cells()) *
        static_cast<double>(num_patterns));
  }
};

/// CKT-A: 505,050 cells (1050 × 481), 0.05 % X-density. Low density, strong
/// correlation: the X-canceling baseline is already cheap here.
WorkloadProfile ckt_a_profile();

/// CKT-B: 36,075 cells (75 × 481), 2.75 % X-density — the Section 3 example
/// circuit.
WorkloadProfile ckt_b_profile();

/// CKT-C: 97,643 cells (203 × 481), 2.38 % X-density.
WorkloadProfile ckt_c_profile();

/// Shrinks a profile by ~@p factor in cells and patterns (for fast tests);
/// densities and correlation structure are preserved.
WorkloadProfile scaled_profile(WorkloadProfile profile, double factor);

/// Generates the X-location matrix for a profile, inside a "workload" span
/// of @p trace. Deterministic in the profile (including seed). The realized
/// total X count lands within ~1 % of target_total_x().
///
/// Background X's (the share outside the clusters) land only on the X-prone
/// stripe: the first 4 % of the cells (at least 32), less those the
/// clusters took. Throws std::invalid_argument, naming the largest
/// background density the stripe holds, when the background needs more
/// (cell, pattern) slots than that; and when clustered_fraction > 0 with a
/// zero cluster mean.
XMatrix generate_workload(const WorkloadProfile& profile,
                          Trace* trace = nullptr);

}  // namespace xh
