#include "workload/industrial.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace xh {
namespace {

/// Samples @p k distinct indices below @p n into @p out (collision-retry;
/// intended for k << n).
void sample_distinct(Rng& rng, std::size_t n, std::size_t k,
                     std::vector<std::size_t>& out,
                     std::unordered_set<std::size_t>& used) {
  out.clear();
  XH_REQUIRE(k <= n, "cannot sample more than the population");
  while (out.size() < k) {
    const auto v = static_cast<std::size_t>(rng.below(n));
    if (used.insert(v).second) out.push_back(v);
  }
}

std::size_t jitter(Rng& rng, std::size_t mean) {
  // Uniform in [mean/2, 3*mean/2], at least 1.
  const std::size_t lo = std::max<std::size_t>(1, mean / 2);
  const std::size_t hi = mean + mean / 2;
  return lo + static_cast<std::size_t>(rng.below(hi - lo + 1));
}

}  // namespace

WorkloadProfile ckt_a_profile() {
  WorkloadProfile p;
  p.name = "CKT-A";
  p.geometry = {1050, 481};
  p.num_patterns = 3000;
  p.x_density = 0.0005;
  p.clustered_fraction = 0.45;
  p.cluster_cells_mean = 280;
  p.cluster_patterns_mean = 320;
  p.seed = 0xA;
  return p;
}

WorkloadProfile ckt_b_profile() {
  WorkloadProfile p;
  p.name = "CKT-B";
  p.geometry = {75, 481};
  p.num_patterns = 3000;
  p.x_density = 0.0275;
  p.clustered_fraction = 0.55;
  p.cluster_cells_mean = 160;
  p.cluster_patterns_mean = 650;
  p.seed = 0xB;
  return p;
}

WorkloadProfile ckt_c_profile() {
  WorkloadProfile p;
  p.name = "CKT-C";
  p.geometry = {203, 481};
  p.num_patterns = 3000;
  p.x_density = 0.0238;
  p.clustered_fraction = 0.38;
  p.cluster_cells_mean = 180;
  p.cluster_patterns_mean = 420;
  p.seed = 0xC;
  return p;
}

WorkloadProfile scaled_profile(WorkloadProfile profile, double factor) {
  XH_REQUIRE(factor > 0.0 && factor <= 1.0, "factor must be in (0,1]");
  profile.name += "-scaled";
  profile.geometry.num_chains = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             static_cast<double>(profile.geometry.num_chains) * factor));
  profile.geometry.chain_length = std::max<std::size_t>(
      4, static_cast<std::size_t>(
             static_cast<double>(profile.geometry.chain_length) * factor));
  profile.num_patterns = std::max<std::size_t>(
      8, static_cast<std::size_t>(
             static_cast<double>(profile.num_patterns) * factor));
  profile.cluster_cells_mean = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             static_cast<double>(profile.cluster_cells_mean) * factor));
  profile.cluster_patterns_mean = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             static_cast<double>(profile.cluster_patterns_mean) * factor));
  return profile;
}

XMatrix generate_workload(const WorkloadProfile& profile) {
  XH_REQUIRE(profile.x_density > 0.0 && profile.x_density < 1.0,
             "x_density must be in (0,1)");
  XH_REQUIRE(profile.clustered_fraction >= 0.0 &&
                 profile.clustered_fraction <= 1.0,
             "clustered_fraction must be in [0,1]");
  Rng rng(profile.seed);
  XMatrix::Builder xm(profile.geometry, profile.num_patterns);

  const std::uint64_t target = profile.target_total_x();
  const auto clustered_budget = static_cast<std::uint64_t>(
      profile.clustered_fraction * static_cast<double>(target));

  // --- clustered X's: cells sharing one pattern set per cluster ------------
  std::unordered_set<std::size_t> used_cells;  // keep clusters cell-disjoint
  std::vector<std::size_t> cells;
  BitVec pats(profile.num_patterns);
  std::uint64_t placed_in_clusters = 0;
  while (placed_in_clusters < clustered_budget) {
    const std::size_t n_pats = std::min(
        jitter(rng, profile.cluster_patterns_mean), profile.num_patterns);
    std::size_t n_cells = jitter(rng, profile.cluster_cells_mean);
    // Trim the final cluster to the remaining budget.
    const std::uint64_t remaining = clustered_budget - placed_in_clusters;
    n_cells = std::min<std::size_t>(
        n_cells, std::max<std::uint64_t>(1, remaining / n_pats + 1));
    if (used_cells.size() + n_cells > profile.geometry.num_cells()) break;

    // Contiguous pattern window: deterministic patterns exercising one
    // X-source family come from consecutive ATPG targets, so a cluster's
    // pattern set is a (jittered) range rather than a uniform scatter.
    pats.fill(false);
    const std::size_t start = static_cast<std::size_t>(
        rng.below(profile.num_patterns - n_pats + 1));
    for (std::size_t k = 0; k < n_pats; ++k) pats.set(start + k);
    sample_distinct(rng, profile.geometry.num_cells(), n_cells, cells,
                    used_cells);
    for (const std::size_t cell : cells) xm.add_row(cell, pats);
    placed_in_clusters +=
        static_cast<std::uint64_t>(n_cells) * static_cast<std::uint64_t>(n_pats);
  }

  // --- background X's: scattered, weakly correlated -----------------------
  // Concentrate the scatter on a subset of "X-prone" cells so the Section 3
  // statistic (90 % of X's in a few % of cells) holds even off-cluster.
  // Background X's land on a small "X-prone" stripe of cells — silicon
  // X-sources (uninitialized memories, floating buses) are tied to specific
  // cells, which is why the paper sees only ~11 % of cells capture X at all
  // and 90 % of X's inside ~5 % of the cells. Cluster cells are excluded, so
  // cluster members keep bit-identical pattern sets (the 177-cells-with-
  // exactly-406-X's effect).
  const std::size_t prone_cells =
      std::min(profile.geometry.num_cells(),
               std::max<std::size_t>(profile.geometry.num_cells() / 25, 32));
  std::uint64_t guard = 0;
  const std::uint64_t guard_limit = 12 * target + 1000;
  while (xm.total_x() < target && guard++ < guard_limit) {
    const auto cell = static_cast<std::size_t>(rng.below(prone_cells));
    if (used_cells.count(cell) != 0) continue;
    const auto pat =
        static_cast<std::size_t>(rng.below(profile.num_patterns));
    xm.add_x(cell, pat);
  }
  return xm.freeze();
}

}  // namespace xh
