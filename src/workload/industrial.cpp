#include "workload/industrial.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace xh {
namespace {

/// Appends @p k indices below @p n to @p out that are not yet marked in
/// @p taken, and marks them (collision-retry; intended for k << n).
void sample_distinct(Rng& rng, std::size_t n, std::size_t k, BitVec& taken,
                     std::vector<std::size_t>& out) {
  XH_REQUIRE(k <= n, "cannot sample more than the population");
  for (std::size_t added = 0; added < k;) {
    const auto v = static_cast<std::size_t>(rng.below(n));
    if (taken.get(v)) continue;
    taken.set(v);
    out.push_back(v);
    ++added;
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

XMatrix generate_workload(const WorkloadProfile& profile, Trace* trace) {
  const ScopedSpan span(trace, "workload");
  XH_REQUIRE(profile.x_density > 0.0 && profile.x_density < 1.0,
             "x_density must be in (0,1)");
  XH_REQUIRE(profile.clustered_fraction >= 0.0 &&
                 profile.clustered_fraction <= 1.0,
             "clustered_fraction must be in [0,1]");
  XH_REQUIRE(profile.clustered_fraction == 0.0 ||
                 (profile.cluster_cells_mean > 0 &&
                  profile.cluster_patterns_mean > 0),
             "clusters need positive cluster_cells_mean and "
             "cluster_patterns_mean when clustered_fraction > 0");
  Rng rng(profile.seed);
  XMatrix::Builder xm(profile.geometry, profile.num_patterns);
  const std::size_t num_cells = profile.geometry.num_cells();
  const std::size_t num_patterns = profile.num_patterns;

  const std::uint64_t target = profile.target_total_x();
  const auto clustered_budget = static_cast<std::uint64_t>(
      profile.clustered_fraction * static_cast<double>(target));

  // --- clustered X's: cells sharing one pattern set per cluster ------------
  // Every cluster is drawn before any row is added, so the builder can be
  // told how many rows are coming.
  struct Cluster {
    std::size_t start;    // first pattern of the window
    std::size_t n_pats;   // window length
    std::size_t n_cells;  // its cells, next in cluster_cells
  };
  std::vector<Cluster> clusters;
  std::vector<std::size_t> cluster_cells;
  BitVec taken(num_cells);  // cells a cluster has: clusters are cell-disjoint
  std::uint64_t placed_in_clusters = 0;
  while (placed_in_clusters < clustered_budget) {
    const std::size_t n_pats =
        std::min(jitter(rng, profile.cluster_patterns_mean), num_patterns);
    std::size_t n_cells = jitter(rng, profile.cluster_cells_mean);
    // Trim the final cluster to the remaining budget.
    const std::uint64_t remaining = clustered_budget - placed_in_clusters;
    n_cells = std::min<std::size_t>(
        n_cells, std::max<std::uint64_t>(1, remaining / n_pats + 1));
    if (cluster_cells.size() + n_cells > num_cells) break;

    // Contiguous pattern window: deterministic patterns exercising one
    // X-source family come from consecutive ATPG targets, so a cluster's
    // pattern set is a (jittered) range rather than a uniform scatter.
    const auto start =
        static_cast<std::size_t>(rng.below(num_patterns - n_pats + 1));
    sample_distinct(rng, num_cells, n_cells, taken, cluster_cells);
    clusters.push_back({start, n_pats, n_cells});
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
      std::min(num_cells, std::max<std::size_t>(num_cells / 25, 32));
  const auto taken_prone = static_cast<std::size_t>(std::count_if(
      cluster_cells.begin(), cluster_cells.end(),
      [prone_cells](std::size_t c) { return c < prone_cells; }));
  const std::size_t free_prone_cells = prone_cells - taken_prone;
  const std::uint64_t background =
      target - std::min(target, placed_in_clusters);
  const std::uint64_t free_slots =
      static_cast<std::uint64_t>(free_prone_cells) * num_patterns;
  if (background > free_slots) {
    const double bits =
        static_cast<double>(num_cells) * static_cast<double>(num_patterns);
    std::ostringstream os;
    os << "profile " << profile.name << " needs a background X density of "
       << static_cast<double>(background) / bits
       << ", but the X-prone stripe outside the clusters holds at most "
       << static_cast<double>(free_slots) / bits
       << "; lower x_density or raise clustered_fraction";
    throw std::invalid_argument(os.str());
  }

  // One row per cluster cell, and at most one per background X, each on a
  // free stripe cell.
  xm.reserve_rows(cluster_cells.size() +
                  static_cast<std::size_t>(std::min<std::uint64_t>(
                      free_prone_cells, background)));
  BitVec pats(num_patterns);
  std::size_t next_cell = 0;
  for (const Cluster& c : clusters) {
    pats.fill(false);
    for (std::size_t k = 0; k < c.n_pats; ++k) pats.set(c.start + k);
    for (std::size_t i = 0; i < c.n_cells; ++i) {
      xm.append_row(cluster_cells[next_cell++], pats);
    }
  }

  std::uint64_t guard = 0;
  const std::uint64_t guard_limit = 12 * target + 1000;
  while (xm.total_x() < target && guard++ < guard_limit) {
    const auto cell = static_cast<std::size_t>(rng.below(prone_cells));
    if (taken.get(cell)) continue;
    const auto pat = static_cast<std::size_t>(rng.below(num_patterns));
    xm.add_x(cell, pat);
  }
  return xm.freeze();
}

}  // namespace xh
