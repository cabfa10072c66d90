#include "response/x_stats.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>

#include "util/check.hpp"

namespace xh {

double XStatistics::cell_fraction_covering(double x_fraction) const {
  XH_REQUIRE(x_fraction >= 0.0 && x_fraction <= 1.0,
             "x_fraction must be in [0,1]");
  if (total_x == 0 || num_cells == 0) return 0.0;
  const double target = x_fraction * static_cast<double>(total_x);
  double covered = 0.0;
  std::size_t used = 0;
  for (const std::size_t count : sorted_counts_) {
    if (covered >= target) break;
    covered += static_cast<double>(count);
    ++used;
  }
  return static_cast<double>(used) / static_cast<double>(num_cells);
}

XHistogramBucket XStatistics::largest_bucket() const {
  XHistogramBucket best;
  for (const auto& b : histogram) {
    // histogram is sorted by descending x_count, so on a cell-count tie the
    // earlier (larger-x_count) bucket is kept.
    if (b.num_cells > best.num_cells) best = b;
  }
  return best;
}

XStatistics compute_x_statistics(const XMatrix& xm) {
  XStatistics s;
  s.num_cells = xm.num_cells();
  s.num_patterns = xm.num_patterns();
  s.total_x = xm.total_x();
  s.x_capturing_cells = xm.x_cells().size();
  s.x_density = xm.x_density();

  std::map<std::size_t, std::size_t> by_count;
  for (const std::size_t count : xm.row_counts()) {
    ++by_count[count];
    s.sorted_counts_.push_back(count);
  }
  std::sort(s.sorted_counts_.begin(), s.sorted_counts_.end(),
            std::greater<>());
  for (auto it = by_count.rbegin(); it != by_count.rend(); ++it) {
    s.histogram.push_back({it->first, it->second});
  }
  return s;
}

std::vector<XCluster> find_x_clusters(const XMatrix& xm) {
  // Group by pattern-set content. Hash the BitVec words; resolve equal
  // hashes by full comparison via the map's bucket vector.
  struct Group {
    BitVec patterns;
    std::vector<std::size_t> cells;
  };
  std::unordered_map<std::uint64_t, std::vector<Group>> buckets;

  const auto hash_of = [](const BitVec& v) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t w = 0; w < v.word_count(); ++w) {
      h ^= v.word(w);
      h *= 0x100000001b3ULL;
    }
    return h;
  };

  for (const std::size_t cell : xm.x_cells()) {
    const BitVec pats = xm.patterns_of(cell);
    auto& groups = buckets[hash_of(pats)];
    bool placed = false;
    for (auto& g : groups) {
      if (g.patterns == pats) {
        g.cells.push_back(cell);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({pats, {cell}});
  }

  std::vector<XCluster> clusters;
  // Hash order never escapes: the sort below imposes a total order (size,
  // then X count, then first cell — clusters are cell-disjoint, so the
  // first cell is a unique tiebreak). xh-lint: allow(XH-DET-002)
  for (auto& [hash, groups] : buckets) {
    for (auto& g : groups) {
      clusters.push_back({std::move(g.patterns), std::move(g.cells)});
    }
  }
  std::sort(clusters.begin(), clusters.end(),
            [](const XCluster& a, const XCluster& b) {
              if (a.cells.size() != b.cells.size()) {
                return a.cells.size() > b.cells.size();
              }
              if (a.x_count() != b.x_count()) return a.x_count() > b.x_count();
              return a.cells.front() < b.cells.front();
            });
  return clusters;
}

IntraCorrelation analyze_intra_correlation(const XMatrix& xm) {
  // All quantities are computed with pattern-set algebra over the sparse
  // matrix (cells are chain-major, so chain neighbours are cell, cell+1):
  //   * (cell, p) starts a run  ⇔  X(cell,p) ∧ ¬X(cell−1,p)
  //   * (cell, p) is adjacent   ⇔  X(cell,p) ∧ (X(cell−1,p) ∨ X(cell+1,p))
  //   * a run of length ≥ k exists at pos ⇔ ∩_{j<k} patterns(pos+j) ≠ ∅
  // The rows are read in place: a chain's X cells are one run of ascending
  // rows, and a clean cell (or a position off the chain) reads all-zero
  // words.
  IntraCorrelation ic;
  const ScanGeometry& geo = xm.geometry();
  const std::size_t words = xm.words_per_row();
  const std::span<const std::uint64_t> cells = xm.x_cells();
  const std::vector<std::uint64_t> clean(words, 0);
  std::vector<const std::uint64_t*> at(geo.chain_length);
  std::vector<std::uint64_t> window;
  std::size_t x_total = 0;
  std::size_t x_adjacent = 0;
  const auto ones = [](std::uint64_t w) {
    return static_cast<std::size_t>(std::popcount(w));
  };

  std::size_t row = 0;
  for (std::size_t chain = 0; chain < geo.num_chains; ++chain) {
    const std::size_t first = chain * geo.chain_length;
    std::fill(at.begin(), at.end(), clean.data());
    bool alive = false;
    for (; row < cells.size() && cells[row] < first + geo.chain_length;
         ++row) {
      at[cells[row] - first] = xm.row_words(row);
      alive = true;
    }
    if (!alive) continue;

    // total_runs / adjacency via neighbour set algebra.
    for (std::size_t pos = 0; pos < geo.chain_length; ++pos) {
      const std::uint64_t* cur = at[pos];
      const std::uint64_t* prev = pos > 0 ? at[pos - 1] : clean.data();
      const std::uint64_t* next =
          pos + 1 < geo.chain_length ? at[pos + 1] : clean.data();
      for (std::size_t w = 0; w < words; ++w) {
        x_total += ones(cur[w]);
        ic.total_runs += ones(cur[w] & ~prev[w]);
        x_adjacent += ones(cur[w] & (prev[w] | next[w]));
      }
    }

    // longest_run: extend window intersections until they all die out.
    window.resize(geo.chain_length * words);
    for (std::size_t pos = 0; pos < geo.chain_length; ++pos) {
      std::copy_n(at[pos], words, window.data() + pos * words);
    }
    std::size_t k = 1;
    while (alive && k < geo.chain_length) {
      alive = false;
      for (std::size_t pos = 0; pos + k < geo.chain_length; ++pos) {
        std::uint64_t* win = window.data() + pos * words;
        for (std::size_t w = 0; w < words; ++w) {
          win[w] &= at[pos + k][w];
          alive |= win[w] != 0;
        }
      }
      if (alive) ++k;
    }
    ic.longest_run = std::max(ic.longest_run, k);
  }

  if (ic.total_runs > 0) {
    ic.mean_run_length =
        static_cast<double>(x_total) / static_cast<double>(ic.total_runs);
  }
  if (x_total > 0) {
    ic.adjacency_fraction =
        static_cast<double>(x_adjacent) / static_cast<double>(x_total);
  }
  return ic;
}

}  // namespace xh
