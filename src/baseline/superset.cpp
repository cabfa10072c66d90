#include "baseline/superset.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "misr/accounting.hpp"
#include "util/check.hpp"

namespace xh {

SupersetResult superset_x_canceling(const XMatrix& xm,
                                    const SupersetConfig& cfg) {
  cfg.misr.validate();
  XH_REQUIRE(cfg.max_growth >= 0.0, "max_growth must be non-negative");

  // Compact column space: only X-capturing cells matter, so a cell's
  // column is its row. Transpose to per-pattern X lists of columns.
  std::vector<std::vector<std::uint32_t>> per_pattern(xm.num_patterns());
  for (std::size_t row = 0; row < xm.num_rows(); ++row) {
    const std::uint64_t* words = xm.row_words(row);
    for (std::size_t w = 0; w < xm.words_per_row(); ++w) {
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        per_pattern[64 * w + static_cast<std::size_t>(std::countr_zero(bits))]
            .push_back(static_cast<std::uint32_t>(row));
      }
    }
  }

  SupersetResult result;
  BitVec uni(xm.num_rows());
  SupersetGroup group;
  std::uint64_t member_x_sum = 0;

  const auto close_group = [&] {
    if (group.patterns.empty()) return;
    group.superset_x = uni.count();
    group.lost_observations =
        group.superset_x * group.patterns.size() - member_x_sum;
    result.lost_observations += group.lost_observations;
    result.control_bits += x_canceling_only_bits(cfg.misr, group.superset_x);
    result.groups.push_back(std::move(group));
    group = {};
    uni.fill(false);
    member_x_sum = 0;
  };

  for (std::size_t p = 0; p < xm.num_patterns(); ++p) {
    const auto& cols = per_pattern[p];
    std::size_t growth = 0;
    for (const auto c : cols) {
      if (!uni.get(c)) ++growth;
    }
    const bool fits =
        group.patterns.empty() ||
        static_cast<double>(growth) <=
            cfg.max_growth * static_cast<double>(std::max<std::size_t>(
                                 1, cols.size()));
    if (!fits) close_group();
    for (const auto c : cols) uni.set(c);
    group.patterns.push_back(p);
    member_x_sum += cols.size();
  }
  close_group();
  return result;
}

}  // namespace xh
