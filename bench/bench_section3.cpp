// Regenerates the Section 3 X-value correlation analysis on the CKT-B-class
// workload (the paper's example circuit: 36,075 scan cells, 3000 patterns).
//
// Published reference points:
//   * only 3,903 of 36,075 cells capture X's; 90 % of X's sit in 4.9 % of
//     the cells,
//   * 177 cells capture exactly 406 X's, 172 of them under the SAME 406
//     patterns (a giant identical-pattern-set cluster).
// The synthetic workload will not hit those numbers digit-for-digit, but the
// same analysis must exhibit the same structure: heavy concentration and
// large identical-pattern-set clusters.
#include <cstdio>

#include "printer_args.hpp"
#include "response/x_stats.hpp"
#include "util/table.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

void print_section3() {
  const XMatrix xm = generate_workload(ckt_b_profile());
  const XStatistics stats = compute_x_statistics(xm);

  std::printf("== Section 3: X-value correlation analysis (CKT-B class) ==\n");
  std::printf("scan cells:            %zu\n", stats.num_cells);
  std::printf("patterns:              %zu\n", stats.num_patterns);
  std::printf("total X's:             %zu (density %.2f%%)\n", stats.total_x,
              stats.x_density * 100.0);
  std::printf("X-capturing cells:     %zu (%.1f%% of cells; paper: 3903)\n",
              stats.x_capturing_cells,
              100.0 * static_cast<double>(stats.x_capturing_cells) /
                  static_cast<double>(stats.num_cells));
  std::printf(
      "90%% of X's captured by: %.1f%% of all cells (paper: 4.9%%)\n",
      100.0 * stats.cell_fraction_covering(0.9));
  std::printf("50%% of X's captured by: %.1f%% of all cells\n",
              100.0 * stats.cell_fraction_covering(0.5));

  const XHistogramBucket bucket = stats.largest_bucket();
  std::printf(
      "\nlargest same-X-count group: %zu cells with exactly %zu X's "
      "(paper: 177 cells with 406 X's)\n",
      bucket.num_cells, bucket.x_count);

  const auto clusters = find_x_clusters(xm);
  TextTable t({"cluster", "cells", "X's per cell", "total X's"});
  for (std::size_t i = 0; i < std::min<std::size_t>(8, clusters.size()); ++i) {
    t.add_row({std::to_string(i + 1),
               std::to_string(clusters[i].cells.size()),
               std::to_string(clusters[i].x_count()),
               std::to_string(clusters[i].total_x())});
  }
  std::printf(
      "\nlargest identical-pattern-set clusters (paper: 172 cells sharing "
      "the same 406 patterns):\n%s\n",
      t.render().c_str());
}

}  // namespace
}  // namespace xh

int main(int argc, char** argv) {
  xh::parse_no_arguments(argc, argv);
  xh::print_section3();
  return 0;
}
