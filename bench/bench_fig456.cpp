// Regenerates the Section 4 worked example end to end: the Figure 4
// X-value correlation analysis, the Figure 5 partitioning rounds, the
// Figure 6 per-partition control bits, and both cost-function walk-throughs
// (m=10,q=2 continues to 3 partitions; m=10,q=1 stops at 2).
#include <cstdio>

#include "core/paper_example.hpp"
#include "core/partitioner.hpp"
#include "misr/accounting.hpp"
#include "printer_args.hpp"
#include "response/x_stats.hpp"
#include "util/table.hpp"

namespace xh {
namespace {

std::string pattern_list(const BitVec& patterns) {
  std::string out = "{";
  bool first = true;
  for (const std::size_t p : patterns.set_bits()) {
    out += (first ? "P" : ",P") + std::to_string(p + 1);
    first = false;
  }
  return out + "}";
}

void print_fig4() {
  const XMatrix xm = paper_example_x_matrix();
  const XStatistics stats = compute_x_statistics(xm);
  std::printf("== Figure 4: X-value correlation analysis ================\n");
  std::printf("8 patterns, 5 chains x 3 cells, %zu X's total (paper: 28)\n",
              stats.total_x);
  TextTable t({"scan cell", "X count", "patterns with X"});
  for (const std::size_t cell : xm.x_cells()) {
    t.add_row({"SC" + std::to_string(cell / 3 + 1) + " cell " +
                   std::to_string(cell % 3 + 1),
               std::to_string(xm.x_count(cell)),
               pattern_list(xm.patterns_of(cell))});
  }
  std::printf("%s", t.render().c_str());
  const XHistogramBucket b = stats.largest_bucket();
  std::printf(
      "largest same-count group: %zu cells with %zu X's each "
      "(paper: 3 cells with 4 X's)\n\n",
      b.num_cells, b.x_count);
}

void print_fig5_fig6(const MisrConfig& misr) {
  PartitionerConfig cfg;
  cfg.misr = misr;
  const XMatrix xm = paper_example_x_matrix();
  const PartitionResult r = partition_patterns(xm, cfg);

  std::printf("== Figure 5 trace (m=%zu, q=%zu) =========================\n",
              misr.size, misr.q);
  for (const auto& h : r.history) {
    if (h.round == 0) {
      std::printf("round 0: no split, %zu partition(s), total bits %.1f\n",
                  h.num_partitions, h.total_bits);
    } else {
      std::printf(
          "round %zu: split on cell %zu -> %zu partitions, masked %llu, "
          "leaked %llu, total bits %.1f (%s)\n",
          h.round, h.split_cell, h.num_partitions,
          static_cast<unsigned long long>(h.masked_x),
          static_cast<unsigned long long>(h.leaked_x), h.total_bits,
          h.accepted ? "accepted" : "REJECTED, stop");
    }
  }

  std::printf("\n== Figure 6: per-partition masks =========================\n");
  for (std::size_t i = 0; i < r.partitions.size(); ++i) {
    std::printf("partition %s masks %zu cell(s): mask = %s\n",
                pattern_list(r.partitions[i]).c_str(), r.masks[i].count(),
                r.masks[i].to_string().c_str());
  }
  std::printf(
      "masking bits: %zu per partition x %zu partitions = %.0f "
      "(conventional X-masking: %llu)\n",
      xm.num_cells(), r.num_partitions(), r.masking_bits,
      static_cast<unsigned long long>(
          x_masking_only_bits(xm.geometry(), xm.num_patterns())));
  std::printf("masked %llu X's, leaked %llu (paper, q=2: 23 and 5)\n",
              static_cast<unsigned long long>(r.masked_x),
              static_cast<unsigned long long>(r.leaked_x));
  std::printf("total control bits: %.1f -> %llu rounded\n\n", r.total_bits,
              static_cast<unsigned long long>(round_bits(r.total_bits)));
}

}  // namespace
}  // namespace xh

int main(int argc, char** argv) {
  xh::parse_no_arguments(argc, argv);
  xh::print_fig4();
  xh::print_fig5_fig6({10, 2});
  xh::print_fig5_fig6({10, 1});
  return 0;
}
