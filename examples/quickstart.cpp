// Quickstart: the five-minute tour of the xhybrid public API.
//
// 1. Describe your scan geometry and record which (cell, pattern) captures
//    are X (from your own fault-free simulation, or a generator).
// 2. Run the pattern-partitioned hybrid analysis.
// 3. Read the report: partitions, masks, and control-bit / test-time
//    comparisons against X-masking-only [5] and X-canceling-only [12].
#include <cstdio>

#include "core/hybrid.hpp"

int main() {
  using namespace xh;

  // A tiny design: 4 scan chains x 8 cells, 12 test patterns.
  const ScanGeometry geometry{4, 8};
  XMatrix::Builder builder(geometry, 12);

  // Three "hot" cells capture X under the same six patterns (strong
  // inter-correlation — e.g. downstream of one uninitialized RAM)...
  for (const std::size_t cell : {3u, 11u, 19u}) {
    for (const std::size_t pattern : {0u, 1u, 2u, 3u, 4u, 5u}) {
      builder.add_x(cell, pattern);
    }
  }
  // ...plus a few uncorrelated stragglers.
  builder.add_x(7, 9);
  builder.add_x(22, 10);
  builder.add_x(30, 2);
  const XMatrix xs = builder.freeze();

  PipelineContext ctx;
  ctx.partitioner.misr = {16, 4};  // 16-bit MISR, 4 X-free combos/stop

  const HybridReport report = run_hybrid_analysis(xs, ctx);

  std::printf("workload: %zu cells x %zu patterns, %llu X's (%.2f%%)\n",
              geometry.num_cells(), report.num_patterns,
              static_cast<unsigned long long>(report.total_x),
              100.0 * report.x_density);
  std::printf("partitions found: %zu\n",
              report.partitioning.num_partitions());
  for (std::size_t i = 0; i < report.partitioning.partitions.size(); ++i) {
    std::printf("  partition %zu: patterns %s  mask %s (%zu cells)\n", i,
                report.partitioning.partitions[i].to_string().c_str(),
                report.partitioning.masks[i].to_string().c_str(),
                report.partitioning.masks[i].count());
  }
  std::printf("X's masked: %llu, leaked to X-canceling MISR: %llu\n",
              static_cast<unsigned long long>(report.partitioning.masked_x),
              static_cast<unsigned long long>(report.partitioning.leaked_x));
  std::printf("\ncontrol bits:\n");
  std::printf("  X-masking only [5]:      %llu\n",
              static_cast<unsigned long long>(report.masking_only_bits));
  std::printf("  X-canceling only [12]:   %.1f\n", report.canceling_only_bits);
  std::printf("  proposed hybrid:         %.1f  (%.2fx better than [12])\n",
              report.proposed_bits, report.improvement_over_canceling);
  std::printf("normalized test time: %.3f -> %.3f (%.2fx)\n",
              report.test_time_canceling_only, report.test_time_proposed,
              report.test_time_improvement);
  return 0;
}
