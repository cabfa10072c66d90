// Ablation B — MISR configuration sweep. Section 4 shows the optimal number
// of partitions depends on (m, q): a cheaper canceling stage (small q/(m−q))
// tolerates more leaked X's, so partitioning stops earlier. This bench sweeps
// (m, q) on one workload and reports where the cost function stops and what
// it saves versus X-canceling-only at the same configuration.
#include <cstdio>

#include "core/hybrid.hpp"
#include "misr/accounting.hpp"
#include "printer_args.hpp"
#include "util/table.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

void print_sweep() {
  const WorkloadProfile profile = scaled_profile(ckt_b_profile(), 0.4);
  const XMatrix xm = generate_workload(profile);

  std::printf("== Ablation B: MISR (m, q) sweep on %s ==\n",
              profile.name.c_str());
  TextTable t({"m", "q", "bits/X (mq/(m-q))", "#partitions", "masked X",
               "cancel-only bits", "proposed bits", "impv."});
  for (const std::size_t m : {std::size_t{16}, std::size_t{32}, std::size_t{64}}) {
    for (const std::size_t q : {std::size_t{1}, m / 8, m / 4, m / 2}) {
      if (q < 1 || q >= m) continue;
      PipelineContext ctx;
      ctx.partitioner.misr = {m, q};
      const HybridReport rep = run_hybrid_analysis(xm, ctx);
      t.add_row({std::to_string(m), std::to_string(q),
                 TextTable::num(static_cast<double>(m * q) /
                                    static_cast<double>(m - q),
                                2),
                 std::to_string(rep.partitioning.num_partitions()),
                 std::to_string(rep.partitioning.masked_x),
                 TextTable::millions(rep.canceling_only_bits),
                 TextTable::millions(rep.proposed_bits),
                 TextTable::num(rep.improvement_over_canceling, 2)});
    }
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "Expected shape: larger q/(m-q) makes each leaked X dearer, so the\n"
      "cost function buys more partitions and the improvement factor grows —\n"
      "the Section 4 (q=2 continues / q=1 stops) effect at scale.\n\n");
}

}  // namespace
}  // namespace xh

int main(int argc, char** argv) {
  xh::parse_no_arguments(argc, argv);
  xh::print_sweep();
  return 0;
}
