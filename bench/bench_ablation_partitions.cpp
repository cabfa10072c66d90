// Ablation A — the paper's central trade-off, swept explicitly: more
// partitions cost masking control bits (L·C each) but remove X's from the
// X-canceling MISR. This bench forces the partitioner to exactly k rounds for
// k = 0..N and prints the masking/canceling/total curve, marking where the
// paper's cost function would stop. The total must be U-shaped (or
// monotone-then-flat) with the cost-function stop at/near the minimum.
#include <cstdio>

#include "core/partitioner.hpp"
#include "printer_args.hpp"
#include "util/table.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

const MisrConfig kMisr{32, 7};

void print_sweep() {
  const WorkloadProfile profile = scaled_profile(ckt_b_profile(), 0.4);
  const XMatrix xm = generate_workload(profile);

  // Reference: where does the cost function stop on its own?
  PartitionerConfig auto_cfg;
  auto_cfg.misr = kMisr;
  const PartitionResult auto_r = partition_patterns(xm, auto_cfg);

  std::printf(
      "== Ablation A: partition-count sweep (%s, %zu cells, %zu X's) ==\n",
      profile.name.c_str(), xm.num_cells(), xm.total_x());
  TextTable t({"rounds", "#partitions", "masked X", "leaked X",
               "masking bits", "canceling bits", "total bits", "note"});

  double best = 0.0;
  std::size_t best_rounds = 0;
  const std::size_t sweep_limit = auto_r.history.size() + 12;
  for (std::size_t k = 0; k <= sweep_limit; ++k) {
    PartitionerConfig cfg;
    cfg.misr = kMisr;
    cfg.stop_on_cost_increase = false;
    cfg.max_rounds = k;
    const PartitionResult r = partition_patterns(xm, cfg);
    if (k > 0 && r.num_partitions() < k + 1) {
      break;  // no more splittable groups
    }
    std::string note;
    if (r.num_partitions() == auto_r.num_partitions()) {
      note = "<- cost-function stop";
    }
    if (k == 0 || r.total_bits < best) {
      best = r.total_bits;
      best_rounds = k;
    }
    t.add_row({std::to_string(k), std::to_string(r.num_partitions()),
               std::to_string(r.masked_x), std::to_string(r.leaked_x),
               TextTable::millions(r.masking_bits),
               TextTable::millions(r.canceling_bits),
               TextTable::millions(r.total_bits), note});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "sweep minimum at %zu rounds; cost-function run chose %zu partitions "
      "with %s bits\n\n",
      best_rounds, auto_r.num_partitions(),
      TextTable::millions(auto_r.total_bits).c_str());
}

}  // namespace
}  // namespace xh

int main(int argc, char** argv) {
  xh::parse_no_arguments(argc, argv);
  xh::print_sweep();
  return 0;
}
