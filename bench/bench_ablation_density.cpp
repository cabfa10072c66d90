// Ablation C — X-density and correlation-strength sweep, including the
// superset X-canceling baseline [17,18].
//
// Two questions the paper's Table 1 hints at but does not sweep:
//   1. As X-density falls (CKT-A regime) the canceling-only baseline gets
//      cheap; where does the hybrid's advantage fade out?
//   2. The method monetizes inter-correlation; how does the win scale with
//      the fraction of X's that are actually clustered?
// The superset baseline shows the competing trade: it can undercut control
// bits but only by sacrificing observability (lost non-X observations),
// which the proposed method never does.
#include <cstdio>

#include "baseline/chain_masking.hpp"
#include "baseline/superset.hpp"
#include "core/hybrid.hpp"
#include "printer_args.hpp"
#include "util/table.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

const MisrConfig kMisr{32, 7};

WorkloadProfile base_profile() {
  WorkloadProfile p = scaled_profile(ckt_b_profile(), 0.4);
  p.name = "sweep";
  return p;
}

void print_density_sweep() {
  std::printf("== Ablation C1: X-density sweep (clustered fraction 0.55) ==\n");
  TextTable t({"X-density", "total X", "#partitions", "cancel-only bits",
               "proposed bits", "impv.", "test time [12]", "test time prop."});
  for (const double density :
       {0.0002, 0.001, 0.005, 0.01, 0.0275, 0.05}) {
    WorkloadProfile p = base_profile();
    p.x_density = density;
    const XMatrix xm = generate_workload(p);
    PipelineContext ctx;
    ctx.partitioner.misr = kMisr;
    const HybridReport rep = run_hybrid_analysis(xm, ctx);
    t.add_row({TextTable::num(density * 100.0, 2) + "%",
               std::to_string(rep.total_x),
               std::to_string(rep.partitioning.num_partitions()),
               TextTable::millions(rep.canceling_only_bits),
               TextTable::millions(rep.proposed_bits),
               TextTable::num(rep.improvement_over_canceling, 2),
               TextTable::num(rep.test_time_canceling_only, 2),
               TextTable::num(rep.test_time_proposed, 2)});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "Expected: at very low density masking a partition cannot pay for its\n"
      "L*C control bits (improvement -> 1.0, the CKT-A regime); the win grows\n"
      "with density.\n\n");
}

void print_correlation_sweep() {
  std::printf(
      "== Ablation C2: inter-correlation sweep (density 2.75%%) ==\n");
  TextTable t({"clustered frac", "#partitions", "masked X / total",
               "proposed bits", "impv. over [12]", "superset bits [17,18]",
               "superset lost obs.", "chain-mask bits [3]",
               "chain-mask lost obs."});
  for (const double frac : {0.0, 0.2, 0.4, 0.55, 0.7, 0.9}) {
    WorkloadProfile p = base_profile();
    p.clustered_fraction = frac;
    const XMatrix xm = generate_workload(p);
    PipelineContext ctx;
    ctx.partitioner.misr = kMisr;
    const HybridReport rep = run_hybrid_analysis(xm, ctx);
    SupersetConfig scfg;
    scfg.misr = kMisr;
    scfg.max_growth = 0.25;
    const SupersetResult sup = superset_x_canceling(xm, scfg);
    t.add_row(
        {TextTable::num(frac, 2),
         std::to_string(rep.partitioning.num_partitions()),
         std::to_string(rep.partitioning.masked_x) + " / " +
             std::to_string(rep.total_x),
         TextTable::millions(rep.proposed_bits),
         TextTable::num(rep.improvement_over_canceling, 2),
         TextTable::millions(sup.control_bits),
         std::to_string(sup.lost_observations),
         TextTable::millions(static_cast<double>(
             chain_masking(xm).control_bits)),
         std::to_string(chain_masking(xm).lost_observations)});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "Expected: with no clusters the proposed method degenerates to\n"
      "canceling-only (impv. ~1.0, zero coverage risk); the win scales with\n"
      "correlation. The superset baseline cuts control bits even without\n"
      "clusters but pays in lost observations (non-X bits treated as X),\n"
      "which the proposed method never sacrifices.\n\n");
}

}  // namespace
}  // namespace xh

int main(int argc, char** argv) {
  xh::parse_no_arguments(argc, argv);
  xh::print_density_sweep();
  xh::print_correlation_sweep();
  return 0;
}
