// A guided tour of every mechanism in the DAC'16 paper, in order:
//   Figure 1 — the X-masking architecture (mask application),
//   Figure 2 — symbolic MISR simulation,
//   Figure 3 — Gaussian elimination extracting X-free combinations,
//   Figures 4–6 — X correlation analysis, pattern partitioning with the cost
//   function, and per-partition control-bit generation,
// finishing with the full hybrid simulation and its invariants.
#include <cstdio>

#include "core/hybrid.hpp"
#include "core/paper_example.hpp"
#include "core/partitioner.hpp"
#include "gf2/matrix.hpp"
#include "masking/mask.hpp"
#include "misr/symbolic_misr.hpp"
#include "response/x_stats.hpp"

using namespace xh;

namespace {

void figure1_x_masking() {
  std::printf("--- Figure 1: X-masking --------------------------------\n");
  ResponseMatrix response = paper_example_response(/*seed=*/5);
  std::printf("captured responses (rows = patterns, X = unknown):\n");
  for (std::size_t p = 0; p < response.num_patterns(); ++p) {
    std::printf("  P%zu  %s\n", p + 1, response.row_string(p).c_str());
  }
  // Conventional per-cycle masking blanks every X — at the cost of one
  // control bit per scan cell per pattern.
  ResponseMatrix cleaned = response;
  XMaskingOnly::apply(cleaned);
  std::printf("after conventional X-masking (cost %llu control bits):\n",
              static_cast<unsigned long long>(XMaskingOnly::control_bits(
                  response.geometry(), response.num_patterns())));
  for (std::size_t p = 0; p < cleaned.num_patterns(); ++p) {
    std::printf("  P%zu  %s\n", p + 1, cleaned.row_string(p).c_str());
  }
}

void figures2_3_x_canceling() {
  std::printf("\n--- Figures 2 & 3: X-canceling MISR --------------------\n");
  // Shift 12 symbols (two of them X) into a 4-bit MISR and watch each state
  // bit become a linear combination of everything shifted in.
  SymbolicMisr misr(FeedbackPolynomial::primitive(4), 12);
  for (std::size_t cycle = 0; cycle < 3; ++cycle) {
    std::vector<std::optional<SymbolId>> slice(4);
    for (std::size_t stage = 0; stage < 4; ++stage) {
      slice[stage] = cycle * 4 + stage;
    }
    misr.step(slice);
  }
  const std::vector<SymbolId> xs = {2, 7};  // symbols 2 and 7 are X's
  for (std::size_t bit = 0; bit < 4; ++bit) {
    std::printf("  M%zu depends on symbols:", bit + 1);
    for (const std::size_t s : misr.dependency(bit).set_bits()) {
      std::printf(" %zu%s", s,
                  (s == xs[0] || s == xs[1]) ? "(X)" : "");
    }
    std::printf("\n");
  }
  const Gf2Matrix xdep = misr.x_dependency_matrix(xs);
  const auto combos = xh::gf2::x_free_combinations(xdep);
  std::printf("  X-dependency matrix has rank %zu -> %zu X-free combos:\n",
              xdep.rank(), combos.size());
  for (const auto& combo : combos) {
    std::printf("   ");
    for (const std::size_t r : combo.set_bits()) std::printf(" M%zu", r + 1);
    std::printf("\n");
  }
}

void figures4_6_partitioning() {
  std::printf("\n--- Figures 4-6: pattern partitioning ------------------\n");
  const XMatrix xm = paper_example_x_matrix();
  const XStatistics stats = compute_x_statistics(xm);
  std::printf("  %zu X's across %zu of %zu cells; largest same-count group: "
              "%zu cells with %zu X's\n",
              stats.total_x, stats.x_capturing_cells, stats.num_cells,
              stats.largest_bucket().num_cells, stats.largest_bucket().x_count);

  PartitionerConfig cfg;
  cfg.misr = {10, 2};
  const PartitionResult r = partition_patterns(xm, cfg);
  for (const auto& h : r.history) {
    std::printf("  round %zu: %zu partition(s), %llu masked, bits %.1f%s\n",
                h.round, h.num_partitions,
                static_cast<unsigned long long>(h.masked_x), h.total_bits,
                h.accepted ? "" : " (rejected -> stop)");
  }
  std::printf("  final: %zu partitions, 120 -> %.0f masking control bits, "
              "%llu X's leaked to the MISR\n",
              r.num_partitions(), r.masking_bits,
              static_cast<unsigned long long>(r.leaked_x));
}

void full_hybrid() {
  std::printf("\n--- Full hybrid simulation ------------------------------\n");
  PipelineContext ctx;
  ctx.partitioner.misr = {10, 2};
  const HybridSimulation sim =
      run_hybrid_simulation(paper_example_response(5), ctx);
  std::printf("  observability preserved: %s\n",
              sim.observability_preserved ? "yes" : "NO");
  std::printf("  X's entering MISR after masking: %llu (was %llu)\n",
              static_cast<unsigned long long>(sim.x_entering_misr),
              static_cast<unsigned long long>(sim.report.total_x));
  std::printf("  MISR stops: %zu, selective-XOR control bits: %zu\n",
              sim.cancel.stops,
              sim.cancel.control_bits(ctx.misr()));
  std::printf("  extracted %zu X-free signature bits\n",
              sim.cancel.signature.size());
  std::printf("  total control bits: %.1f (vs %.1f canceling-only, "
              "%llu masking-only)\n",
              sim.report.proposed_bits, sim.report.canceling_only_bits,
              static_cast<unsigned long long>(sim.report.masking_only_bits));
}

}  // namespace

int main() {
  figure1_x_masking();
  figures2_3_x_canceling();
  figures4_6_partitioning();
  full_hybrid();
  return 0;
}
