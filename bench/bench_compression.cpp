// Ablation E — stimulus-side compression sweep: seed length vs encodability
// and compression ratio for PODEM pattern sets with don't-cares. Complements
// the paper's response-side story with the stimulus side its introduction
// pairs it with.
#include <cstdio>

#include "atpg/test_generation.hpp"
#include "netlist/generator.hpp"
#include "printer_args.hpp"
#include "stimulus/decompressor.hpp"
#include "util/table.hpp"

namespace xh {
namespace {

void print_sweep() {
  GeneratorConfig gcfg;
  gcfg.seed = 4242;
  gcfg.num_gates = 500;
  gcfg.num_dffs = 256;
  gcfg.nonscan_fraction = 0.05;
  const Netlist nl = generate_circuit(gcfg);
  const ScanPlan plan = ScanPlan::build(nl, 8);
  AtpgConfig acfg;
  acfg.random_patterns = 0;
  acfg.fill_dont_cares = false;
  acfg.seed = 9;
  const std::vector<TestPattern> patterns =
      generate_test_set(nl, plan, acfg).patterns;
  std::size_t max_care = 0;
  std::uint64_t total_care = 0;
  for (const auto& pat : patterns) {
    std::size_t care = 0;
    for (const Lv v : pat.scan_in) care += is_definite(v) ? 1u : 0u;
    max_care = std::max(max_care, care);
    total_care += care;
  }
  std::printf(
      "== Ablation E: LFSR-reseeding stimulus compression ==\n"
      "%zu PODEM patterns over %zu scan cells; care bits: avg %.1f, max %zu\n",
      patterns.size(), plan.geometry().num_cells(),
      static_cast<double>(total_care) /
          static_cast<double>(patterns.empty() ? 1 : patterns.size()),
      max_care);

  TextTable t({"seed bits", "encoded", "failed", "compression",
               "seed data bits", "raw scan bits"});
  for (const std::size_t bits : {16u, 24u, 32u, 48u, 64u}) {
    const StimulusDecompressor decomp(FeedbackPolynomial::primitive(bits),
                                      plan.geometry(), 7);
    const CompressionResult r = compress_patterns(decomp, patterns);
    t.add_row({std::to_string(bits), std::to_string(r.seeds.size()),
               std::to_string(r.failed_patterns.size()),
               TextTable::num(r.compression_ratio(), 2) + "x",
               std::to_string(r.seed_data_bits),
               std::to_string(r.raw_scan_bits)});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "Expected: encodability collapses once care bits approach the seed\n"
      "length and saturates above it; compression ratio = cells / seed.\n\n");
}

}  // namespace
}  // namespace xh

int main(int argc, char** argv) {
  xh::parse_no_arguments(argc, argv);
  xh::print_sweep();
  return 0;
}
