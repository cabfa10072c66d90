// Regenerates Figures 2 and 3: symbolic simulation of a 6-bit MISR fed
// 14 deterministic values and 4 X's, followed by Gaussian elimination that
// extracts two X-free row combinations.
//
// The paper does not give its 6-bit MISR's feedback polynomial, so the
// dependency equations differ in detail; the structure — 18 symbols, 4 X
// columns, rank 4, exactly 2 X-free combinations — is the reproduction
// target. The paper's OWN dependency matrix (readable from Figure 2) is also
// eliminated verbatim to confirm the published combinations M1^M3^M5, M1^M4.
#include <cstdio>
#include <string>

#include "gf2/matrix.hpp"
#include "misr/symbolic_misr.hpp"
#include "printer_args.hpp"

namespace xh {
namespace {

// Symbol universe mirrors Figure 2: 18 captures, of which 4 are X.
constexpr std::size_t kSymbols = 18;
const std::size_t kXSymbols[] = {1, 5, 7, 11};

bool is_x_symbol(std::size_t s) {
  for (const std::size_t x : kXSymbols) {
    if (s == x) return true;
  }
  return false;
}

std::string symbol_name(std::size_t s) {
  std::size_t x_index = 0;
  std::size_t o_index = 0;
  for (std::size_t k = 0; k <= s; ++k) {
    if (is_x_symbol(k)) {
      ++x_index;
    } else {
      ++o_index;
    }
  }
  return is_x_symbol(s) ? "X" + std::to_string(x_index)
                        : "O" + std::to_string(o_index + 1);
}

void print_fig2_fig3() {
  SymbolicMisr misr(FeedbackPolynomial::primitive(6), kSymbols);
  // Three shift cycles × 6 stages = 18 symbols, row-major like Figure 2.
  for (std::size_t cycle = 0; cycle < 3; ++cycle) {
    std::vector<std::optional<SymbolId>> slice(6);
    for (std::size_t stage = 0; stage < 6; ++stage) {
      slice[stage] = cycle * 6 + stage;
    }
    misr.step(slice);
  }

  std::printf("== Figure 2: symbolic MISR state (our 6-bit MISR) =========\n");
  for (std::size_t bit = 0; bit < 6; ++bit) {
    std::printf("M%zu =", bit + 1);
    bool first = true;
    for (const std::size_t s : misr.dependency(bit).set_bits()) {
      std::printf("%s%s", first ? " " : " ^ ", symbol_name(s).c_str());
      first = false;
    }
    std::printf("\n");
  }

  std::vector<SymbolId> xs(std::begin(kXSymbols), std::end(kXSymbols));
  const Gf2Matrix xmat = misr.x_dependency_matrix(xs);
  std::printf("\n== Figure 3: X-dependency matrix (columns X1..X4) ========\n%s",
              xmat.to_string().c_str());
  const auto combos = gf2::x_free_combinations(xmat);
  std::printf("rank = %zu, X-free combinations = %zu (paper: 2)\n",
              xmat.rank(), combos.size());
  for (const auto& combo : combos) {
    std::printf("  X-free row:");
    for (const std::size_t r : combo.set_bits()) std::printf(" M%zu", r + 1);
    std::printf("\n");
  }

  // The paper's exact Figure 2 dependency matrix, eliminated verbatim.
  const Gf2Matrix paper = Gf2Matrix::from_strings(
      {"1000", "1110", "0010", "1000", "1010", "0011"});
  const auto paper_combos = gf2::x_free_combinations(paper);
  std::printf(
      "\nPaper's own matrix: rank %zu, %zu X-free rows "
      "(published: M1^M3^M5 and M1^M4)\n",
      paper.rank(), paper_combos.size());
  for (const auto& combo : paper_combos) {
    std::printf("  extracted:");
    for (const std::size_t r : combo.set_bits()) std::printf(" M%zu", r + 1);
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace
}  // namespace xh

int main(int argc, char** argv) {
  xh::parse_no_arguments(argc, argv);
  xh::print_fig2_fig3();
  return 0;
}
