#include "baseline/chain_masking.hpp"

#include <cstdint>
#include <span>

namespace xh {

ChainMaskingResult chain_masking(const XMatrix& xm) {
  const ScanGeometry& geo = xm.geometry();
  ChainMaskingResult result;
  result.control_bits =
      static_cast<std::uint64_t>(geo.num_chains) * xm.num_patterns();
  result.masked_x = xm.total_x();

  // For each chain: union of patterns with any X in the chain, and the
  // per-chain X totals, via pattern-set algebra over the sparse matrix.
  // Cells are chain-major, so a chain's X cells are one run of rows.
  const std::span<const std::uint64_t> cells = xm.x_cells();
  std::size_t row = 0;
  for (std::size_t chain = 0; chain < geo.num_chains; ++chain) {
    BitVec any_x(xm.num_patterns());
    std::uint64_t chain_x = 0;
    const std::size_t end = (chain + 1) * geo.chain_length;
    for (; row < cells.size() && cells[row] < end; ++row) {
      const std::uint64_t* pats = xm.row_words(row);
      for (std::size_t w = 0; w < xm.words_per_row(); ++w) {
        any_x.word_data()[w] |= pats[w];
      }
      chain_x += xm.row_counts()[row];
    }
    const std::uint64_t masked_patterns = any_x.count();
    result.masked_chains += masked_patterns;
    // Every masked (pattern, chain) blanks chain_length bits; the X's among
    // them were worthless anyway, the rest are lost observations.
    result.lost_observations +=
        masked_patterns * geo.chain_length - chain_x;
  }
  return result;
}

}  // namespace xh
