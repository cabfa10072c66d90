#include "masking/mask.hpp"

#include <bit>
#include <cstdint>
#include <span>
#include <string>

#include "kernels/kernels.hpp"
#include "util/check.hpp"

namespace xh {

BitVec partition_mask(const XMatrix& xm, const BitVec& partition) {
  XH_REQUIRE(partition.size() == xm.num_patterns(),
             "partition width must equal pattern count");
  const std::size_t span = partition.count();
  XH_REQUIRE(span > 0, "partition must contain at least one pattern");
  BitVec mask(xm.num_cells());
  const std::span<const std::uint64_t> cells = xm.x_cells();
  for (std::size_t row = 0; row < cells.size(); ++row) {
    // Masked ⇔ X under every pattern of the partition.
    if (kernels::active().and_count_words(xm.row_words(row),
                                          partition.word_data(),
                                          xm.words_per_row()) == span) {
      mask.set(cells[row]);
    }
  }
  return mask;
}

std::size_t masked_x_count(const XMatrix& xm, const BitVec& partition) {
  return partition_mask(xm, partition).count() * partition.count();
}

void apply_mask(ResponseMatrix& response, const BitVec& partition,
                const BitVec& mask, Trace* trace) {
  XH_REQUIRE(partition.size() == response.num_patterns(),
             "partition width must equal pattern count");
  XH_REQUIRE(mask.size() == response.num_cells(),
             "mask width must equal cell count");
  for (const std::size_t p : partition.set_bits()) {
    response.mask_cells(p, mask);
  }
  record_mask(trace, partition, mask);
}

void record_mask(Trace* trace, const BitVec& partition, const BitVec& mask) {
  if (trace == nullptr) return;
  const std::size_t cells = mask.count();
  obs_count(trace, "masking.partitions");
  // L·C control bits per partition: the mask vector itself, one bit per cell.
  obs_count(trace, "masking.control_bits", mask.size());
  obs_count(trace, "masking.cells_masked", cells);
  obs_count(trace, "masking.x_masked", cells * partition.count());
  obs_record(trace, "masking.masked_cells_per_partition", cells);
}

std::uint64_t count_mask_violations(const ResponseMatrix& response,
                                    const std::vector<BitVec>& partitions,
                                    const std::vector<BitVec>& masks,
                                    Diagnostics* diags, Trace* trace) {
  XH_REQUIRE(partitions.size() == masks.size(),
             "one mask per partition required");
  std::uint64_t violations = 0;
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const BitVec& mask = masks[i];
    XH_REQUIRE(partitions[i].size() == response.num_patterns(),
               "partition width must equal pattern count");
    XH_REQUIRE(mask.size() == response.num_cells(),
               "mask width must equal cell count");
    for (const std::size_t p : partitions[i].set_bits()) {
      // A violation is a masked cell that is not X.
      const BitVec& xs = response.x_row(p);
      const std::size_t hidden = kernels::and_not_count(mask, xs);
      violations += hidden;
      if (hidden == 0 || diags == nullptr) continue;
      for (std::size_t w = 0; w < mask.word_count(); ++w) {
        for (std::uint64_t bits = mask.word(w) & ~xs.word(w); bits != 0;
             bits &= bits - 1) {
          const std::size_t c =
              64 * w + static_cast<std::size_t>(std::countr_zero(bits));
          diags->warn(DiagKind::kMaskHidesValue,
                      "pattern " + std::to_string(p) + " cell " +
                          std::to_string(c),
                      "partition " + std::to_string(i) +
                          " mask hides an observable value (declared X "
                          "resolved deterministic)");
        }
      }
    }
  }
  obs_count(trace, "masking.violations", violations);
  return violations;
}

std::uint64_t XMaskingOnly::control_bits(const ScanGeometry& geometry,
                                         std::size_t num_patterns) {
  return static_cast<std::uint64_t>(geometry.num_cells()) * num_patterns;
}

void XMaskingOnly::apply(ResponseMatrix& response) {
  for (std::size_t p = 0; p < response.num_patterns(); ++p) {
    const BitVec xs = response.x_row(p);  // a plane cannot mask itself
    response.mask_cells(p, xs);
  }
}

}  // namespace xh
