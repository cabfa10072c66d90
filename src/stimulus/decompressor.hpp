// LFSR-reseeding test-stimulus decompression (Könemann-style).
//
// The paper's opening sentence pairs stimulus compression with response
// compaction; this module is the stimulus half. An L-bit LFSR free-runs
// during scan load; a phase shifter (a fixed XOR of LFSR stages per chain)
// drives every scan-in pin. The loaded value of each scan cell is therefore
// a linear function of the seed over GF(2), so a deterministic pattern's
// CARE bits impose |care| linear constraints on L unknowns — solved with
// gf2::solve. Don't-care cells come out pseudo-random (free fill).
//
// Compression: L seed bits per pattern instead of one bit per scan cell.
// A pattern is encodable when its care-bit system is consistent (virtually
// always while |care| stays a few bits under L).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gf2/lfsr.hpp"
#include "gf2/matrix.hpp"
#include "response/geometry.hpp"
#include "scan/test_application.hpp"
#include "sim/logic.hpp"
#include "util/bitvec.hpp"

namespace xh {

class StimulusDecompressor {
 public:
  /// @p poly fixes the LFSR width (the seed length); @p taps_per_chain phase
  /// shifter taps are drawn per chain from @p phase_seed.
  StimulusDecompressor(FeedbackPolynomial poly, ScanGeometry geometry,
                       std::uint64_t phase_seed = 1,
                       std::size_t taps_per_chain = 3);

  std::size_t seed_bits() const { return poly_.degree(); }
  const ScanGeometry& geometry() const { return geometry_; }

  /// Expands a seed into a full scan load (one bit per cell).
  BitVec expand(const BitVec& seed) const;

  /// Seed-bit dependency of one cell's loaded value.
  const BitVec& cell_dependency(std::size_t cell) const;

  /// Finds a seed whose expansion matches every care bit
  /// (care_mask bit set ⇒ cell must load care_values bit). Returns nullopt
  /// when the care bits are not encodable with this seed length.
  std::optional<BitVec> solve_seed(const BitVec& care_mask,
                                   const BitVec& care_values) const;

 private:
  FeedbackPolynomial poly_;
  ScanGeometry geometry_;
  std::vector<std::vector<std::size_t>> phase_taps_;  // per chain
  std::vector<BitVec> cell_dep_;                      // per cell, over seed
};

/// One compressed pattern: the seed plus the (uncompressed) primary inputs.
struct CompressedPattern {
  BitVec seed;
  std::vector<Lv> pi;
};

struct [[nodiscard]] CompressionResult {
  std::vector<CompressedPattern> seeds;       // encodable patterns
  std::vector<std::size_t> failed_patterns;   // indices that did not encode
  std::uint64_t care_bits = 0;
  std::uint64_t raw_scan_bits = 0;   // cells × encodable patterns
  std::uint64_t seed_data_bits = 0;  // L × encodable patterns

  double compression_ratio() const {
    return seed_data_bits == 0
               ? 0.0
               : static_cast<double>(raw_scan_bits) /
                     static_cast<double>(seed_data_bits);
  }
};

/// Compresses a deterministic pattern set: scan_in values of Lv::kX are
/// don't-cares (free fill); definite values are care bits. Primary inputs
/// ride along uncompressed (X PIs are filled with 0).
CompressionResult compress_patterns(const StimulusDecompressor& decomp,
                                    const std::vector<TestPattern>& patterns);

/// Reconstructs the applicable pattern from a compressed one.
TestPattern decompress_pattern(const StimulusDecompressor& decomp,
                               const CompressedPattern& compressed);

}  // namespace xh
