// X-masking: mask-vector generation and application.
//
// A mask is one bit per scan cell; a set bit forces that cell's shifted-out
// value to a constant 0 (the AND-gate architecture of Figure 1) before it
// reaches the compactor. The paper's safety rule is central here:
// a partition's mask may only cover cells that capture X in EVERY pattern of
// that partition, so no observable (non-X) value is ever destroyed and fault
// coverage is preserved by construction.
#pragma once

#include <vector>

#include "obs/trace.hpp"
#include "response/geometry.hpp"
#include "response/response_matrix.hpp"
#include "response/x_matrix.hpp"
#include "util/bitvec.hpp"
#include "util/diagnostics.hpp"

namespace xh {

/// The safe mask for a pattern group: bit c set ⇔ cell c is X under every
/// pattern of @p partition. @p partition must be non-empty.
BitVec partition_mask(const XMatrix& xm, const BitVec& partition);

/// X's removed by masking @p partition with its safe mask
/// (= mask.count() × partition.count(), since masked cells are all-X).
std::size_t masked_x_count(const XMatrix& xm, const BitVec& partition);

/// Applies @p mask to every pattern in @p partition: masked cells become
/// deterministic 0. Modifies @p response in place. The optional trace
/// receives masking.* counters (control bits emitted, cells/X masked).
void apply_mask(ResponseMatrix& response, const BitVec& partition,
                const BitVec& mask, Trace* trace = nullptr);

/// The masking.* counters and histogram sample of one partition's mask, as
/// apply_mask emits them; for callers that mask in the MISR fold instead of
/// in place. No-op with a null @p trace.
void record_mask(Trace* trace, const BitVec& partition, const BitVec& mask);

/// Counts every (pattern, cell) whose mask would hide an observable (non-X)
/// value — the situation that arises when masks were derived from *declared*
/// X locations and silicon resolved some of them to deterministic values.
/// Zero means no observable value is lost. Each violation is reported
/// (capped) into @p diags as kMaskHidesValue, by partition, then pattern,
/// then cell; the count is always exact. Never silently absorbs: callers
/// decide whether the coverage loss is acceptable.
std::uint64_t count_mask_violations(const ResponseMatrix& response,
                                    const std::vector<BitVec>& partitions,
                                    const std::vector<BitVec>& masks,
                                    Diagnostics* diags = nullptr,
                                    Trace* trace = nullptr);

/// Conventional X-masking-only baseline [5]: every X cell of every pattern is
/// masked individually (per-cycle control data).
struct XMaskingOnly {
  /// Control bits: one per scan cell per pattern.
  static std::uint64_t control_bits(const ScanGeometry& geometry,
                                    std::size_t num_patterns);

  /// Masks every X in place; the result carries no X at all.
  static void apply(ResponseMatrix& response);
};

}  // namespace xh
