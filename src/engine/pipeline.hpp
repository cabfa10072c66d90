// Context-routed entry points for the lower pipeline stages.
//
// misr/x_cancel, masking and response IO sit below the engine layer, so
// they cannot take a PipelineContext themselves without inverting the
// dependency graph; their primitive Diagnostics*-taking signatures stay.
// These overloads are the seam the upper layers (hybrid, CLI, benches) use
// instead: one PipelineContext supplies the MISR shape, the diagnostics
// routing (strict / lenient / adopted) and the thread pool to every stage,
// replacing the hand-threaded PartitionerConfig → MisrConfig + raw
// Diagnostics* plumbing the seed grew.
#pragma once

#include <iosfwd>
#include <string>

#include "engine/pipeline_context.hpp"
#include "masking/mask.hpp"
#include "misr/x_cancel.hpp"
#include "response/io.hpp"
#include "response/response_matrix.hpp"
#include "response/x_matrix.hpp"
#include "util/bitvec.hpp"

namespace xh {

/// X-canceling MISR session over @p response with the context's MISR shape
/// and diagnostics routing.
[[nodiscard]] XCancelResult run_x_canceling(const ResponseMatrix& response,
                                            PipelineContext& ctx);

/// Mask-violation census with the context's diagnostics routing.
[[nodiscard]] std::uint64_t count_mask_violations(
    const ResponseMatrix& response, const std::vector<BitVec>& partitions,
    const std::vector<BitVec>& masks, PipelineContext& ctx);

/// Deserialization with the context's diagnostics routing (strict contexts
/// keep the legacy throw-on-first-defect contract).
[[nodiscard]] XMatrix read_x_matrix(std::istream& in, PipelineContext& ctx);
[[nodiscard]] ResponseMatrix read_response(std::istream& in,
                                           PipelineContext& ctx);

}  // namespace xh
