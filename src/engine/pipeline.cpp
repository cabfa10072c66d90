#include "engine/pipeline.hpp"

namespace xh {

XCancelResult run_x_canceling(const ResponseMatrix& response,
                              PipelineContext& ctx,
                              std::span<const BitVec* const> masks) {
  return run_x_canceling(response, ctx.misr(), ctx.collector(), ctx.trace(),
                         masks);
}

std::uint64_t count_mask_violations(const ResponseMatrix& response,
                                    const std::vector<BitVec>& partitions,
                                    const std::vector<BitVec>& masks,
                                    PipelineContext& ctx) {
  return count_mask_violations(response, partitions, masks, ctx.collector(),
                               ctx.trace());
}

XMatrix read_x_matrix(std::istream& in, PipelineContext& ctx) {
  return read_x_matrix(in, ctx.collector(), ctx.trace());
}

ResponseMatrix read_response(std::istream& in, PipelineContext& ctx) {
  return read_response(in, ctx.collector(), ctx.trace());
}

}  // namespace xh
