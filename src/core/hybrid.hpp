// End-to-end hybrid X-handling pipeline and paper-style comparison report.
//
// Analysis mode consumes only X locations (scales to the Table 1 workloads);
// simulation mode additionally applies the masks to a dense response, streams
// it through a real X-canceling MISR, and checks the method's invariants
// (no observable value masked; every extracted signature bit X-free).
//
// The validating simulation overload models the production situation where
// the X locations were *predicted* by simulation but the response came from
// silicon: the response is cross-checked against the declared XMatrix, every
// mismatch is classified into a structured diagnostic, and the pipeline
// degrades gracefully instead of emitting a signature that looks valid but
// is not (DESIGN.md §7).
#pragma once

#include "engine/partition_types.hpp"
#include "engine/pipeline_context.hpp"
#include "misr/x_cancel.hpp"
#include "response/response_matrix.hpp"
#include "response/x_matrix.hpp"
#include "util/diagnostics.hpp"

namespace xh {

/// The three columns of Table 1 plus the test-time model, for one workload.
struct HybridReport {
  // Workload facts.
  std::size_t num_patterns = 0;
  std::size_t num_chains = 0;
  std::size_t chain_length = 0;
  std::uint64_t total_x = 0;
  double x_density = 0.0;

  PartitionResult partitioning;

  // Control-bit volumes.
  std::uint64_t masking_only_bits = 0;   // [5]
  double canceling_only_bits = 0.0;      // [12]
  double proposed_bits = 0.0;            // this paper
  double improvement_over_masking = 0.0;    // [5] / proposed
  double improvement_over_canceling = 0.0;  // [12] / proposed

  // Normalized test time (time-multiplexed X-canceling MISR [11]).
  double test_time_canceling_only = 0.0;
  double test_time_proposed = 0.0;
  double test_time_improvement = 0.0;
};

/// Analysis-only pipeline (closed-form accounting on X locations). The
/// context supplies configuration, diagnostics routing and the optional
/// thread pool the partition engine fans out on.
[[nodiscard]] HybridReport run_hybrid_analysis(const XMatrix& xm,
                                               PipelineContext& ctx);

/// Classified cross-check of a captured response against declared X
/// locations. Every (pattern, cell) falls into exactly one bucket.
struct XValidation {
  std::uint64_t confirmed_x = 0;   // declared X, observed X
  std::uint64_t undeclared_x = 0;  // observed X the declaration misses
  std::uint64_t missing_x = 0;     // declared X observed deterministic
  std::uint64_t deterministic = 0;  // neither declared nor observed X

  bool clean() const { return undeclared_x == 0 && missing_x == 0; }
};

/// Compares @p response against @p declared cell by cell. Undeclared X's are
/// reported as errors (they corrupt any signature computed from the
/// declaration alone); missing X's as warnings (masks derived from the
/// declaration may hide observable values). Geometry and pattern counts must
/// match (caller misuse otherwise).
[[nodiscard]] XValidation validate_response(const ResponseMatrix& response,
                                            const XMatrix& declared,
                                            Diagnostics* diags = nullptr);

/// Full-simulation pipeline on a dense response.
struct HybridSimulation {
  HybridReport report;
  ResponseMatrix masked_response;    // after per-partition masking
  XCancelResult cancel;              // real MISR session on the masked data
  bool observability_preserved = false;
  std::uint64_t x_entering_misr = 0;  // post-spatial-compaction X count

  // Robustness extensions (meaningful for the validating overload; the
  // trusting overload always reports a clean validation).
  XValidation validation;
  std::uint64_t masked_observable = 0;  // mask-covered cells carrying values
  /// True when any recovery path engaged — mismatched X declarations,
  /// masks hiding observable values, starved or contaminated extractions.
  /// Details are in the Diagnostics collector.
  bool degraded = false;
};

/// Trusting pipeline: X locations are taken from the response itself, so the
/// declared and observed X sets agree by construction. Mask or accounting
/// violations indicate library bugs and throw (legacy fail-fast behavior).
[[nodiscard]] HybridSimulation run_hybrid_simulation(
    const ResponseMatrix& response, PipelineContext& ctx);

/// Validating pipeline: partitions and masks are derived from @p declared
/// (the pre-silicon prediction) and then exercised against @p response (what
/// silicon returned). Mismatches are classified into @p diags and recovered
/// from where semantically sound:
///   * undeclared X's flow into the X-canceling MISR, which tracks them
///     symbolically — more stops, but the signature stays X-free;
///   * declared X's that resolved deterministic make masks hide observable
///     values — reported per cell, never silently absorbed;
///   * starved or contaminated extractions retry at later stops.
/// A strict context (ctx.collector() == nullptr) throws on mismatch; a
/// lenient or adopting context degrades gracefully.
[[nodiscard]] HybridSimulation run_hybrid_simulation(
    const ResponseMatrix& response, const XMatrix& declared,
    PipelineContext& ctx);

}  // namespace xh
