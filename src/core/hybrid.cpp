#include "core/hybrid.hpp"

#include <stdexcept>
#include <string>

#include "engine/partition_engine.hpp"
#include "engine/pipeline.hpp"
#include "kernels/kernels.hpp"
#include "masking/mask.hpp"
#include "misr/accounting.hpp"
#include "util/check.hpp"

namespace xh {

HybridReport run_hybrid_analysis(const XMatrix& xm, PipelineContext& ctx) {
  const ScopedSpan span(ctx.trace(), "analysis");
  HybridReport rep;
  rep.num_patterns = xm.num_patterns();
  rep.num_chains = xm.geometry().num_chains;
  rep.chain_length = xm.geometry().chain_length;
  rep.total_x = xm.total_x();
  rep.x_density = xm.x_density();

  rep.partitioning = run_partitioning(xm, ctx);

  const MisrConfig& misr = ctx.misr();
  rep.masking_only_bits =
      x_masking_only_bits(xm.geometry(), xm.num_patterns());
  rep.canceling_only_bits = x_canceling_only_bits(misr, rep.total_x);
  rep.proposed_bits = rep.partitioning.total_bits;
  if (rep.proposed_bits > 0.0) {
    rep.improvement_over_masking =
        static_cast<double>(rep.masking_only_bits) / rep.proposed_bits;
    rep.improvement_over_canceling =
        rep.canceling_only_bits / rep.proposed_bits;
  }

  const double cells_per_pattern =
      static_cast<double>(xm.geometry().num_cells());
  const double leaked_density =
      static_cast<double>(rep.partitioning.leaked_x) /
      (cells_per_pattern * static_cast<double>(xm.num_patterns()));
  rep.test_time_canceling_only =
      normalized_test_time(rep.num_chains, rep.x_density, misr);
  rep.test_time_proposed =
      normalized_test_time(rep.num_chains, leaked_density, misr);
  if (rep.test_time_proposed > 0.0) {
    rep.test_time_improvement =
        rep.test_time_canceling_only / rep.test_time_proposed;
  }

  // Headline accounting as gauges: pure functions of the input, so these
  // are stable across runs and golden-testable (unlike the timers).
  Trace* trace = ctx.trace();
  obs_gauge(trace, "hybrid.partitions",
            static_cast<double>(rep.partitioning.partitions.size()));
  obs_gauge(trace, "hybrid.masked_x",
            static_cast<double>(rep.partitioning.masked_x));
  obs_gauge(trace, "hybrid.leaked_x",
            static_cast<double>(rep.partitioning.leaked_x));
  obs_gauge(trace, "hybrid.masking_bits", rep.partitioning.masking_bits);
  obs_gauge(trace, "hybrid.canceling_bits", rep.partitioning.canceling_bits);
  obs_gauge(trace, "hybrid.total_bits", rep.partitioning.total_bits);
  return rep;
}

XValidation validate_response(const ResponseMatrix& response,
                              const XMatrix& declared,
                              Diagnostics* diags) {
  XH_REQUIRE(declared.geometry() == response.geometry(),
             "declared X matrix geometry must match the response");
  XH_REQUIRE(declared.num_patterns() == response.num_patterns(),
             "declared X matrix pattern count must match the response");

  // Transpose the sparse declaration into per-pattern rows once, then
  // classify each pattern with three word-level bit operations.
  const std::size_t num_cells = response.num_cells();
  std::vector<BitVec> declared_rows(response.num_patterns(),
                                    BitVec(num_cells));
  for (const std::size_t cell : declared.x_cells()) {
    for (const std::size_t p : declared.patterns_of(cell).set_bits()) {
      declared_rows[p].set(cell);
    }
  }

  XValidation v;
  for (std::size_t p = 0; p < response.num_patterns(); ++p) {
    const BitVec observed = response.x_row(p);
    const BitVec& predicted = declared_rows[p];
    v.confirmed_x += kernels::and_count(observed, predicted);
    v.undeclared_x += kernels::and_not_count(observed, predicted);
    v.missing_x += kernels::and_not_count(predicted, observed);
    if (diags != nullptr) {
      BitVec undeclared = observed;
      undeclared.and_not(predicted);
      BitVec missing = predicted;
      missing.and_not(observed);
      for (const std::size_t c : undeclared.set_bits()) {
        diags->error(DiagKind::kUndeclaredX,
                     "pattern " + std::to_string(p) + " cell " +
                         std::to_string(c),
                     "response captures X where the declaration predicts a "
                     "deterministic value");
      }
      for (const std::size_t c : missing.set_bits()) {
        diags->warn(DiagKind::kMissingX,
                    "pattern " + std::to_string(p) + " cell " +
                        std::to_string(c),
                    "declared X resolved to a deterministic value");
      }
    }
  }
  const std::uint64_t entries =
      static_cast<std::uint64_t>(response.num_patterns()) * num_cells;
  v.deterministic = entries - v.confirmed_x - v.undeclared_x - v.missing_x;
  return v;
}

namespace {

/// Shared simulation core. @p trusting means @p xm was derived from the
/// response itself, so mismatch checks degenerate to library-bug assertions.
HybridSimulation simulate(const ResponseMatrix& response, const XMatrix& xm,
                          PipelineContext& ctx, bool trusting) {
  const ScopedSpan sim_span(ctx.trace(), "simulation");
  Diagnostics* diags = ctx.collector();
  HybridSimulation sim;
  sim.report = run_hybrid_analysis(xm, ctx);
  sim.masked_response = response;

  {
    const ScopedSpan validate_span(ctx.trace(), "validate");
    if (trusting) {
      sim.validation.confirmed_x = xm.total_x();
      sim.validation.deterministic =
          static_cast<std::uint64_t>(response.num_patterns()) *
              response.num_cells() -
          sim.validation.confirmed_x;
    } else {
      sim.validation = validate_response(response, xm, diags);
      if (!sim.validation.clean() && diags == nullptr) {
        // Strict mode with no collector attached is the one place core may
        // throw: the caller explicitly declined graceful degradation.
        // xh-lint: allow(XH-ERR-001)
        throw std::runtime_error(
            "x-validation failed: " +
            std::to_string(sim.validation.undeclared_x) + " undeclared and " +
            std::to_string(sim.validation.missing_x) +
            " missing X's between response and declaration (pass a "
            "Diagnostics collector to degrade gracefully)");
      }
    }
  }

  // Check the masks against what silicon actually returned BEFORE applying
  // them: a violation means a declared X resolved deterministic and the
  // mask will hide an observable value. Reported per cell, never absorbed.
  const PartitionResult& pr = sim.report.partitioning;
  {
    const ScopedSpan mask_span(ctx.trace(), "mask");
    sim.masked_observable =
        count_mask_violations(response, pr.partitions, pr.masks, ctx);
    sim.observability_preserved = sim.masked_observable == 0;
    if (sim.validation.clean()) {
      XH_ASSERT(sim.observability_preserved,
                "partition masks would destroy observable values");
    }
    for (std::size_t i = 0; i < pr.partitions.size(); ++i) {
      apply_mask(sim.masked_response, pr.partitions[i], pr.masks[i],
                 ctx.trace());
    }
  }

  const std::uint64_t remaining_x = sim.masked_response.total_x();
  if (sim.validation.clean()) {
    XH_ASSERT(remaining_x == pr.leaked_x,
              "leaked-X accounting disagrees with masked response");
  } else if (remaining_x != pr.leaked_x) {
    diag_report(diags, DiagSeverity::kWarning, DiagKind::kAccountingMismatch,
                "masked response",
                "declaration predicts " + std::to_string(pr.leaked_x) +
                    " leaked X's but " + std::to_string(remaining_x) +
                    " remain after masking");
  }

  sim.cancel = run_x_canceling(sim.masked_response, ctx);
  sim.x_entering_misr = sim.cancel.total_x_seen;
  sim.degraded = !sim.validation.clean() || sim.masked_observable > 0 ||
                 !sim.cancel.healthy();
  return sim;
}

}  // namespace

HybridSimulation run_hybrid_simulation(const ResponseMatrix& response,
                                       PipelineContext& ctx) {
  return simulate(response, XMatrix::from_response(response), ctx,
                  /*trusting=*/true);
}

HybridSimulation run_hybrid_simulation(const ResponseMatrix& response,
                                       const XMatrix& declared,
                                       PipelineContext& ctx) {
  return simulate(response, declared, ctx, /*trusting=*/false);
}

}  // namespace xh
