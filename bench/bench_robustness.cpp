// Robustness overhead — what graceful degradation costs. The table sweeps
// injected undeclared-X counts through the validating pipeline and shows how
// stops, selection vectors, and diagnostics grow. --telemetry PATH also
// writes the run's xh-telemetry/1 document.
#include <cstdio>
#include <fstream>
#include <string>

#include "core/hybrid.hpp"
#include "inject/corruptor.hpp"
#include "obs/telemetry_json.hpp"
#include "obs/trace.hpp"
#include "printer_args.hpp"
#include "response/response_matrix.hpp"
#include "response/x_matrix.hpp"
#include "util/diagnostics.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

/// Random deterministic values everywhere, X's exactly where declared.
ResponseMatrix materialize(const XMatrix& xm, std::uint64_t seed) {
  ResponseMatrix r(xm.geometry(), xm.num_patterns());
  Rng rng(seed);
  for (std::size_t p = 0; p < r.num_patterns(); ++p) {
    for (std::size_t c = 0; c < r.num_cells(); ++c) {
      r.set(p, c, rng.chance(0.5) ? Lv::k1 : Lv::k0);
    }
  }
  for (const std::size_t cell : xm.x_cells()) {
    for (const std::size_t p : xm.patterns_of(cell).set_bits()) {
      r.set(p, cell, Lv::kX);
    }
  }
  return r;
}

void print_degradation_sweep(Trace* trace) {
  WorkloadProfile profile;
  profile.name = "robustness";
  profile.geometry = {8, 32};
  profile.num_patterns = 200;
  profile.x_density = 0.02;
  profile.cluster_cells_mean = 6;
  profile.cluster_patterns_mean = 40;
  profile.seed = 17;
  const XMatrix declared = generate_workload(profile);
  const ResponseMatrix response = materialize(declared, 18);
  std::printf(
      "== Robustness: validating pipeline under undeclared X's ==\n"
      "%zu patterns x %zu cells, %llu declared X's; each row injects\n"
      "undeclared X's and runs the validating simulation (DESIGN.md section 7).\n",
      response.num_patterns(), response.num_cells(),
      static_cast<unsigned long long>(declared.total_x()));

  TextTable t({"injected", "stops", "sel vectors", "degraded", "diag errors",
               "diag warnings"});
  for (const std::size_t injected : {0u, 8u, 32u, 128u}) {
    ResponseMatrix corrupted = response;
    Corruptor corruptor(91);
    corruptor.add_undeclared_x(corrupted, injected);
    Diagnostics diags;
    PipelineContext ctx;
    ctx.adopt_collector(&diags);
    ctx.set_trace(trace);
    const HybridSimulation sim =
        run_hybrid_simulation(corrupted, declared, ctx);
    t.add_row({std::to_string(injected), std::to_string(sim.cancel.stops),
               std::to_string(sim.cancel.selection_vectors),
               sim.degraded ? "yes" : "no",
               std::to_string(diags.count(DiagSeverity::kError)),
               std::to_string(diags.count(DiagSeverity::kWarning))});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "Expected: every undeclared X flows into the X-canceling MISR, so\n"
      "stops and selection vectors climb while the signature stays X-free;\n"
      "diagnostics grow linearly but retention is capped per kind.\n\n");
}

}  // namespace
}  // namespace xh

int main(int argc, char** argv) {
  const std::string telemetry_path = xh::parse_telemetry_argument(argc, argv);
  xh::Trace trace;
  xh::print_degradation_sweep(telemetry_path.empty() ? nullptr : &trace);
  if (!telemetry_path.empty()) {
    std::ofstream out(telemetry_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", telemetry_path.c_str());
      return 1;
    }
    xh::TelemetryMeta meta;
    meta.tool = "bench_robustness";
    meta.run = {{"workload", "robustness"},
                {"sweep", "undeclared-x 0/8/32/128"}};
    xh::write_telemetry_json(out, trace, meta);
    std::printf("telemetry written to %s\n", telemetry_path.c_str());
  }
  return 0;
}
