// xhybrid command-line front end.
//
//   xhybrid_cli example
//       Run the paper's Section 4 worked example and print the full trace.
//
//   xhybrid_cli analyze --chains N --length L --patterns P --density D
//                       [--clustered F] [--misr-size M] [--misr-q Q]
//                       [--seed S] [--save-xm file.xm] [--threads T]
//       Generate a synthetic workload and print the hybrid analysis report;
//       optionally save the X matrix for later runs. --threads T fans the
//       partition engine's cell analysis out on T lanes (1 = serial,
//       0 = all hardware threads); results are identical for any T.
//
//   Storage backend (analyze/circuit/serve): --xm-backend B places the
//   X-matrix store the partition engine reads from — csr (in-memory,
//   the default resolution), mmap (memory-mapped spill file for
//   out-of-core matrices), or auto (csr unless the estimated CSR
//   footprint exceeds the spill threshold). Both placements are
//   bit-identical; only footprint differs (DESIGN.md §12).
//
//   xhybrid_cli analyze --load-xm file.xm [--misr-size M] [--misr-q Q]
//       Analyze a previously saved (or externally produced) X matrix.
//
//   xhybrid_cli circuit <netlist.bench> [--chains N] [--patterns P]
//                       [--misr-size M] [--misr-q Q] [--seed S]
//       Read a .bench netlist (with NDFF/TRISTATE/BUS X-source extensions),
//       run ATPG, capture responses, and print the hybrid analysis +
//       verified coverage result.
//
//   xhybrid_cli inject --mode MODE [--count N] [--seed S] [--lenient]
//                      [--chains N] [--length L] [--patterns P]
//                      [--misr-size M] [--misr-q Q]
//       Seeded fault-injection campaign against the pipeline (DESIGN.md §7).
//       Modes: undeclared-x, resolved-x, burst, tamper, truncate-xm,
//       garble-xm, duplicate-xm.
//
//   xhybrid_cli serve --jobs-dir DIR [--workers W] [--max-queue Q]
//                     [--timeout-ms T] [--retries R]
//                     [--checkpoint-dir DIR] [--checkpoint-every K]
//                     [--misr-size M] [--misr-q Q] [--seed S]
//       One-shot service run (DESIGN.md §11): ingest every *.xm in DIR as
//       a partitioning job, run them on W workers behind a Q-deep
//       admission queue, drain, and print a per-job report. --timeout-ms
//       bounds each job (deadline-exceeded jobs return their best-so-far
//       partition as "degraded"); --checkpoint-dir enables crash-safe
//       round-boundary checkpoints that a rerun resumes bit-identically.
//
// Flags follow one kebab-case scheme (all commands): --strict / --lenient
// pick the diagnostics mode, --threads T picks the pool width, and
// --telemetry file.json dumps the run's xh::Trace as an xh-telemetry/1
// document.
//
// Robustness flags (all commands): --lenient attaches a structured
// diagnostics collector so data mismatches degrade gracefully and are
// summarized on stderr; --strict (the default) fails fast on the first
// mismatch. --timeout-ms T (analyze/circuit/serve) arms a cooperative
// deadline token the partition engine polls at round boundaries.
// Exit codes: 0 clean, 1 diagnostics errors / runtime failure, 2 usage or
// argument errors, 3 deadline exceeded (a valid best-so-far partition was
// still produced and printed — distinct from hard failure by design).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "atpg/test_generation.hpp"
#include "core/hybrid.hpp"
#include "core/paper_example.hpp"
#include "core/partitioner.hpp"
#include "engine/partition_types.hpp"
#include "engine/pipeline.hpp"
#include "engine/pipeline_context.hpp"
#include "fault/fault_sim.hpp"
#include "inject/corruptor.hpp"
#include "kernels/kernels.hpp"
#include "misr/x_cancel.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/netlist.hpp"
#include "obs/telemetry_json.hpp"
#include "obs/trace.hpp"
#include "response/io.hpp"
#include "response/x_matrix.hpp"
#include "scan/scan_plan.hpp"
#include "scan/test_application.hpp"
#include "service/job_runner.hpp"
#include "sim/logic.hpp"
#include "storage/store_factory.hpp"
#include "storage/x_matrix_store.hpp"
#include "util/cancel_token.hpp"
#include "util/clock.hpp"
#include "util/diagnostics.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s example [--telemetry file.json]\n"
      "  %s analyze --chains N --length L --patterns P --density D\n"
      "             [--clustered F] [--misr-size M] [--misr-q Q] [--seed S]\n"
      "             [--save-xm file.xm | --load-xm file.xm]\n"
      "             [--strict | --lenient] [--threads T]\n"
      "             [--xm-backend B] [--isa I] [--telemetry file.json]\n"
      "  %s circuit <netlist.bench> [--chains N] [--patterns P]\n"
      "             [--misr-size M] [--misr-q Q] [--seed S]\n"
      "             [--strict | --lenient] [--threads T]\n"
      "             [--xm-backend B] [--isa I] [--telemetry file.json]\n"
      "  %s inject --mode MODE [--count N] [--seed S]\n"
      "            [--strict | --lenient] [--telemetry file.json]\n"
      "            (modes: undeclared-x resolved-x burst tamper\n"
      "             truncate-xm garble-xm duplicate-xm)\n"
      "  %s serve --jobs-dir DIR [--workers W] [--max-queue Q]\n"
      "           [--timeout-ms T] [--retries R] [--checkpoint-dir DIR]\n"
      "           [--checkpoint-every K] [--misr-size M] [--misr-q Q]\n"
      "           [--seed S] [--xm-backend B] [--isa I]\n"
      "           [--telemetry file.json]\n"
      "--timeout-ms T (analyze/circuit/serve): stop partitioning at the\n"
      "  first round boundary past T ms and keep the best-so-far result.\n"
      "--xm-backend B (analyze/circuit/serve): X-matrix storage backend,\n"
      "  one of auto|csr|mmap (default auto; all bit-identical).\n"
      "--isa I (analyze/circuit/serve): kernel instruction set, one of\n"
      "  auto|scalar|avx2|avx512 (default auto = best this CPU supports;\n"
      "  all bit-identical). The XH_ISA env variable overrides the flag.\n"
      "exit codes: 0 clean, 1 failure/diagnostic errors, 2 usage,\n"
      "  3 deadline exceeded (degraded best-so-far result produced)\n",
      argv0, argv0, argv0, argv0, argv0);
  std::exit(2);
}

/// Strict numeric argument parsing: a typo exits with a usage error (2)
/// instead of the silent-zero coercion of the atoll/atof family.
std::size_t arg_size(const char* flag, const char* text) {
  try {
    return parse_size(text);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s: %s\n", flag, e.what());
    std::exit(2);
  }
}

std::uint64_t arg_u64(const char* flag, const char* text) {
  try {
    return parse_u64(text);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s: %s\n", flag, e.what());
    std::exit(2);
  }
}

double arg_f64(const char* flag, const char* text) {
  try {
    return parse_f64(text);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s: %s\n", flag, e.what());
    std::exit(2);
  }
}

struct Options {
  std::size_t chains = 8;
  std::size_t length = 32;
  std::size_t patterns = 200;
  double density = 0.02;
  double clustered = 0.5;
  std::size_t misr = 32;
  std::size_t q = 7;
  std::uint64_t seed = 1;
  std::size_t count = 4;
  std::size_t threads = 1;  // pipeline lanes; 0 = hardware concurrency
  XmBackend xm_backend = XmBackend::kAuto;  // X-matrix storage backend
  kernels::Isa isa = kernels::Isa::kAuto;   // kernel dispatch tier
  bool isa_given = false;                   // --isa seen on the command line
  bool lenient = false;
  std::uint64_t timeout_ms = 0;  // 0 = no deadline
  std::size_t workers = 2;       // serve: concurrent job executors
  std::size_t max_queue = 64;    // serve: admission cap
  std::size_t retries = 3;       // serve: attempts per job
  std::size_t checkpoint_every = 8;  // serve: rounds between checkpoints
  std::string jobs_dir;
  std::string checkpoint_dir;
  std::string mode;
  std::string positional;
  std::string save_path;
  std::string load_path;
  std::string telemetry_path;
};

Options parse(int argc, char** argv, int from) {
  Options opt;
  for (int i = from; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--chains") {
      opt.chains = arg_size("--chains", next());
    } else if (arg == "--length") {
      opt.length = arg_size("--length", next());
    } else if (arg == "--patterns") {
      opt.patterns = arg_size("--patterns", next());
    } else if (arg == "--density") {
      opt.density = arg_f64("--density", next());
    } else if (arg == "--clustered") {
      opt.clustered = arg_f64("--clustered", next());
    } else if (arg == "--misr-size") {
      opt.misr = arg_size("--misr-size", next());
    } else if (arg == "--misr-q") {
      opt.q = arg_size("--misr-q", next());
    } else if (arg == "--seed") {
      opt.seed = arg_u64("--seed", next());
    } else if (arg == "--count") {
      opt.count = arg_size("--count", next());
    } else if (arg == "--threads") {
      opt.threads = arg_size("--threads", next());
    } else if (arg == "--xm-backend") {
      const char* text = next();
      if (!parse_xm_backend(text, &opt.xm_backend)) {
        std::fprintf(stderr,
                     "error: --xm-backend: unknown backend '%s' "
                     "(expected auto|csr|mmap)\n",
                     text);
        std::exit(2);
      }
    } else if (arg == "--isa") {
      const char* text = next();
      if (!kernels::parse_isa(text, &opt.isa)) {
        std::fprintf(stderr,
                     "error: --isa: unknown instruction set '%s' "
                     "(expected auto|scalar|avx2|avx512)\n",
                     text);
        std::exit(2);
      }
      opt.isa_given = true;
    } else if (arg == "--timeout-ms") {
      opt.timeout_ms = arg_u64("--timeout-ms", next());
    } else if (arg == "--workers") {
      opt.workers = arg_size("--workers", next());
    } else if (arg == "--max-queue") {
      opt.max_queue = arg_size("--max-queue", next());
    } else if (arg == "--retries") {
      opt.retries = arg_size("--retries", next());
    } else if (arg == "--checkpoint-every") {
      opt.checkpoint_every = arg_size("--checkpoint-every", next());
    } else if (arg == "--jobs-dir") {
      opt.jobs_dir = next();
    } else if (arg == "--checkpoint-dir") {
      opt.checkpoint_dir = next();
    } else if (arg == "--mode") {
      opt.mode = next();
    } else if (arg == "--lenient") {
      opt.lenient = true;
    } else if (arg == "--strict") {
      opt.lenient = false;
    } else if (arg == "--save-xm") {
      opt.save_path = next();
    } else if (arg == "--load-xm") {
      opt.load_path = next();
    } else if (arg == "--telemetry") {
      opt.telemetry_path = next();
    } else if (!arg.empty() && arg[0] != '-' && opt.positional.empty()) {
      opt.positional = arg;
    } else {
      usage(argv[0]);
    }
  }
  return opt;
}

/// Installs the kernel dispatch table the run will use. The kernels library
/// already honored XH_ISA at startup but stays silent about problems (it has
/// no diagnostics channel); the CLI re-validates the variable here so typos
/// and unsupported tiers warn instead of silently running on auto. A valid
/// XH_ISA wins over --isa, matching the XH_XM_BACKEND precedent where the
/// environment overrides per-run configuration.
void apply_isa(const Options& opt) {
  const char* env = std::getenv("XH_ISA");
  if (env != nullptr && *env != '\0') {
    kernels::Isa from_env = kernels::Isa::kAuto;
    if (!kernels::parse_isa(env, &from_env)) {
      std::fprintf(stderr,
                   "warning: ignoring XH_ISA='%s' (expected "
                   "auto|scalar|avx2|avx512)\n",
                   env);
    } else if (!kernels::isa_supported(from_env)) {
      std::fprintf(stderr,
                   "warning: ignoring XH_ISA=%s (not supported by this "
                   "CPU)\n",
                   env);
    } else {
      if (opt.isa_given && kernels::table_for(opt.isa).isa !=
                               kernels::table_for(from_env).isa) {
        std::fprintf(stderr, "warning: XH_ISA=%s overrides --isa %s\n", env,
                     kernels::isa_name(opt.isa));
      }
      kernels::select(from_env);
      return;
    }
  }
  if (opt.isa_given) {
    if (!kernels::isa_supported(opt.isa)) {
      std::fprintf(stderr,
                   "error: --isa: %s is not supported by this CPU\n",
                   kernels::isa_name(opt.isa));
      std::exit(2);
    }
    kernels::select(opt.isa);
  }
}

void print_report(const HybridReport& rep) {
  TextTable t({"metric", "value"});
  t.add_row({"cells x patterns",
             std::to_string(rep.num_chains * rep.chain_length) + " x " +
                 std::to_string(rep.num_patterns)});
  t.add_row({"total X (density)",
             std::to_string(rep.total_x) + " (" +
                 TextTable::num(100.0 * rep.x_density, 3) + "%)"});
  t.add_row({"partitions",
             std::to_string(rep.partitioning.num_partitions())});
  t.add_row({"masked / leaked X",
             std::to_string(rep.partitioning.masked_x) + " / " +
                 std::to_string(rep.partitioning.leaked_x)});
  t.add_row({"X-masking only bits [5]",
             std::to_string(rep.masking_only_bits)});
  t.add_row({"X-canceling only bits [12]",
             TextTable::num(rep.canceling_only_bits, 1)});
  t.add_row({"proposed hybrid bits",
             TextTable::num(rep.proposed_bits, 1)});
  t.add_row({"improvement over [5]",
             TextTable::num(rep.improvement_over_masking, 2) + "x"});
  t.add_row({"improvement over [12]",
             TextTable::num(rep.improvement_over_canceling, 2) + "x"});
  t.add_row({"test time [12] -> proposed",
             TextTable::num(rep.test_time_canceling_only, 3) + " -> " +
                 TextTable::num(rep.test_time_proposed, 3) + " (" +
                 TextTable::num(rep.test_time_improvement, 2) + "x)"});
  std::printf("%s", t.render().c_str());
}

/// Dumps collected diagnostics to stderr and converts them to the exit
/// code contract: structured errors → 1, warnings/infos alone → 0.
int finish_with_diagnostics(const Diagnostics& diags) {
  if (!diags.empty()) {
    std::fprintf(stderr, "%s", diags.render().c_str());
    std::fprintf(stderr,
                 "diagnostics: %zu error(s), %zu warning(s), %zu info\n",
                 diags.count(DiagSeverity::kError),
                 diags.count(DiagSeverity::kWarning),
                 diags.count(DiagSeverity::kInfo));
  }
  return diags.has_errors() ? 1 : 0;
}

/// Pool for --threads T: 1 means serial (no pool at all); anything else is
/// handed to ThreadPool, where 0 selects the hardware concurrency.
std::unique_ptr<ThreadPool> make_pool(std::size_t threads) {
  if (threads == 1) return nullptr;
  return std::make_unique<ThreadPool>(threads);
}

/// --timeout-ms plumbing: an armed deadline token, or nullptr when unset.
std::unique_ptr<CancelToken> make_deadline(std::uint64_t timeout_ms) {
  if (timeout_ms == 0) return nullptr;
  return std::make_unique<CancelToken>(
      wall_clock(), wall_clock().now_ns() + timeout_ms * 1'000'000);
}

/// Exit-code contract for a possibly deadline-clipped run: a clean rc
/// becomes 3 when the engine stopped at the deadline, so callers can tell
/// "best-so-far result under --timeout-ms" apart from hard failure (1).
int finish_with_deadline(int rc, const PartitionResult& part) {
  if (!part.interrupted) return rc;
  std::fprintf(stderr,
               "deadline exceeded: kept best-so-far partition "
               "(%zu partitions) — exit 3\n",
               part.num_partitions());
  return rc == 0 ? 3 : rc;
}

int cmd_example(Trace* trace) {
  PartitionerConfig cfg;
  cfg.misr = {10, 2};
  const XMatrix xm = paper_example_x_matrix();
  const PartitionResult r = partition_patterns(xm, cfg);
  std::printf("Section 4 worked example (m=10, q=2):\n");
  for (const auto& h : r.history) {
    std::printf("  round %zu: %zu partitions, masked %llu, bits %.1f%s\n",
                h.round, h.num_partitions,
                static_cast<unsigned long long>(h.masked_x), h.total_bits,
                h.accepted ? "" : "  (rejected)");
  }
  PipelineContext ctx(cfg);
  ctx.set_trace(trace);
  print_report(run_hybrid_analysis(xm, ctx));
  return 0;
}

int cmd_analyze(const Options& opt, Trace* trace) {
  const std::unique_ptr<ThreadPool> pool = make_pool(opt.threads);
  const std::unique_ptr<CancelToken> deadline = make_deadline(opt.timeout_ms);
  PartitionerConfig pcfg;
  pcfg.misr = {opt.misr, opt.q};
  PipelineContext ctx(pcfg, pool.get());
  ctx.set_trace(trace);
  ctx.set_cancel(deadline.get());
  ctx.set_xm_backend(opt.xm_backend);
  if (opt.lenient) ctx.be_lenient();
  if (!opt.load_path.empty()) {
    std::ifstream in(opt.load_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", opt.load_path.c_str());
      return 1;
    }
    try {
      const HybridReport rep = run_hybrid_analysis(read_x_matrix(in, ctx), ctx);
      print_report(rep);
      return finish_with_deadline(finish_with_diagnostics(ctx.diagnostics()),
                                  rep.partitioning);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      finish_with_diagnostics(ctx.diagnostics());
      return 1;
    }
  }
  WorkloadProfile profile;
  profile.name = "cli";
  profile.geometry = {opt.chains, opt.length};
  profile.num_patterns = opt.patterns;
  profile.x_density = opt.density;
  profile.clustered_fraction = opt.clustered;
  profile.cluster_cells_mean =
      std::max<std::size_t>(2, opt.chains * opt.length / 40);
  profile.cluster_patterns_mean = std::max<std::size_t>(2, opt.patterns / 5);
  profile.seed = opt.seed;

  const XMatrix xm = generate_workload(profile);
  if (!opt.save_path.empty()) {
    std::ofstream out(opt.save_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.save_path.c_str());
      return 1;
    }
    write_x_matrix(xm, out);
    std::printf("saved X matrix to %s\n", opt.save_path.c_str());
  }
  const HybridReport rep = run_hybrid_analysis(xm, ctx);
  print_report(rep);
  return finish_with_deadline(finish_with_diagnostics(ctx.diagnostics()),
                              rep.partitioning);
}

int cmd_circuit(const Options& opt, const char* argv0, Trace* trace) {
  if (opt.positional.empty()) usage(argv0);
  std::ifstream in(opt.positional);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", opt.positional.c_str());
    return 1;
  }
  Diagnostics diags;
  const Netlist nl =
      read_bench(in, opt.positional, opt.lenient ? &diags : nullptr);
  const ScanPlan plan = ScanPlan::build(nl, opt.chains);
  std::printf("netlist %s: %zu gates, %zu scanned / %zu unscanned flops\n",
              nl.name().c_str(), nl.gate_count(), nl.scan_dffs().size(),
              nl.nonscan_dffs().size());

  AtpgConfig acfg;
  acfg.random_patterns = std::min<std::size_t>(opt.patterns, 256);
  acfg.seed = opt.seed;
  const AtpgResult atpg = generate_test_set(nl, plan, acfg);
  std::printf("ATPG: %zu patterns, coverage %.2f%%\n", atpg.patterns.size(),
              100.0 * atpg.coverage());

  TestApplicator app(nl, plan);
  const ResponseMatrix response = app.capture(atpg.patterns);
  const std::unique_ptr<ThreadPool> pool = make_pool(opt.threads);
  const std::unique_ptr<CancelToken> deadline = make_deadline(opt.timeout_ms);
  PartitionerConfig pcfg;
  pcfg.misr = {opt.misr, opt.q};
  PipelineContext ctx(pcfg, pool.get());
  ctx.set_trace(trace);
  ctx.set_cancel(deadline.get());
  ctx.set_xm_backend(opt.xm_backend);
  const HybridSimulation sim = run_hybrid_simulation(response, ctx);
  print_report(sim.report);

  FaultSimulator fsim(nl, plan);
  const FaultSimResult ideal =
      fsim.run(atpg.patterns, atpg.faults, observe_all());
  const FaultSimResult masked = fsim.run(
      atpg.patterns, atpg.faults,
      observe_with_partition_masks(sim.report.partitioning.partitions,
                                   sim.report.partitioning.masks));
  std::printf("coverage under hybrid masks: %.2f%% (ideal %.2f%%) -> %s\n",
              100.0 * masked.coverage(), 100.0 * ideal.coverage(),
              masked.num_detected == ideal.num_detected ? "no loss"
                                                        : "LOSS");
  const int rc = masked.num_detected == ideal.num_detected ? 0 : 1;
  return finish_with_deadline(rc, sim.report.partitioning);
}

/// Concrete response realizing @p xm: random values, X where declared.
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

void print_sim_summary(const HybridSimulation& sim) {
  std::printf("validation: %llu confirmed X, %llu undeclared, %llu missing\n",
              static_cast<unsigned long long>(sim.validation.confirmed_x),
              static_cast<unsigned long long>(sim.validation.undeclared_x),
              static_cast<unsigned long long>(sim.validation.missing_x));
  std::printf(
      "misr: %zu stops, %zu starved, %zu contaminated dropped, deficit %zu\n",
      sim.cancel.stops, sim.cancel.starved_stops,
      sim.cancel.contaminated_dropped, sim.cancel.signature_deficit);
  std::printf("verdict: %s\n",
              sim.degraded ? "degraded (see diagnostics)" : "clean");
}

int cmd_inject(const Options& opt, const char* argv0, Trace* trace) {
  Corruptor corruptor(opt.seed);
  Diagnostics diags;
  Diagnostics* collector = opt.lenient ? &diags : nullptr;
  const MisrConfig misr{opt.misr, opt.q};

  WorkloadProfile profile;
  profile.name = "inject";
  profile.geometry = {opt.chains, opt.length};
  profile.num_patterns = opt.patterns;
  profile.x_density = opt.density;
  profile.clustered_fraction = opt.clustered;
  profile.cluster_cells_mean =
      std::max<std::size_t>(2, opt.chains * opt.length / 40);
  profile.cluster_patterns_mean = std::max<std::size_t>(2, opt.patterns / 5);
  profile.seed = opt.seed;

  if (opt.mode == "undeclared-x" || opt.mode == "resolved-x") {
    const XMatrix declared = generate_workload(profile);
    ResponseMatrix response = materialize(declared, opt.seed + 1);
    const auto injected =
        opt.mode == "undeclared-x"
            ? corruptor.add_undeclared_x(response, opt.count)
            : corruptor.resolve_declared_x(response, opt.count);
    std::printf("injected %zu %s cells (seed %llu)\n", injected.size(),
                opt.mode.c_str(), static_cast<unsigned long long>(opt.seed));
    PipelineContext ctx;
    ctx.partitioner.misr = misr;
    ctx.adopt_collector(collector);
    ctx.set_trace(trace);
    const HybridSimulation sim =
        run_hybrid_simulation(response, declared, ctx);
    print_sim_summary(sim);
    if (!opt.lenient) return sim.degraded ? 1 : 0;
    return finish_with_diagnostics(diags);
  }

  if (opt.mode == "burst") {
    // Starvation is a MISR-level phenomenon: use one chain per MISR stage
    // so a whole slice can be corrupted in a single shift cycle.
    ResponseMatrix response({misr.size, opt.length}, opt.patterns);
    const std::size_t budget = misr.size - misr.q;
    const auto burst = corruptor.x_burst(
        response, misr, std::min(budget + 2, misr.size));
    corruptor.add_undeclared_x(response, opt.count);  // repayment fodder
    std::printf("injected burst of %zu X in one shift slice\n", burst.size());
    const XMatrix declared = XMatrix::from_response(response);
    PipelineContext ctx;
    ctx.partitioner.misr = misr;
    ctx.adopt_collector(collector);
    ctx.set_trace(trace);
    const HybridSimulation sim =
        run_hybrid_simulation(response, declared, ctx);
    print_sim_summary(sim);
    if (!opt.lenient) return sim.degraded ? 1 : 0;
    return finish_with_diagnostics(diags);
  }

  if (opt.mode == "tamper") {
    XCancelSession session(misr, collector, trace);
    session.install_combination_tamper(corruptor.combination_tamper());
    Rng rng(opt.seed + 2);
    for (std::size_t cycle = 0; cycle < 64 * misr.size; ++cycle) {
      std::vector<Lv> slice(misr.size, Lv::k0);
      if (rng.chance(0.1)) {
        slice[static_cast<std::size_t>(rng.below(misr.size))] = Lv::kX;
      }
      session.shift(slice);
    }
    const XCancelResult& tampered = session.finish();
    std::printf("tampered session: %zu contaminated dropped, %zu emitted\n",
                tampered.contaminated_dropped, tampered.signature.size());
    if (!opt.lenient) return tampered.healthy() ? 0 : 1;
    return finish_with_diagnostics(diags);
  }

  if (opt.mode == "truncate-xm" || opt.mode == "garble-xm" ||
      opt.mode == "duplicate-xm") {
    const std::string text = x_matrix_to_string(generate_workload(profile));
    std::string damaged;
    if (opt.mode == "truncate-xm") {
      damaged = corruptor.truncate_text(text, 0.7);
    } else if (opt.mode == "garble-xm") {
      damaged = corruptor.garble_text(text, opt.count);
    } else {
      damaged = corruptor.duplicate_line(text);
    }
    try {
      (void)x_matrix_from_string(damaged, &diags);
      std::printf("damaged file unexpectedly accepted\n");
      return 1;
    } catch (const std::invalid_argument& e) {
      std::printf("rejected damaged input: %s\n", e.what());
      finish_with_diagnostics(diags);
      return diags.has_errors() ? 1 : 0;
    }
  }

  std::fprintf(stderr, "error: unknown inject mode '%s'\n",
               opt.mode.c_str());
  usage(argv0);
}

int cmd_serve(const Options& opt, const char* argv0, Trace* trace) {
  if (opt.jobs_dir.empty()) {
    std::fprintf(stderr, "error: serve requires --jobs-dir\n");
    usage(argv0);
  }
  ServiceConfig scfg;
  scfg.workers = std::max<std::size_t>(1, opt.workers);
  scfg.max_queue_depth = opt.max_queue;
  scfg.partitioner.misr = {opt.misr, opt.q};
  scfg.partitioner.seed = opt.seed;
  scfg.xm_backend = opt.xm_backend;
  scfg.default_deadline_ns = opt.timeout_ms * 1'000'000;
  scfg.checkpoint_dir = opt.checkpoint_dir;
  scfg.checkpoint_every_rounds =
      opt.checkpoint_dir.empty() ? 0 : opt.checkpoint_every;
  scfg.retry.max_attempts = std::max<std::size_t>(1, opt.retries);
  scfg.watchdog_period_ns = 50'000'000;
  PartitionService service(scfg);
  const std::vector<SubmitOutcome> outcomes =
      service.ingest_directory(opt.jobs_dir);
  service.shutdown();

  TextTable t({"job", "state", "attempts", "rounds", "partitions",
               "total bits"});
  bool any_failed = false;
  bool any_degraded = false;
  for (const SubmitOutcome& oc : outcomes) {
    if (!oc.accepted) continue;
    const std::optional<JobResult> res = service.poll(oc.id);
    if (!res) continue;
    any_failed = any_failed || res->state == JobState::kFailed;
    any_degraded = any_degraded || res->state == JobState::kDegraded;
    const bool has_partition = res->state == JobState::kCompleted ||
                               res->state == JobState::kDegraded;
    t.add_row(
        {res->name, job_state_name(res->state),
         std::to_string(res->attempts),
         has_partition ? std::to_string(res->rounds) : "-",
         has_partition ? std::to_string(res->partition.num_partitions())
                       : "-",
         has_partition && !res->partition.history.empty()
             ? TextTable::num(res->partition.history.back().total_bits, 1)
             : "-"});
  }
  std::printf("%s", t.render().c_str());

  const ServiceStats s = service.stats();
  std::printf(
      "jobs: %llu accepted, %llu rejected (overload), %llu completed, "
      "%llu degraded, %llu failed\n",
      static_cast<unsigned long long>(s.jobs_accepted),
      static_cast<unsigned long long>(s.jobs_rejected_overload),
      static_cast<unsigned long long>(s.jobs_completed),
      static_cast<unsigned long long>(s.jobs_degraded),
      static_cast<unsigned long long>(s.jobs_failed));
  std::printf("checkpoints: %llu written, %llu resumed; %llu retries, "
              "queue peak %zu\n",
              static_cast<unsigned long long>(s.checkpoints_written),
              static_cast<unsigned long long>(s.checkpoints_resumed),
              static_cast<unsigned long long>(s.job_retries),
              s.queue_depth_peak);
  service.export_telemetry(trace);

  // Admission rejections are warnings by design — a flood that degrades
  // into rejections is the service doing its job, not a failure.
  const int rc = finish_with_diagnostics(service.diagnostics());
  if (any_failed) return 1;
  if (rc == 0 && any_degraded) return 3;
  return rc;
}

}  // namespace
}  // namespace xh

int main(int argc, char** argv) {
  if (argc < 2) xh::usage(argv[0]);
  const std::string cmd = argv[1];
  try {
    const xh::Options opt = xh::parse(argc, argv, 2);
    xh::apply_isa(opt);
    xh::Trace trace;
    xh::Trace* tr = opt.telemetry_path.empty() ? nullptr : &trace;
    int rc = 2;
    if (cmd == "example") {
      rc = xh::cmd_example(tr);
    } else if (cmd == "analyze") {
      rc = xh::cmd_analyze(opt, tr);
    } else if (cmd == "circuit") {
      rc = xh::cmd_circuit(opt, argv[0], tr);
    } else if (cmd == "inject") {
      rc = xh::cmd_inject(opt, argv[0], tr);
    } else if (cmd == "serve") {
      rc = xh::cmd_serve(opt, argv[0], tr);
    } else {
      xh::usage(argv[0]);
    }
    if (tr != nullptr) {
      std::ofstream out(opt.telemetry_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n",
                     opt.telemetry_path.c_str());
        return 1;
      }
      xh::kernels::export_kernel_telemetry(&trace);
      xh::TelemetryMeta meta;
      meta.tool = "xhybrid_cli";
      meta.run = {{"command", cmd},
                  {"mode", opt.lenient ? "lenient" : "strict"},
                  {"seed", std::to_string(opt.seed)},
                  {"misr", std::to_string(opt.misr) + "/" +
                               std::to_string(opt.q)},
                  {"isa", xh::kernels::active().name}};
      xh::write_telemetry_json(out, trace, meta);
      std::fprintf(stderr, "telemetry written to %s\n",
                   opt.telemetry_path.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
