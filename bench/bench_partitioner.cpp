// Partitioner throughput: seed implementation vs incremental engine.
//
// Times partition_patterns_reference (the retained seed oracle: full X-cell
// re-analysis per round) against the PartitionEngine (victim-only
// re-analysis over an XMatrixStore snapshot) on a synthetic Table-1-scale
// workload, serially and across thread-pool sizes, and emits one JSON
// object so CI can parse the numbers:
//
//   bench_partitioner [--cells N] [--patterns P] [--density D]
//                     [--rounds R] [--threads T] [--seed S] [--smoke]
//                     [--xm-backend B] [--telemetry file.json]
//                     [--trajectory file.json]
//
// --smoke runs a reduced-scale workload (< 10 s end to end), cross-checks
// that both implementations produce identical results, asserts the engine
// is at least 3x faster than the seed, and exits non-zero otherwise — the
// CI regression gate for the engine's core performance claim. The smoke
// run also sweeps the engine over both store placements (csr, mmap),
// demands bit-identical results from each, and gates on the mmap store's
// resident footprint staying below the CSR snapshot's — the out-of-core
// property that makes the placement worth having.
//
// The kernel layer (src/kernels/) gets the same treatment: the engine is
// swept across every ISA tier this CPU supports (scalar, avx2, avx512) via
// kernels::select() and each result must be bit-identical to the seed; an
// and_count-bound microbench times the dispatched tables against the
// inlined constexpr scalar reference. Smoke gates: the best vectorized
// tier must beat the inline reference by >= 2x (warn-skipped on CPUs with
// no vector tier), and the dispatched scalar table must stay within 5% of
// the inline reference (the price of the function-pointer indirection).
//
// --xm-backend B picks the store for the traced telemetry run (default
// csr), so the CI mmap leg exercises the whole engine through the mapped
// file; the per-backend sweep always covers both.
//
// --trajectory writes the compact xh-bench-trajectory/1 document: every
// backend's wall time and its speedup against the SAME seed-oracle
// measurement. bench/trajectory.json snapshots one smoke run per growth
// step so the speedup history reads straight out of git log; the CI
// bench-smoke job emits a fresh one as an artifact on every run.
//
// --telemetry writes the canonical xh-telemetry/1 document instead of each
// bench inventing its own JSON: the engine's deterministic counters (from
// one traced, untimed run) plus bench.* gauges for the measured numbers.
// CI diffs the counters section against bench/telemetry_smoke_baseline.json
// — gauges and timers are wall-clock noise and excluded from the diff, as
// is store.pages_touched (deterministic per backend but backend-shaped).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/partitioner.hpp"
#include "engine/partition_engine.hpp"
#include "kernels/kernels.hpp"
#include "obs/telemetry_json.hpp"
#include "obs/trace.hpp"
#include "storage/store_factory.hpp"
#include "storage/x_matrix_store.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

struct BenchOptions {
  std::size_t cells = 100'000;
  std::size_t patterns = 3'000;
  double density = 0.01;
  std::size_t rounds = 40;
  std::size_t threads = 2;  // pool size for the scaling sample
  std::uint64_t seed = 1;
  bool smoke = false;
  XmBackend xm_backend = XmBackend::kCsr;  // store for the traced run
  std::string telemetry_path;
  std::string trajectory_path;
};

double time_ms(const std::function<void()>& fn, int reps) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (best < 0.0 || ms < best) best = ms;
  }
  return best;
}

long peak_rss_kb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// Canonical per-backend gauge names. Spelled out as literals (rather than
// concatenated at the call sites) so they stay greppable against the
// schema registry in src/obs/telemetry_json.cpp.
struct BackendGaugeNames {
  const char* ms;
  const char* resident_bytes;
  const char* mapped_bytes;
  const char* peak_rss_kb;
};

BackendGaugeNames backend_gauge_names(const std::string& backend) {
  if (backend == "mmap") {
    return {"bench.store_mmap_ms", "bench.store_mmap_resident_bytes",
            "bench.store_mmap_mapped_bytes", "bench.store_mmap_peak_rss_kb"};
  }
  return {"bench.store_csr_ms", "bench.store_csr_resident_bytes",
          "bench.store_csr_mapped_bytes", "bench.store_csr_peak_rss_kb"};
}

/// and_count-bound kernel microbench: the probe loop the engine spends its
/// time in, reduced to its essence. Spans of 4096 words (32 KiB per
/// operand — L1-resident, so the measurement is compute-bound, not a
/// memory-bandwidth test) hammered through the inlined scalar reference
/// and every dispatched table.
struct KernelBench {
  double ref_ms = 0.0;      // inlined kernels::scalar call, the baseline
  double scalar_ms = 0.0;   // the SAME code through the dispatch table
  double best_ms = 0.0;     // fastest tier this CPU supports
  kernels::Isa best_isa = kernels::Isa::kScalar;
  double speedup = 0.0;          // ref_ms / best_ms
  double scalar_overhead = 0.0;  // scalar_ms / ref_ms (indirection tax)
  bool counts_identical = true;  // every tier returned the same count
  std::vector<std::pair<const char*, double>> per_isa_ms;
};

KernelBench bench_kernels(int reps) {
  constexpr std::size_t kWords = 4096;
  constexpr int kIters = 2000;
  std::vector<std::uint64_t> a(kWords);
  std::vector<std::uint64_t> b(kWords);
  std::uint64_t s = 0x9e3779b97f4a7c15ULL;
  const auto splitmix = [&s] {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (auto& w : a) w = splitmix();
  for (auto& w : b) w = splitmix();

  const std::uint64_t expected =
      kernels::scalar::and_count_words(a.data(), b.data(), kWords) *
      static_cast<std::uint64_t>(kIters);

  KernelBench kb;
  // The accumulated count feeds the identity check below, so the compiler
  // cannot dead-code the timed loops.
  std::uint64_t acc = 0;
  kb.ref_ms = time_ms(
      [&] {
        acc = 0;
        for (int it = 0; it < kIters; ++it) {
          acc += kernels::scalar::and_count_words(a.data(), b.data(), kWords);
        }
      },
      reps);
  kb.counts_identical = acc == expected;

  kb.best_ms = -1.0;
  for (const kernels::Isa isa :
       {kernels::Isa::kScalar, kernels::Isa::kAvx2, kernels::Isa::kAvx512}) {
    if (!kernels::isa_supported(isa)) continue;
    const kernels::Kernels& k = kernels::table_for(isa);
    const double ms = time_ms(
        [&] {
          acc = 0;
          for (int it = 0; it < kIters; ++it) {
            acc += k.and_count_words(a.data(), b.data(), kWords);
          }
        },
        reps);
    if (acc != expected) kb.counts_identical = false;
    kb.per_isa_ms.emplace_back(k.name, ms);
    if (isa == kernels::Isa::kScalar) kb.scalar_ms = ms;
    if (kb.best_ms < 0.0 || ms < kb.best_ms) {
      kb.best_ms = ms;
      kb.best_isa = isa;
    }
  }
  kb.speedup = kb.best_ms > 0.0 ? kb.ref_ms / kb.best_ms : 0.0;
  kb.scalar_overhead = kb.ref_ms > 0.0 ? kb.scalar_ms / kb.ref_ms : 0.0;
  return kb;
}

bool results_identical(const PartitionResult& a, const PartitionResult& b) {
  if (a.partitions.size() != b.partitions.size()) return false;
  for (std::size_t i = 0; i < a.partitions.size(); ++i) {
    if (!(a.partitions[i] == b.partitions[i])) return false;
    if (!(a.masks[i] == b.masks[i])) return false;
  }
  if (a.history.size() != b.history.size()) return false;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    if (a.history[i].split_cell != b.history[i].split_cell) return false;
    if (a.history[i].accepted != b.history[i].accepted) return false;
  }
  return a.masked_x == b.masked_x && a.leaked_x == b.leaked_x &&
         a.total_bits == b.total_bits;
}

int run(const BenchOptions& opt) {
  // Geometry: chains x length closest to the requested cell count, with a
  // Table-1-like aspect ratio (hundreds of chains, hundreds of cells each).
  const std::size_t chains = opt.smoke ? 50 : 208;
  const std::size_t length =
      std::max<std::size_t>(1, opt.cells / chains);

  // Strongly inter-correlated X's (the paper's premise): cell clusters
  // share narrow pattern bands, so partitioning isolates bands and the
  // victim's member list shrinks round over round — the regime the
  // incremental engine is built for.
  WorkloadProfile profile;
  profile.name = "bench";
  profile.geometry = {chains, length};
  profile.num_patterns = opt.patterns;
  profile.x_density = opt.density;
  profile.clustered_fraction = 0.95;
  profile.cluster_cells_mean = std::max<std::size_t>(2, chains * length / 50);
  profile.cluster_patterns_mean = std::max<std::size_t>(2, opt.patterns / 25);
  profile.seed = opt.seed;
  const XMatrix xm = generate_workload(profile);

  // Exhaustive splitting with a round cap, so both implementations execute
  // the same number of rounds and the comparison is rounds-for-rounds.
  // Singleton groups keep the split tree deep past the point where the
  // clustered correlation structure is used up — the regime where the
  // per-round cost difference dominates.
  PartitionerConfig cfg;
  cfg.misr = {32, 7};
  cfg.stop_on_cost_increase = false;
  cfg.allow_singleton_groups = true;
  cfg.max_rounds = opt.rounds;
  cfg.seed = opt.seed;

  const int reps = opt.smoke ? 3 : 1;
  PartitionResult ref_result;
  const double ref_ms = time_ms(
      [&] { ref_result = partition_patterns_reference(xm, cfg); }, reps);

  PartitionResult engine_result;
  const double engine_ms = time_ms(
      [&] { engine_result = partition_patterns(xm, cfg); }, reps);

  double pooled_ms = 0.0;
  if (opt.threads > 1) {
    ThreadPool pool(opt.threads);
    pooled_ms = time_ms(
        [&] {
          const std::unique_ptr<XMatrixStore> store =
              make_store(xm, XmBackend::kCsr);
          PartitionEngine engine(*store, cfg, &pool);
          engine_result = engine.run();
        },
        reps);
  }

  // Per-backend sweep: same engine, same bits, different physical store.
  // Resident/mapped bytes come from the store's own accounting (the same
  // store.* gauges the telemetry run exports), peak RSS from the kernel.
  struct BackendSample {
    const char* name = "";
    double ms = 0.0;
    std::uint64_t resident_bytes = 0;
    std::uint64_t mapped_bytes = 0;
    long peak_rss_kb = 0;
    bool identical = false;
  };
  std::vector<BackendSample> backends;
  for (const XmBackend backend : {XmBackend::kCsr, XmBackend::kMmap}) {
    const std::unique_ptr<XMatrixStore> store = make_store(xm, backend);
    BackendSample sample;
    sample.name = store->backend_name();
    PartitionResult result;
    sample.ms = time_ms(
        [&] {
          PartitionEngine engine(*store, cfg);
          result = engine.run();
        },
        reps);
    const StoreStats stats = store->stats();
    sample.resident_bytes = stats.resident_bytes;
    sample.mapped_bytes = stats.mapped_bytes;
    sample.peak_rss_kb = peak_rss_kb();
    sample.identical = results_identical(ref_result, result);
    backends.push_back(sample);
  }

  // Per-ISA sweep: same engine, same store, different dispatch table. The
  // entry table is restored afterwards so the traced telemetry run below
  // measures whatever the operator selected (XH_ISA).
  struct IsaSample {
    const char* name = "";
    double ms = 0.0;
    bool identical = false;
  };
  std::vector<IsaSample> isa_samples;
  const kernels::Isa entry_isa = kernels::active().isa;
  {
    const std::unique_ptr<XMatrixStore> store = make_store(xm, XmBackend::kCsr);
    for (const kernels::Isa isa :
         {kernels::Isa::kScalar, kernels::Isa::kAvx2,
          kernels::Isa::kAvx512}) {
      if (!kernels::isa_supported(isa)) continue;
      kernels::select(isa);
      IsaSample sample;
      sample.name = kernels::active().name;
      PartitionResult result;
      sample.ms = time_ms(
          [&] {
            PartitionEngine engine(*store, cfg);
            result = engine.run();
          },
          reps);
      sample.identical = results_identical(ref_result, result);
      isa_samples.push_back(sample);
    }
    kernels::select(entry_isa);
  }

  const KernelBench kb = bench_kernels(opt.smoke ? 5 : 3);

  const bool identical = results_identical(ref_result, engine_result);
  const double speedup = engine_ms > 0.0 ? ref_ms / engine_ms : 0.0;
  const std::size_t rounds_run =
      ref_result.history.empty() ? 0 : ref_result.history.size() - 1;
  const double engine_rounds_per_sec =
      engine_ms > 0.0 ? 1000.0 * static_cast<double>(rounds_run) / engine_ms
                      : 0.0;

  std::printf(
      "{\n"
      "  \"workload\": {\"cells\": %zu, \"patterns\": %zu, \"total_x\": "
      "%llu, \"rounds\": %zu, \"partitions\": %zu},\n"
      "  \"reference_ms\": %.3f,\n"
      "  \"engine_ms\": %.3f,\n"
      "  \"engine_pool%zu_ms\": %.3f,\n"
      "  \"speedup\": %.2f,\n"
      "  \"engine_rounds_per_sec\": %.1f,\n"
      "  \"results_identical\": %s,\n"
      "  \"peak_rss_kb\": %ld,\n"
      "  \"backends\": {\n",
      chains * length, opt.patterns,
      static_cast<unsigned long long>(xm.total_x()), rounds_run,
      engine_result.num_partitions(), ref_ms, engine_ms, opt.threads,
      pooled_ms, speedup, engine_rounds_per_sec,
      identical ? "true" : "false", peak_rss_kb());
  for (std::size_t i = 0; i < backends.size(); ++i) {
    const BackendSample& b = backends[i];
    std::printf(
        "    \"%s\": {\"ms\": %.3f, \"resident_bytes\": %llu, "
        "\"mapped_bytes\": %llu, \"peak_rss_kb\": %ld, "
        "\"results_identical\": %s}%s\n",
        b.name, b.ms, static_cast<unsigned long long>(b.resident_bytes),
        static_cast<unsigned long long>(b.mapped_bytes), b.peak_rss_kb,
        b.identical ? "true" : "false",
        i + 1 < backends.size() ? "," : "");
  }
  std::printf("  },\n  \"isas\": {\n");
  for (std::size_t i = 0; i < isa_samples.size(); ++i) {
    const IsaSample& sample = isa_samples[i];
    std::printf(
        "    \"%s\": {\"ms\": %.3f, \"results_identical\": %s}%s\n",
        sample.name, sample.ms, sample.identical ? "true" : "false",
        i + 1 < isa_samples.size() ? "," : "");
  }
  std::printf(
      "  },\n"
      "  \"kernel\": {\"and_count_ref_ms\": %.3f, "
      "\"and_count_scalar_ms\": %.3f, \"and_count_best_ms\": %.3f, "
      "\"best_isa\": \"%s\", \"speedup\": %.2f, \"scalar_overhead\": %.3f, "
      "\"counts_identical\": %s}\n}\n",
      kb.ref_ms, kb.scalar_ms, kb.best_ms, kernels::isa_name(kb.best_isa),
      kb.speedup, kb.scalar_overhead, kb.counts_identical ? "true" : "false");

  if (!opt.trajectory_path.empty()) {
    // Machine-readable speedup trajectory: every backend's wall time
    // normalized against the SAME seed-oracle measurement, so successive
    // documents are comparable run over run (the per-PR trajectory the
    // checked-in bench/trajectory.json snapshots). Keys sorted, like the
    // xh-lint-findings document, so diffs are textual.
    std::ofstream tout(opt.trajectory_path);
    if (!tout) {
      std::fprintf(stderr, "cannot write %s\n", opt.trajectory_path.c_str());
      return 1;
    }
    tout << "{\n  \"backends\": {\n";
    for (std::size_t i = 0; i < backends.size(); ++i) {
      const BackendSample& b = backends[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "    \"%s\": {\"ms\": %.3f, \"results_identical\": %s, "
                    "\"speedup_vs_seed\": %.2f}%s\n",
                    b.name, b.ms, b.identical ? "true" : "false",
                    b.ms > 0.0 ? ref_ms / b.ms : 0.0,
                    i + 1 < backends.size() ? "," : "");
      tout << buf;
    }
    char mid[256];
    std::snprintf(mid, sizeof(mid),
                  "  },\n"
                  "  \"engine\": {\"ms\": %.3f, \"speedup_vs_seed\": %.2f},\n"
                  "  \"isas\": {\n",
                  engine_ms, speedup);
    tout << mid;
    for (std::size_t i = 0; i < isa_samples.size(); ++i) {
      const IsaSample& sample = isa_samples[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "    \"%s\": {\"ms\": %.3f, \"results_identical\": %s, "
                    "\"speedup_vs_seed\": %.2f}%s\n",
                    sample.name, sample.ms,
                    sample.identical ? "true" : "false",
                    sample.ms > 0.0 ? ref_ms / sample.ms : 0.0,
                    i + 1 < isa_samples.size() ? "," : "");
      tout << buf;
    }
    char tail[768];
    std::snprintf(
        tail, sizeof(tail),
        "  },\n"
        "  \"kernel\": {\"and_count_best_ms\": %.3f, "
        "\"and_count_ref_ms\": %.3f, \"and_count_scalar_ms\": %.3f, "
        "\"best_isa\": \"%s\", \"scalar_overhead\": %.3f, "
        "\"speedup\": %.2f},\n"
        "  \"reference_ms\": %.3f,\n"
        "  \"schema\": \"xh-bench-trajectory/1\",\n"
        "  \"workload\": {\"cells\": %zu, \"patterns\": %zu, \"rounds\": "
        "%zu, \"seed\": %llu, \"total_x\": %llu}\n"
        "}\n",
        kb.best_ms, kb.ref_ms, kb.scalar_ms, kernels::isa_name(kb.best_isa),
        kb.scalar_overhead, kb.speedup, ref_ms, chains * length, opt.patterns,
        rounds_run, static_cast<unsigned long long>(opt.seed),
        static_cast<unsigned long long>(xm.total_x()));
    tout << tail;
    std::fprintf(stderr, "trajectory written to %s\n",
                 opt.trajectory_path.c_str());
  }

  if (!opt.telemetry_path.empty()) {
    // One traced, untimed engine run: the engine.* counters are pure
    // functions of the workload (golden-diffable), while tracing inside the
    // timed reps above would distort the very numbers being measured.
    Trace trace;
    {
      const std::unique_ptr<XMatrixStore> store =
          make_store(xm, opt.xm_backend);
      PartitionEngine engine(*store, cfg, nullptr, &trace);
      const PartitionResult traced = engine.run();
      if (!results_identical(engine_result, traced)) {
        std::fprintf(stderr, "FAIL: traced run differs from untraced run\n");
        return 1;
      }
      // store.probe_* totals are a pure function of the engine's work, so
      // they golden-diff; pages_touched is backend-shaped and excluded.
      export_store_telemetry(*store, &trace);
    }
    obs_count(&trace, "bench.cells", chains * length);
    obs_count(&trace, "bench.patterns", opt.patterns);
    obs_count(&trace, "bench.total_x", xm.total_x());
    obs_count(&trace, "bench.rounds", rounds_run);
    obs_count(&trace, "bench.partitions", engine_result.num_partitions());
    obs_count(&trace, "bench.results_identical", identical ? 1 : 0);
    obs_gauge(&trace, "bench.reference_ms", ref_ms);
    obs_gauge(&trace, "bench.engine_ms", engine_ms);
    obs_gauge(&trace, "bench.engine_pooled_ms", pooled_ms);
    obs_gauge(&trace, "bench.speedup", speedup);
    obs_gauge(&trace, "bench.engine_rounds_per_sec", engine_rounds_per_sec);
    obs_gauge(&trace, "bench.peak_rss_kb",
              static_cast<double>(peak_rss_kb()));
    for (const BackendSample& b : backends) {
      const BackendGaugeNames names = backend_gauge_names(b.name);
      obs_gauge(&trace, names.ms, b.ms);
      obs_gauge(&trace, names.resident_bytes,
                static_cast<double>(b.resident_bytes));
      obs_gauge(&trace, names.mapped_bytes,
                static_cast<double>(b.mapped_bytes));
      obs_gauge(&trace, names.peak_rss_kb,
                static_cast<double>(b.peak_rss_kb));
    }
    // Kernel microbench gauges (wall-clock, excluded from the counter
    // diff); best_isa ships as its numeric enum value since gauges are
    // doubles.
    obs_gauge(&trace, "bench.kernel_and_count_ref_ms", kb.ref_ms);
    obs_gauge(&trace, "bench.kernel_and_count_scalar_ms", kb.scalar_ms);
    obs_gauge(&trace, "bench.kernel_and_count_best_ms", kb.best_ms);
    obs_gauge(&trace, "bench.kernel_best_isa",
              static_cast<double>(static_cast<int>(kb.best_isa)));
    obs_gauge(&trace, "bench.kernel_speedup", kb.speedup);
    obs_gauge(&trace, "bench.kernel_scalar_overhead", kb.scalar_overhead);
    kernels::export_kernel_telemetry(&trace);
    std::ofstream out(opt.telemetry_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.telemetry_path.c_str());
      return 1;
    }
    TelemetryMeta meta;
    meta.tool = "bench_partitioner";
    meta.run = {{"smoke", opt.smoke ? "true" : "false"},
                {"seed", std::to_string(opt.seed)},
                {"threads", std::to_string(opt.threads)}};
    write_telemetry_json(out, trace, meta);
    std::fprintf(stderr, "telemetry written to %s\n",
                 opt.telemetry_path.c_str());
  }

  if (!identical) {
    std::fprintf(stderr, "FAIL: engine result differs from the seed\n");
    return 1;
  }
  for (const BackendSample& b : backends) {
    if (!b.identical) {
      std::fprintf(stderr,
                   "FAIL: %s backend result differs from the seed\n", b.name);
      return 1;
    }
  }
  // Cross-ISA bit-identity is unconditional: a vectorized tier that
  // diverges from the seed result is a correctness bug, not a perf issue.
  for (const IsaSample& sample : isa_samples) {
    if (!sample.identical) {
      std::fprintf(stderr,
                   "FAIL: %s kernel ISA result differs from the seed\n",
                   sample.name);
      return 1;
    }
  }
  if (!kb.counts_identical) {
    std::fprintf(stderr,
                 "FAIL: kernel microbench counts diverge across ISA tiers\n");
    return 1;
  }
  if (opt.smoke && speedup < 3.0) {
    std::fprintf(stderr, "FAIL: smoke speedup %.2fx below the 3x gate\n",
                 speedup);
    return 1;
  }
  if (opt.smoke) {
    const bool has_vector_tier =
        kernels::isa_supported(kernels::Isa::kAvx2) ||
        kernels::isa_supported(kernels::Isa::kAvx512);
    if (!has_vector_tier) {
      std::fprintf(stderr,
                   "warn: no vectorized kernel tier on this CPU; skipping "
                   "the 2x kernel speedup gate\n");
    } else if (kb.speedup < 2.0) {
      std::fprintf(stderr,
                   "FAIL: best kernel tier (%s) is %.2fx over the inline "
                   "scalar reference, below the 2x gate\n",
                   kernels::isa_name(kb.best_isa), kb.speedup);
      return 1;
    }
    if (kb.scalar_overhead > 1.05) {
      std::fprintf(stderr,
                   "FAIL: dispatched scalar table is %.3fx the inline "
                   "reference, above the 1.05x indirection budget\n",
                   kb.scalar_overhead);
      return 1;
    }
  }
  if (opt.smoke) {
    // The out-of-core gate: the mapped store must keep strictly less of the
    // X-matrix resident than the in-memory CSR snapshot. Both numbers are
    // the stores' own accounting — the same values exported as the
    // store.resident_bytes gauge.
    const BackendSample* csr = nullptr;
    const BackendSample* mmap = nullptr;
    for (const BackendSample& b : backends) {
      if (std::string(b.name) == "csr") csr = &b;
      if (std::string(b.name) == "mmap") mmap = &b;
    }
    if (csr == nullptr || mmap == nullptr) {
      std::fprintf(stderr, "FAIL: backend sweep missing csr or mmap sample\n");
      return 1;
    }
    if (mmap->resident_bytes >= csr->resident_bytes) {
      std::fprintf(stderr,
                   "FAIL: mmap resident footprint %llu B is not below the "
                   "CSR snapshot's %llu B\n",
                   static_cast<unsigned long long>(mmap->resident_bytes),
                   static_cast<unsigned long long>(csr->resident_bytes));
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace xh

int main(int argc, char** argv) {
  xh::BenchOptions opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--cells") {
        opt.cells = xh::parse_size(next());
      } else if (arg == "--patterns") {
        opt.patterns = xh::parse_size(next());
      } else if (arg == "--density") {
        opt.density = xh::parse_f64(next());
      } else if (arg == "--rounds") {
        opt.rounds = xh::parse_size(next());
      } else if (arg == "--threads") {
        opt.threads = xh::parse_size(next());
      } else if (arg == "--seed") {
        opt.seed = xh::parse_u64(next());
      } else if (arg == "--telemetry") {
        opt.telemetry_path = next();
      } else if (arg == "--trajectory") {
        opt.trajectory_path = next();
      } else if (arg == "--xm-backend") {
        const char* text = next();
        if (!xh::parse_xm_backend(text, &opt.xm_backend)) {
          std::fprintf(stderr,
                       "error: --xm-backend: unknown backend '%s' "
                       "(expected auto|csr|mmap)\n",
                       text);
          return 2;
        }
      } else if (arg == "--smoke") {
        opt.smoke = true;
        opt.cells = 20'000;
        opt.patterns = 1'000;
        opt.density = 0.02;
        opt.rounds = 16;
      } else {
        std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return xh::run(opt);
}
