// Shared execution context of the analysis pipeline.
//
// Before the engine layer existed, every stage grew its own plumbing: a
// config wrapper around a PartitionerConfig wrapping a MisrConfig, a raw
// Diagnostics* threaded hand-to-hand through hybrid → partitioner →
// x_cancel → masking → response IO, and ad-hoc Rng construction at each
// stochastic site. PipelineContext bundles all of it once:
//
//   * the partitioning/cost configuration (which embeds the MISR shape),
//   * the diagnostics routing — strict (mismatches throw, the legacy
//     default), lenient (collected into an owned Diagnostics), or adopted
//     (collected into a caller-owned Diagnostics),
//   * the observability routing — an optional xh::Trace every instrumented
//     stage reports counters/spans into (nullptr = observability off),
//   * a deterministic Rng seeded from the configured seed,
//   * an optional ThreadPool the engine fans cell analysis out on.
//
// A context is one pipeline run's ambient state; it is cheap to construct
// and not thread-safe itself (the pool parallelism happens *inside* engine
// calls, which only read the context).
#pragma once

#include "engine/partition_types.hpp"
#include "misr/x_cancel.hpp"
#include "obs/trace.hpp"
#include "storage/x_matrix_store.hpp"
#include "util/cancel_token.hpp"
#include "util/diagnostics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace xh {

class PipelineContext {
 public:
  PipelineContext() : rng_(partitioner.seed) {}
  explicit PipelineContext(PartitionerConfig cfg, ThreadPool* pool = nullptr)
      : partitioner(std::move(cfg)), pool_(pool), rng_(partitioner.seed) {}

  // Non-copyable: the sink may point at the owned collector, which a
  // default copy/move would silently re-target to the source's.
  PipelineContext(const PipelineContext&) = delete;
  PipelineContext& operator=(const PipelineContext&) = delete;

  PartitionerConfig partitioner;

  const MisrConfig& misr() const { return partitioner.misr; }

  /// Collector the pipeline reports data mismatches into, or nullptr in
  /// strict mode (the legacy throw-on-mismatch contract).
  Diagnostics* collector() { return sink_; }

  /// Lenient mode: mismatches are recorded in the owned collector and the
  /// pipeline degrades gracefully.
  ///
  /// Precedence: an explicitly adopted caller-owned collector always wins.
  /// Calling be_lenient() after adopt_collector(non-null) used to silently
  /// re-target the sink to the owned collector, losing every later record
  /// from the caller's view; now the adopted collector stays active and the
  /// double-set itself is diagnosed into it as a kBadArgument warning.
  void be_lenient() {
    if (adopted_) {
      sink_->warn(DiagKind::kBadArgument, "pipeline context",
                  "be_lenient() after adopt_collector(): the adopted "
                  "collector keeps precedence; call adopt_collector(nullptr) "
                  "first to release it");
      return;
    }
    sink_ = &owned_;
  }
  /// Adopts a caller-owned collector (compatibility with the Diagnostics*
  /// APIs). Passing nullptr releases any adopted collector and returns to
  /// strict mode. Explicit adoption takes precedence over be_lenient().
  void adopt_collector(Diagnostics* diags) {
    sink_ = diags;
    adopted_ = diags != nullptr;
  }

  /// The owned collector (meaningful after be_lenient()).
  const Diagnostics& diagnostics() const { return owned_; }

  /// Observability sink every instrumented stage reports into, or nullptr
  /// when observability is off (the zero-overhead default). Not owned.
  Trace* trace() const { return trace_; }
  void set_trace(Trace* trace) { trace_ = trace; }

  /// Optional worker pool; nullptr runs every stage serially. Results are
  /// identical either way. Not owned.
  ThreadPool* pool() const { return pool_; }
  void set_pool(ThreadPool* pool) { pool_ = pool; }

  /// Optional cooperative stop token the engine polls at round boundaries;
  /// nullptr means the run can never be interrupted. Not owned. A stop
  /// yields the best-so-far prefix (PartitionResult::interrupted == true),
  /// never a broken result.
  const CancelToken* cancel() const { return cancel_; }
  void set_cancel(const CancelToken* token) { cancel_ = token; }

  /// X-matrix store placement the pipeline freezes the matrix into.
  /// kAuto (the default) picks per workload via resolve_xm_backend();
  /// results are bit-identical for every placement, so this is purely a
  /// footprint knob.
  XmBackend xm_backend() const { return xm_backend_; }
  void set_xm_backend(XmBackend backend) { xm_backend_ = backend; }

  /// Context-wide deterministic generator, seeded from partitioner.seed.
  Rng& rng() { return rng_; }

 private:
  ThreadPool* pool_ = nullptr;
  const CancelToken* cancel_ = nullptr;
  Diagnostics owned_;
  Diagnostics* sink_ = nullptr;
  bool adopted_ = false;  // sink_ points at a caller-owned collector
  Trace* trace_ = nullptr;
  XmBackend xm_backend_ = XmBackend::kAuto;
  Rng rng_;
};

}  // namespace xh
