// Observability spine: metrics and tracing for the analysis pipeline.
//
// The paper's whole argument is an accounting identity —
//   TotalBits = L·C·#Partitions + m·q·X_leaked/(m−q)
// — and xh::Trace is the runtime ledger that proves where those bits,
// Gaussian-elimination row operations and partitioner probe rejections
// actually go. One Trace instance is threaded through PipelineContext the
// same way Diagnostics already is: nullptr means off, and every
// instrumentation helper below degrades to a branch on a null pointer.
//
// Instrument families:
//   * counters    — monotonic uint64 totals, registered by name
//   * gauges      — last-write-wins doubles (workload facts, derived ratios)
//   * histograms  — power-of-two bucketed uint64 samples (size distributions)
//   * spans       — hierarchical scoped timers; nested ScopedSpans join
//                   their names into a "parent/child" path
//
// Determinism: counter/gauge/histogram values are pure functions of the
// input data and configuration — they are safe to golden-test. Span timers
// read the steady clock; their *values* are wall-clock noise by design, but
// they feed exclusively into telemetry output, never back into any
// computation (the XH-DET-001 suppression proof lives in trace.cpp).
//
// Threading: a Trace is owned by one pipeline thread and is NOT internally
// synchronized. Stages that fan work out across a ThreadPool must count at
// their deterministic merge points, not inside pool tasks.
//
// Compile-time off switch: building with -DXH_OBS_NOOP selects no-op
// instrumentation helpers (empty handle types, empty ScopedSpan) so every
// call site compiles to nothing. The helpers live in a distinct inline
// namespace per mode, so mixed translation units cannot collide; a class
// that stores handles (XCancelSession) changes layout with the mode, so
// every unit including it must share one. The Trace registry class itself
// is always real — telemetry consumers keep working.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace xh {

/// Monotonic event total.
struct TraceCounter {
  std::uint64_t value = 0;
};

/// Last-write-wins measurement (workload facts, derived ratios).
struct TraceGauge {
  double value = 0.0;
};

/// Power-of-two bucketed uint64 samples: bucket 0 counts zeros, bucket i>0
/// counts samples in [2^(i-1), 2^i).
struct TraceHistogram {
  static constexpr std::size_t kBuckets = 65;

  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  void record(std::uint64_t v);

  /// Lower bound of bucket @p i (0, then 2^(i-1)).
  static std::uint64_t bucket_lo(std::size_t i) {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
};

/// Accumulated wall-clock time of one span path.
struct TraceTimer {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;

  double total_ms() const { return static_cast<double>(total_ns) / 1e6; }
  double max_ms() const { return static_cast<double>(max_ns) / 1e6; }
};

/// Named-instrument registry. Names are stable identifiers (the canonical
/// list lives in README "Telemetry"); registries are ordered maps so every
/// serialization of the same run is byte-identical.
class Trace {
 public:
  TraceCounter& counter(std::string_view name);
  TraceGauge& gauge(std::string_view name);
  TraceHistogram& histogram(std::string_view name);

  /// Span bookkeeping (normally driven by ScopedSpan, not called directly).
  /// Enter pushes "parent/child" onto the path stack; exit pops and folds
  /// the elapsed time into the timer registered under the joined path.
  void span_enter(std::string_view name);
  void span_exit(std::uint64_t elapsed_ns);
  std::size_t open_spans() const { return span_stack_.size(); }

  const std::map<std::string, TraceCounter, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, TraceGauge, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, TraceHistogram, std::less<>>& histograms()
      const {
    return histograms_;
  }
  const std::map<std::string, TraceTimer, std::less<>>& timers() const {
    return timers_;
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty() &&
           timers_.empty();
  }
  void clear();

 private:
  std::map<std::string, TraceCounter, std::less<>> counters_;
  std::map<std::string, TraceGauge, std::less<>> gauges_;
  std::map<std::string, TraceHistogram, std::less<>> histograms_;
  std::map<std::string, TraceTimer, std::less<>> timers_;
  std::vector<std::string> span_stack_;
};

#ifndef XH_OBS_NOOP

/// Live instrumentation. A distinct inline namespace per mode keeps the
/// one-definition rule intact when some translation units build with
/// XH_OBS_NOOP and others do not.
inline namespace obs_live {

/// Pre-resolved counter handle for hot loops: one registry lookup up front,
/// then a null-checked increment per event.
using TraceCounterHandle = TraceCounter*;

inline TraceCounterHandle obs_counter(Trace* trace, std::string_view name) {
  return trace != nullptr ? &trace->counter(name) : nullptr;
}
inline void obs_add(TraceCounterHandle handle, std::uint64_t n = 1) {
  if (handle != nullptr) handle->value += n;
}

/// Pre-resolved histogram handle, likewise.
using TraceHistogramHandle = TraceHistogram*;

inline TraceHistogramHandle obs_histogram(Trace* trace,
                                          std::string_view name) {
  return trace != nullptr ? &trace->histogram(name) : nullptr;
}
inline void obs_record(TraceHistogramHandle handle, std::uint64_t sample) {
  if (handle != nullptr) handle->record(sample);
}

/// One-shot conveniences (cold paths; one registry lookup per call).
inline void obs_count(Trace* trace, std::string_view name,
                      std::uint64_t n = 1) {
  if (trace != nullptr) trace->counter(name).value += n;
}
inline void obs_gauge(Trace* trace, std::string_view name, double value) {
  if (trace != nullptr) trace->gauge(name).value = value;
}
inline void obs_record(Trace* trace, std::string_view name,
                       std::uint64_t sample) {
  if (trace != nullptr) trace->histogram(name).record(sample);
}

/// Scoped hierarchical timer. Construction enters a span; destruction exits
/// it and folds the elapsed steady-clock time into the joined-path timer.
/// With a null trace both ends are no-ops.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string_view name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace* trace_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace obs_live

#else  // XH_OBS_NOOP

/// Compiled-out instrumentation: empty handles, empty bodies. Every helper
/// still type-checks against the live signatures, so instrumented code
/// builds unchanged; tests/obs/obs_noop_test.cpp asserts this surface stays
/// zero-state and zero-size.
inline namespace obs_noop {

struct TraceCounterHandle {};

inline TraceCounterHandle obs_counter(Trace*, std::string_view) {
  return {};
}
inline void obs_add(TraceCounterHandle, std::uint64_t = 1) {}

struct TraceHistogramHandle {};

inline TraceHistogramHandle obs_histogram(Trace*, std::string_view) {
  return {};
}
inline void obs_record(TraceHistogramHandle, std::uint64_t) {}

inline void obs_count(Trace*, std::string_view, std::uint64_t = 1) {}
inline void obs_gauge(Trace*, std::string_view, double) {}
inline void obs_record(Trace*, std::string_view, std::uint64_t) {}

class ScopedSpan {
 public:
  ScopedSpan(Trace*, std::string_view) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

}  // namespace obs_noop

#endif  // XH_OBS_NOOP

}  // namespace xh
