// Structured diagnostics for the robustness layer.
//
// The pipeline distinguishes three error families (see DESIGN.md §7):
//   * caller misuse            → XH_REQUIRE / std::invalid_argument
//   * internal invariant break → XH_ASSERT / std::logic_error
//   * data mismatch            → a Diagnostic record in this collector
// The third family covers everything silicon can do to us that simulation
// did not predict: undeclared X's, predicted X's that came back
// deterministic, truncated or garbled serialized inputs, starved Gaussian
// extractions. Those are *expected* at production scale and must be
// reported and recovered from, not thrown through the stack.
//
// Modules accept an optional `Diagnostics*`; passing nullptr selects the
// legacy strict behavior (mismatches become exceptions where they were
// before). Record retention is capped per kind so an O(total_x) mismatch
// storm cannot exhaust memory — counts stay exact past the cap.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xh {

enum class DiagSeverity : std::uint8_t { kInfo = 0, kWarning = 1, kError = 2 };

/// Machine-readable classification of every condition the robustness layer
/// can report. Keep in sync with diag_kind_name().
enum class DiagKind : std::uint8_t {
  // Response-vs-declared-X mismatch family.
  kUndeclaredX = 0,      // silicon X where simulation predicted a value
  kMissingX,             // predicted X came back deterministic
  kMaskHidesValue,       // partition mask covers an observable cell
  kAccountingMismatch,   // leaked-X prediction != residual X after masking
  // X-canceling session family.
  kContaminatedCombination,  // selection vector fails the X-freeness re-check
  kExtractionStarved,        // fewer than q X-free combinations at a stop
  kExtractionRecovered,      // an earlier signature deficit was made up
  kSignatureDeficit,         // session finished with signature bits missing
  // Serialized-input family.
  kTruncatedInput,
  kGarbledInput,
  kDuplicateRecord,
  kTrailingGarbage,
  kStreamFailure,
  // Netlist family.
  kNetlistParseError,
  // CLI / configuration family.
  kBadArgument,
  // Service family (src/service): admission, deadlines, checkpoints.
  kOverloaded,         // job rejected by queue-depth backpressure
  kDeadlineExceeded,   // job stopped at a round boundary, best-so-far kept
  kCheckpointCorrupt,  // checkpoint failed validation; resuming from scratch
  kNumKinds_,  // sentinel, not reportable
};

const char* diag_kind_name(DiagKind kind);
const char* diag_severity_name(DiagSeverity severity);

struct Diagnostic {
  DiagSeverity severity = DiagSeverity::kInfo;
  DiagKind kind = DiagKind::kBadArgument;
  std::string location;  // e.g. "file.xm:12", "pattern 3 cell 17", "stop 2"
  std::string message;

  /// "error [undeclared-x] pattern 3 cell 17: ..." — one line, greppable.
  std::string to_string() const;
};

/// Append-only diagnostic collector threaded through the pipeline.
class [[nodiscard]] Diagnostics {
 public:
  /// Records retained per kind; further reports of that kind only count.
  static constexpr std::size_t kMaxRecordsPerKind = 64;

  void report(DiagSeverity severity, DiagKind kind, std::string location,
              std::string message);

  void info(DiagKind kind, std::string location, std::string message) {
    report(DiagSeverity::kInfo, kind, std::move(location), std::move(message));
  }
  void warn(DiagKind kind, std::string location, std::string message) {
    report(DiagSeverity::kWarning, kind, std::move(location),
           std::move(message));
  }
  void error(DiagKind kind, std::string location, std::string message) {
    report(DiagSeverity::kError, kind, std::move(location),
           std::move(message));
  }

  /// Retained records (capped per kind), in report order.
  const std::vector<Diagnostic>& records() const { return records_; }

  /// Exact number of reports of @p kind, including suppressed ones.
  std::size_t count(DiagKind kind) const;
  /// Exact number of reports at @p severity, including suppressed ones.
  std::size_t count(DiagSeverity severity) const;
  std::size_t total() const;

  bool has_errors() const { return count(DiagSeverity::kError) > 0; }
  bool has_warnings() const { return count(DiagSeverity::kWarning) > 0; }
  bool empty() const { return total() == 0; }

  /// Multi-line human-readable dump: one line per retained record plus a
  /// suppression summary for kinds that overflowed the retention cap.
  std::string render() const;

  void clear();

 private:
  std::vector<Diagnostic> records_;
  std::array<std::size_t, static_cast<std::size_t>(DiagKind::kNumKinds_)>
      kind_counts_{};
  std::array<std::size_t, 3> severity_counts_{};
};

/// No-op-on-null convenience used by modules that accept `Diagnostics*`.
inline void diag_report(Diagnostics* diags, DiagSeverity severity,
                        DiagKind kind, std::string location,
                        std::string message) {
  if (diags != nullptr) {
    diags->report(severity, kind, std::move(location), std::move(message));
  }
}

}  // namespace xh
