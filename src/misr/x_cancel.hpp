// X-canceling MISR session (Yang & Touba [12,13], time-multiplexed variant).
//
// Captured slices stream into the MISR. X values are tracked symbolically;
// whenever the number of distinct X's accumulated since the last stop reaches
// m − q, scan shifting halts, Gaussian elimination finds q X-free
// combinations of the m signature bits, their values are read out, and the
// MISR restarts. Each stop costs m·q control bits from the tester (the q
// selection vectors) and one halt of the scan clock (test-time overhead).
//
// Robustness (DESIGN.md §7): an X burst can overshoot the m−q budget and
// leave a stop fewer than q X-free combinations (*extraction starvation*);
// the deficit lowers the stop threshold until it is repaid. A corrupted
// selection vector fails the X-freeness re-check (*contamination*): dropped
// and reported with a Diagnostics collector, std::logic_error without one.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "gf2/lfsr.hpp"
#include "obs/trace.hpp"
#include "response/response_matrix.hpp"
#include "sim/logic.hpp"
#include "util/bitvec.hpp"
#include "util/check.hpp"
#include "util/diagnostics.hpp"

namespace xh {

class Gf2Matrix;

/// MISR configuration shared by simulation and accounting.
struct MisrConfig {
  std::size_t size = 32;  // m
  std::size_t q = 7;      // X-free combinations extracted per stop

  void validate() const {
    XH_REQUIRE(size >= 2 && size <= 64, "MISR size must be in [2,64]");
    XH_REQUIRE(q >= 1 && q < size, "q must satisfy 1 <= q < m");
  }
};

/// One extracted X-free signature bit.
struct SignatureBit {
  std::size_t stop_index = 0;
  BitVec combination;  // selection over the m MISR bits
  bool value = false;  // the X-canceled observation
};

/// Session outcome.
struct XCancelResult {
  std::size_t stops = 0;
  std::size_t shift_cycles = 0;
  std::size_t total_x_seen = 0;
  /// Shift-cycle index after which each stop occurred (size() == stops);
  /// lets callers replay segmentation and model halt timing.
  std::vector<std::size_t> stop_cycles;
  std::vector<SignatureBit> signature;

  /// Selection vectors actually streamed from the tester (q per healthy
  /// stop; fewer at starved stops, more at recovery stops).
  std::size_t selection_vectors = 0;
  /// Stops that yielded fewer than q verified X-free combinations.
  std::size_t starved_stops = 0;
  /// Combinations dropped because they failed the X-freeness re-check.
  std::size_t contaminated_dropped = 0;
  /// Combinations extracted beyond q at later stops to repay a deficit.
  std::size_t extra_combinations = 0;
  /// Signature bits still missing versus the q-per-stop plan at finish().
  std::size_t signature_deficit = 0;

  /// No recovery path engaged: every stop delivered its full q bits and no
  /// combination had to be dropped.
  bool healthy() const {
    return starved_stops == 0 && contaminated_dropped == 0 &&
           signature_deficit == 0;
  }

  /// Tester data for the selective-XOR network: m bits per streamed
  /// selection vector (equals stops·m·q when no recovery path engaged).
  std::size_t control_bits(const MisrConfig& cfg) const {
    return selection_vectors * cfg.size;
  }
};

/// Streaming X-canceling MISR simulator.
///
/// Feed captured slices (one Lv per MISR input stage) with shift(); call
/// finish() once at the end to flush the final partial segment. The extracted
/// signature bits are provably X-free: each combination's dependency on every
/// X symbol cancels, which the session verifies before emitting the bit.
/// State is fixed-width (DESIGN.md §6): the concrete MISR is one word, and
/// the stages' X-dependency rows are two words each, in a rotating ring.
class XCancelSession {
 public:
  /// The optional trace receives xcancel.* counters (eliminations, rows
  /// examined, combinations emitted/dropped, starvation repayments);
  /// nullptr means no instrumentation. Counters are resolved here: do not
  /// clear the trace while the session lives.
  explicit XCancelSession(MisrConfig cfg, Diagnostics* diags = nullptr,
                          Trace* trace = nullptr);

  const MisrConfig& config() const { return cfg_; }

  /// One scan shift cycle. @p slice must have cfg.size entries; Z is not a
  /// capturable value.
  void shift(const std::vector<Lv>& slice);

  /// The same cycle packed: bit i of @p xs marks stage i X, bit i of @p ones
  /// a captured 1 (ignored under an X). Bits from cfg.size up must be clear.
  void shift(std::uint64_t ones, std::uint64_t xs);

  /// Flushes the trailing segment (extracts final combinations) and returns
  /// the result. The session can keep shifting afterwards only after reset().
  const XCancelResult& finish();

  void reset();

  /// Fault-injection hook (src/inject): invoked at every extraction with the
  /// candidate selection vectors and the segment's X-dependency rows, before
  /// verification. Tampered combinations exercise the contamination-drop
  /// recovery path deterministically. With a hook installed, contamination is
  /// always dropped-and-reported, never thrown.
  using CombinationTamper =
      std::function<void(std::vector<BitVec>& combinations,
                         const Gf2Matrix& xdeps)>;
  void install_combination_tamper(CombinationTamper hook) {
    tamper_ = std::move(hook);
  }

 private:
  void extract(bool final_flush);
  /// Nominal m − q, lowered by the outstanding deficit so the next stop's
  /// null space has room for the owed bits; self-restores on repayment.
  std::size_t stop_threshold() const {
    const std::size_t budget = cfg_.size - cfg_.q;
    return budget > deficit_ ? budget - deficit_ : 1;
  }

  /// Appends the signature bit of @p combination (bit i selects stage i).
  void emit(std::uint64_t combination);
  /// Ring slot of stage @p i.
  std::size_t slot(std::size_t i) const {
    return head_ + i < cfg_.size ? head_ + i : head_ + i - cfg_.size;
  }

  /// One stage's dependency on the segment's X symbols (bit s = symbol s). A
  /// stop fires by m − q symbols and a slice adds at most m, so two words
  /// hold segment_x_ <= 2m − q − 1 <= 126.
  using XRow = std::array<std::uint64_t, 2>;

  MisrConfig cfg_;
  std::uint64_t feedback_ = 1;   // stage 0 plus the polynomial's taps
  std::uint64_t concrete_ = 0;   // X read as 0 — sound for X-free combos
  std::array<XRow, 64> xdep_{};  // ring: stage i lives in slot(i)
  std::size_t head_ = 0;         // slot of stage 0
  std::size_t segment_x_ = 0;    // symbols allocated in current segment
  std::size_t deficit_ = 0;      // signature bits owed from starved stops
  XCancelResult result_;
  bool finished_ = false;
  Diagnostics* diags_ = nullptr;
  Trace* trace_ = nullptr;
  TraceCounterHandle shift_cycles_, x_seen_, eliminations_, elimination_rows_,
      recheck_rows_, emitted_, dropped_, starved_, repaid_, stops_;
  CombinationTamper tamper_;
};

/// Convenience driver: shifts an entire response matrix through an
/// X-canceling MISR. Chains map to MISR stages round-robin
/// (stage = chain mod m, a spatial XOR compactor when chains > m; X's that
/// meet in one stage enter as one X); cells shift out position 0 first.
[[nodiscard]] XCancelResult run_x_canceling(const ResponseMatrix& response,
                                            MisrConfig cfg,
                                            Diagnostics* diags = nullptr,
                                            Trace* trace = nullptr);

}  // namespace xh
