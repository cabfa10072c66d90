// The frozen X matrix the partition engine probes (DESIGN.md §12).
//
// The partitioner (paper Section 4, Algorithm 1) asks three things about a
// cell inside a partition: its X count there (count_in), the FNV-1a group
// key of its pattern set there (hash_in), and that set itself
// (intersect_into). XMatrixStore answers exactly those probes over the
// XMatrix's CSR rows, read in place:
//
//   cells  [r]                       cell id of row r (ascending)
//   counts [r]                       X count of row r (precomputed)
//   words  [r*W .. r*W + W)          row r's pattern-membership words
//
// The store borrows the XMatrix's own block, not a copy: the matrix must
// outlive the store (moving the matrix keeps the block where it is), and
// store.resident_bytes counts the bytes the store reads.
//
// count_in and hash_in take the subset as a PatternView, built once per
// analysis, and read only the words [lo, hi) the subset spans. hash_in
// still returns the seed partitioner's set_hash, which folds every word
// through the FNV-1a step: a step on a zero word is one multiply by the
// prime, so the view carries the products for the words outside [lo, hi).
//
// The probes are pure reads. A store is an immutable value: concurrent
// readers (the engine's thread-pool fan-out) need no synchronization. The
// probe accounting is the caller's: the engine adds its tallies through
// note_probes() where its work joins (once per analysis, per round and per
// materialize()), so the totals are a pure function of the engine's work,
// not of the thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "kernels/kernels.hpp"
#include "response/geometry.hpp"
#include "response/x_matrix.hpp"
#include "util/bitvec.hpp"

namespace xh {

class Trace;

/// A pattern subset prepared for count_in and hash_in. It borrows the
/// subset's words (the BitVec must outlive the view) and holds the range
/// [lo, hi) outside which every one of them is zero, empty for the empty
/// subset. FNV-1a folds a zero word as h *= P, so the hash of the W words
/// is the fold of [lo, hi) started from basis·P^lo and multiplied by
/// P^(W−hi) at the end. Built once per analysis and shared read-only by
/// every probe of it.
struct PatternView {
  static constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

  explicit PatternView(const BitVec& patterns);
  explicit PatternView(BitVec&&) = delete;  // would borrow a temporary

  const std::uint64_t* words = nullptr;
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::uint64_t hash_seed = kFnvBasis;  // basis·P^lo
  std::uint64_t hash_tail = 1;          // P^(W−hi)
};

/// Point-in-time snapshot of one store's probe/footprint accounting.
/// Probe counters are deterministic for a deterministic engine run.
struct StoreStats {
  std::uint64_t probe_count_in = 0;
  std::uint64_t probe_hash_in = 0;
  std::uint64_t probe_intersect = 0;
  std::uint64_t rows_touched = 0;    // sum of the three probe counters
  std::uint64_t resident_bytes = 0;  // the rows read: 8·rows·(2 + W)
};

class XMatrixStore final {
 public:
  /// Probes @p xm's rows in place; O(1). @p xm must outlive the store.
  explicit XMatrixStore(const XMatrix& xm);
  explicit XMatrixStore(XMatrix&&) = delete;  // would borrow a temporary

  // Pinned by reference in the engine; a copy would fork the accounting.
  XMatrixStore(const XMatrixStore&) = delete;
  XMatrixStore& operator=(const XMatrixStore&) = delete;

  const ScanGeometry& geometry() const { return geometry_; }
  std::size_t num_patterns() const { return num_patterns_; }
  std::size_t num_cells() const { return geometry_.num_cells(); }
  std::uint64_t total_x() const { return total_x_; }

  /// Rows = X-capturing cells, ascending by cell id.
  std::size_t num_rows() const { return num_rows_; }
  std::size_t cell_id(std::size_t row) const { return cells_[row]; }
  /// X count of the row across all patterns.
  std::size_t x_count(std::size_t row) const { return counts_[row]; }
  std::size_t words_per_row() const { return words_per_row_; }
  const std::uint64_t* row_words(std::size_t row) const {
    return words_ + row * words_per_row_;
  }

  /// popcount(row & patterns): the row's X count inside a pattern subset
  /// of num_patterns() patterns. Reads only the words the subset spans.
  std::size_t count_in(std::size_t row, const PatternView& patterns) const {
    return kernels::active().and_count_words(row_words(row) + patterns.lo,
                                             patterns.words + patterns.lo,
                                             patterns.hi - patterns.lo);
  }

  /// FNV-1a hash of (row & patterns) over all pattern words: the group key
  /// the partition analysis buckets cells by. Folds only the words the
  /// subset spans; the view's seed and tail stand for the zero words.
  std::uint64_t hash_in(std::size_t row, const PatternView& patterns) const {
    const std::uint64_t* words = row_words(row);
    std::uint64_t h = patterns.hash_seed;
    for (std::size_t w = patterns.lo; w < patterns.hi; ++w) {
      h ^= words[w] & patterns.words[w];
      h *= PatternView::kFnvPrime;
    }
    return h * patterns.hash_tail;
  }

  /// Materializes (row & patterns) into @p out (resized to num_patterns).
  void intersect_into(std::size_t row, const BitVec& patterns,
                      BitVec* out) const {
    out->resize(num_patterns_);
    // Tail-safe raw write: patterns' tail bits are zero, so the AND's are.
    kernels::active().and_words_into(out->word_data(), row_words(row),
                                     patterns.word_data(), words_per_row_);
  }

  /// Adds a caller's probe tallies to the store's accounting. Safe from
  /// any thread; the engine calls it once per analysis, per round and per
  /// materialize(), after its pool chunks have joined.
  void note_probes(std::uint64_t count_in, std::uint64_t hash_in,
                   std::uint64_t intersect) const {
    probe_count_in_.fetch_add(count_in, std::memory_order_relaxed);
    probe_hash_in_.fetch_add(hash_in, std::memory_order_relaxed);
    probe_intersect_.fetch_add(intersect, std::memory_order_relaxed);
  }

  [[nodiscard]] StoreStats stats() const;

 private:
  ScanGeometry geometry_;
  std::size_t num_patterns_ = 0;
  std::size_t words_per_row_ = 0;
  std::uint64_t total_x_ = 0;
  std::size_t num_rows_ = 0;

  // The XMatrix's block.
  const std::uint64_t* cells_ = nullptr;
  const std::uint64_t* counts_ = nullptr;
  const std::uint64_t* words_ = nullptr;

  mutable std::atomic<std::uint64_t> probe_count_in_{0};
  mutable std::atomic<std::uint64_t> probe_hash_in_{0};
  mutable std::atomic<std::uint64_t> probe_intersect_{0};
};

/// Publishes @p store's accounting into @p trace as store.* counters and
/// gauges. Call once per Trace from the owning thread (counters add deltas,
/// exactly like PartitionService::export_telemetry).
void export_store_telemetry(const XMatrixStore& store, Trace* trace);

}  // namespace xh
