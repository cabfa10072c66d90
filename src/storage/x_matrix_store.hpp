// The frozen X matrix the partition engine probes (DESIGN.md §12).
//
// The partitioner (paper Section 4, Algorithm 1) asks three things about a
// cell inside a partition: its X count there (count_in), the FNV-1a group
// key of its pattern set there (hash_in), and that set itself
// (intersect_into). XMatrixStore freezes the X-capturing cells into CSR
// rows and answers exactly those probes:
//
//   cells  [r]                       cell id of row r (ascending)
//   counts [r]                       X count of row r (precomputed)
//   words  [r*W .. r*W + W)          row r's pattern-membership words
//
// The rows have one of two placements, fixed at construction:
//
//   * csr  — unpadded heap arrays, so a sweep walks one linear block;
//   * mmap — a read-only mapping of an unlinked xh-xmm/1 spill file, so the
//            kernel's page cache, not the process heap, holds the payload
//            (the path for a matrix whose second in-RAM copy does not fit).
//
// xh-xmm/1 (host-endian, ephemeral per process) is a header page followed
// by the cells, counts and words sections, each starting on a kPageSize
// boundary so one row's payload spans the fewest pages. Probes on the
// mapped placement add the pages their row spans to pages_touched, a
// deterministic page-fault proxy.
//
// count_in and hash_in take the subset as a PatternView, built once per
// analysis, and read only the words [lo, hi) the subset spans. hash_in
// still returns the seed partitioner's set_hash, which folds every word
// through the FNV-1a step: a step on a zero word is one multiply by the
// prime, so the view carries the products for the words outside [lo, hi).
// Both placements give the same probe bits. A store is an immutable value:
// concurrent readers (the engine's thread-pool fan-out) need no
// synchronization, and the probe accounting goes through the note_* seam
// of relaxed atomics, whose totals are a pure function of the engine's
// work, not of the thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

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

/// Where a store keeps its rows; spellings live in storage/store_factory.hpp.
enum class XmBackend : std::uint8_t {
  kAuto = 0,  // resolve_xm_backend() picks csr or mmap by footprint
  kCsr,
  kMmap,
};

/// Point-in-time snapshot of one store's probe/footprint accounting.
/// Probe counters are deterministic for a deterministic engine run;
/// pages_touched is nonzero only for the mapped placement.
struct StoreStats {
  std::uint64_t probe_count_in = 0;
  std::uint64_t probe_hash_in = 0;
  std::uint64_t probe_intersect = 0;
  std::uint64_t rows_touched = 0;    // sum of the three probe counters
  std::uint64_t pages_touched = 0;   // pages spanned by mapped row reads
  std::uint64_t resident_bytes = 0;  // heap owned by the store
  std::uint64_t mapped_bytes = 0;    // spill-file bytes mapped, 0 for csr
};

class XMatrixStore final {
 public:
  /// Section alignment of the spill file. A fixed constant (not the
  /// runtime page size) so pages_touched is machine-independent.
  static constexpr std::uint64_t kPageSize = 4096;

  /// Snapshots @p xm (O(x_cells × pattern words)); kAuto resolves through
  /// resolve_xm_backend(). The mmap placement writes its spill file under
  /// std::filesystem::temp_directory_path() and throws
  /// std::ios_base::failure when the filesystem refuses (transient to the
  /// service retry policy), leaving no file behind.
  XMatrixStore(const XMatrix& xm, XmBackend backend);

  // Pinned by reference in the engine; a copy would fork the accounting.
  XMatrixStore(const XMatrixStore&) = delete;
  XMatrixStore& operator=(const XMatrixStore&) = delete;

  /// Identity token ("csr" or "mmap") recorded in xh-ckpt/1 checkpoints so
  /// a resume refuses a mismatched placement.
  const char* backend_name() const { return map_ ? "mmap" : "csr"; }

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
    note_probe(probe_count_in_, row);
    return kernels::active().and_count_words(row_words(row) + patterns.lo,
                                             patterns.words + patterns.lo,
                                             patterns.hi - patterns.lo);
  }

  /// FNV-1a hash of (row & patterns) over all pattern words: the group key
  /// the partition analysis buckets cells by. Folds only the words the
  /// subset spans; the view's seed and tail stand for the zero words.
  std::uint64_t hash_in(std::size_t row, const PatternView& patterns) const {
    note_probe(probe_hash_in_, row);
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
    note_probe(probe_intersect_, row);
    out->resize(num_patterns_);
    // Tail-safe raw write: patterns' tail bits are zero, so the AND's are.
    kernels::active().and_words_into(out->word_data(), row_words(row),
                                     patterns.word_data(), words_per_row_);
  }

  [[nodiscard]] StoreStats stats() const;

 private:
  /// munmap()s the spill-file mapping when the store dies, or when a
  /// throw unwinds the constructor after the map succeeded.
  struct Unmap {
    std::size_t bytes;
    void operator()(void* base) const;
  };

  void spill_and_map(const std::vector<std::uint64_t>& rows);

  void note_probe(std::atomic<std::uint64_t>& probes, std::size_t row) const {
    probes.fetch_add(1, std::memory_order_relaxed);
    if (!map_ || words_per_row_ == 0) return;
    const std::uint64_t row_bytes = words_per_row_ * sizeof(std::uint64_t);
    const std::uint64_t begin = words_off_ + row * row_bytes;
    pages_touched_.fetch_add(
        (begin + row_bytes - 1) / kPageSize - begin / kPageSize + 1,
        std::memory_order_relaxed);
  }

  ScanGeometry geometry_;
  std::size_t num_patterns_ = 0;
  std::size_t words_per_row_ = 0;
  std::uint64_t total_x_ = 0;
  std::size_t num_rows_ = 0;

  std::vector<std::uint64_t> heap_;   // csr: cells, counts, then words
  std::unique_ptr<void, Unmap> map_;  // mmap: the whole spill file
  std::uint64_t words_off_ = 0;       // mmap: file offset of the words
  const std::uint64_t* cells_ = nullptr;
  const std::uint64_t* counts_ = nullptr;
  const std::uint64_t* words_ = nullptr;

  mutable std::atomic<std::uint64_t> probe_count_in_{0};
  mutable std::atomic<std::uint64_t> probe_hash_in_{0};
  mutable std::atomic<std::uint64_t> probe_intersect_{0};
  mutable std::atomic<std::uint64_t> pages_touched_{0};
};

/// Publishes @p store's accounting into @p trace as store.* counters and
/// gauges. Call once per Trace from the owning thread (counters add deltas,
/// exactly like PartitionService::export_telemetry).
void export_store_telemetry(const XMatrixStore& store, Trace* trace);

}  // namespace xh
