// Sparse X-location matrix: for each scan cell that ever captures an X, the
// set of patterns under which it does.
//
// This is the exact input of the paper's partitioning algorithm (Figure 4's
// "X-value correlation analysis" table) and scales to the Table 1 workloads
// (hundreds of thousands of cells × 3000 patterns) because deterministic
// cells cost nothing.
//
// An XMatrix is immutable. Its rows are the X-capturing cells, ascending by
// cell id, held in one block of 64-bit words (DESIGN.md §8, §12):
//
//   x_cells()    [r]                  cell id of row r (ascending)
//   row_counts() [r]                  X count of row r
//   row_words(r) [0 .. W)             row r's pattern-membership words
//
// with W = words_per_row() = ceil(num_patterns / 64). This is the layout an
// XMatrixStore probes, so a csr store borrows the block instead of copying
// it. Matrices are made by an XMatrix::Builder: add X's or rows in any
// order, then freeze() sorts the rows once and builds the block at its
// exact size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "response/geometry.hpp"
#include "util/bitvec.hpp"

namespace xh {

class ResponseMatrix;

/// Per-cell pattern-set view of X locations, frozen into one CSR block.
class XMatrix {
 public:
  class Builder;

  /// The largest pattern count a matrix accepts: the partition engine
  /// keeps pattern counts and row indices in 32 bits.
  static constexpr std::size_t kMaxPatterns =
      std::numeric_limits<std::uint32_t>::max();

  XMatrix() = default;
  /// A matrix with no X over @p geometry and @p num_patterns patterns.
  XMatrix(ScanGeometry geometry, std::size_t num_patterns);

  const ScanGeometry& geometry() const { return geometry_; }
  std::size_t num_patterns() const { return num_patterns_; }
  std::size_t num_cells() const { return geometry_.num_cells(); }
  std::size_t total_x() const { return total_x_; }

  /// Rows = X-capturing cells.
  std::size_t num_rows() const { return num_rows_; }
  std::size_t words_per_row() const { return words_per_row_; }

  /// Cells that capture at least one X, ascending: row r's cell id.
  std::span<const std::uint64_t> x_cells() const {
    return {block_.data(), num_rows_};
  }
  /// Row r's X count across all patterns.
  std::span<const std::uint64_t> row_counts() const {
    return {block_.data() + num_rows_, num_rows_};
  }
  /// Row r's words_per_row() pattern words; bits at or above
  /// num_patterns() are zero.
  const std::uint64_t* row_words(std::size_t row) const {
    return block_.data() + 2 * num_rows_ + row * words_per_row_;
  }

  bool is_x(std::size_t cell, std::size_t pattern) const;

  /// Pattern set of one cell, by value (all clear when the cell never
  /// captures X). Loops over every row read row_words() instead.
  BitVec patterns_of(std::size_t cell) const;

  /// X count of a cell across all patterns.
  std::size_t x_count(std::size_t cell) const;

  /// X count of a cell restricted to @p patterns.
  std::size_t x_count_in(std::size_t cell, const BitVec& patterns) const;

  double x_density() const;

  /// Number of X's inside a pattern subset (sum over cells).
  std::size_t total_x_in(const BitVec& patterns) const;

  /// Extracts X locations from a dense response matrix.
  static XMatrix from_response(const ResponseMatrix& response);

  /// Same shape and the same block, word for word.
  bool operator==(const XMatrix&) const = default;

 private:
  /// Row of @p cell, or num_rows() when the cell captures no X.
  /// O(log num_rows()).
  std::size_t row_of(std::size_t cell) const;

  ScanGeometry geometry_;
  std::size_t num_patterns_ = 0;
  std::size_t words_per_row_ = 0;
  std::size_t num_rows_ = 0;
  std::size_t total_x_ = 0;
  std::vector<std::uint64_t> block_;  // cells, counts, then row words
};

/// Collects X locations for one matrix. Rows are appended as cells first
/// appear; freeze() sorts them by cell id, builds the matrix's block at its
/// exact size and frees every build buffer.
///
/// add_x and add_row find a cell's row through a flat cell→row index of
/// num_cells() entries, made on their first call. append_row never makes
/// it, so a reader that checks duplicates itself sizes nothing by the cell
/// count.
class XMatrix::Builder {
 public:
  /// Requires cells, and 1 ≤ num_patterns ≤ XMatrix::kMaxPatterns.
  Builder(ScanGeometry geometry, std::size_t num_patterns);

  std::size_t num_patterns() const { return num_patterns_; }
  std::size_t num_cells() const { return geometry_.num_cells(); }

  /// X's recorded so far, each (cell, pattern) once.
  std::size_t total_x() const { return total_x_; }

  /// Records that @p cell captures X under @p pattern. Idempotent.
  void add_x(std::size_t cell, std::size_t pattern);

  /// ORs a whole pattern row (num_patterns bits) into @p cell. A row with
  /// no set bit adds nothing.
  void add_row(std::size_t cell, const BitVec& row);

  /// Appends @p row as the row of @p cell, which must have none yet: the
  /// caller guarantees it, and freeze() refuses a cell given twice. A row
  /// with no set bit adds nothing.
  void append_row(std::size_t cell, const BitVec& row);

  /// The matrix of everything recorded so far. Leaves the builder empty,
  /// with its geometry, ready to build another matrix.
  [[nodiscard]] XMatrix freeze();

 private:
  /// Row words of @p cell, appending an empty row for a new cell.
  std::uint64_t* row_for(std::size_t cell);
  /// Appends an all-zero row for @p cell and returns its words.
  std::uint64_t* push_row(std::size_t cell);

  ScanGeometry geometry_;
  std::size_t num_patterns_ = 0;
  std::size_t words_per_row_ = 0;
  std::size_t total_x_ = 0;
  std::vector<std::uint64_t> cells_;   // row r's cell, in append order
  std::vector<std::uint64_t> words_;   // row-major, words_per_row_ each
  std::vector<std::uint32_t> row_of_;  // cell → row + 1, 0 = none
};

}  // namespace xh
