// Sparse X-location matrix: for each scan cell that ever captures an X, the
// set of patterns under which it does.
//
// This is the exact input of the paper's partitioning algorithm (Figure 4's
// "X-value correlation analysis" table) and scales to the Table 1 workloads
// (hundreds of thousands of cells × 3000 patterns) because deterministic
// cells cost nothing.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "response/geometry.hpp"
#include "util/bitvec.hpp"

namespace xh {

class ResponseMatrix;

/// Per-cell pattern-set view of X locations.
class XMatrix {
 public:
  XMatrix() = default;
  XMatrix(ScanGeometry geometry, std::size_t num_patterns);

  const ScanGeometry& geometry() const { return geometry_; }
  std::size_t num_patterns() const { return num_patterns_; }
  std::size_t num_cells() const { return geometry_.num_cells(); }

  /// Records that @p cell captures X under @p pattern. Idempotent.
  void add_x(std::size_t cell, std::size_t pattern);

  /// ORs a whole pattern row (num_patterns bits) into @p cell and keeps
  /// total_x() current. A new cell adopts @p row without copying it; a row
  /// with no set bit adds nothing.
  void add_row(std::size_t cell, BitVec row);

  /// True when @p cell captures at least one X. Any index is accepted, so a
  /// reader can ask before it has checked the cell against the geometry.
  bool has_row(std::size_t cell) const;

  bool is_x(std::size_t cell, std::size_t pattern) const;

  /// Cells that capture at least one X, ascending. Built fresh on every
  /// call (O(n log n)), which keeps concurrent readers safe — the previous
  /// lazily-sorted mutable cache raced under parallel reads. Hot loops
  /// should snapshot once (or freeze the matrix into an XMatrixStore, which
  /// sorts exactly once at construction).
  std::vector<std::size_t> x_cells() const;

  /// Pattern set of one cell (empty BitVec of num_patterns bits when the
  /// cell never captures X).
  const BitVec& patterns_of(std::size_t cell) const;

  /// X count of a cell across all patterns.
  std::size_t x_count(std::size_t cell) const;

  /// X count of a cell restricted to @p patterns.
  std::size_t x_count_in(std::size_t cell, const BitVec& patterns) const;

  std::size_t total_x() const { return total_x_; }

  double x_density() const;

  /// Number of X's inside a pattern subset (sum over cells).
  std::size_t total_x_in(const BitVec& patterns) const;

  /// Extracts X locations from a dense response matrix.
  static XMatrix from_response(const ResponseMatrix& response);

 private:
  ScanGeometry geometry_;
  std::size_t num_patterns_ = 0;
  std::size_t total_x_ = 0;
  std::unordered_map<std::size_t, BitVec> cells_;
  BitVec empty_;
};

}  // namespace xh
