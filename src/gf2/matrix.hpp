// Dense GF(2) matrix with Gaussian elimination that tracks row combinations.
//
// This is the algebraic engine behind the X-canceling MISR (Yang & Touba,
// TCAD 2012): each MISR bit is a linear combination of scan-cell symbols; the
// X-dependency part forms a matrix whose left null space (row combinations
// that XOR to zero) yields X-free signatures.
//
// Everything here is constexpr: tests/static/ proves the elimination
// invariants (combination tracking, canonical pivots, rank–nullity, null
// rows really cancel) at compile time, so the core algebra of the paper is
// checked by the compiler on every build.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/bitvec.hpp"
#include "util/check.hpp"

namespace xh {

/// Row-major dense matrix over GF(2).
class Gf2Matrix {
 public:
  constexpr Gf2Matrix() = default;

  /// rows × cols zero matrix.
  constexpr Gf2Matrix(std::size_t rows, std::size_t cols)
      : cols_(cols), rows_(rows, BitVec(cols)) {}

  /// Builds from explicit rows; all rows must share one size.
  explicit constexpr Gf2Matrix(std::vector<BitVec> rows)
      : rows_(std::move(rows)) {
    if (!rows_.empty()) {
      cols_ = rows_.front().size();
      for (const auto& r : rows_) {
        XH_REQUIRE(r.size() == cols_, "all matrix rows must share one width");
      }
    }
  }

  constexpr std::size_t rows() const { return rows_.size(); }
  constexpr std::size_t cols() const { return cols_; }

  constexpr const BitVec& row(std::size_t r) const {
    XH_REQUIRE(r < rows_.size(), "row index out of range");
    return rows_[r];
  }

  constexpr BitVec& row(std::size_t r) {
    XH_REQUIRE(r < rows_.size(), "row index out of range");
    return rows_[r];
  }

  constexpr bool get(std::size_t r, std::size_t c) const {
    return row(r).get(c);
  }

  constexpr void set(std::size_t r, std::size_t c, bool value = true) {
    row(r).set(c, value);
  }

  constexpr void append_row(BitVec new_row) {
    if (rows_.empty() && cols_ == 0) {
      cols_ = new_row.size();
    }
    XH_REQUIRE(new_row.size() == cols_, "appended row width mismatch");
    rows_.push_back(std::move(new_row));
  }

  /// Parses rows from strings of '0'/'1' (e.g. {"1100", "0101"}).
  static constexpr Gf2Matrix from_strings(
      const std::vector<std::string>& rows) {
    std::vector<BitVec> parsed;
    parsed.reserve(rows.size());
    for (const auto& s : rows) parsed.push_back(BitVec::from_string(s));
    return Gf2Matrix(std::move(parsed));
  }

  /// rank over GF(2) (destructive elimination on a copy).
  constexpr std::size_t rank() const;

  constexpr bool operator==(const Gf2Matrix& other) const = default;

  constexpr std::string to_string() const {
    std::string out;
    for (const auto& r : rows_) {
      out += r.to_string();
      out.push_back('\n');
    }
    return out;
  }

 private:
  std::size_t cols_ = 0;
  std::vector<BitVec> rows_;
};

/// Result of tracked Gaussian elimination.
///
/// `reduced.row(i)` equals the XOR of the original rows selected by
/// `combination[i]`. Rows with `reduced.row(i).none()` are members of the left
/// null space: XORing those original rows cancels every column — for the
/// X-canceling MISR this means an X-free signature combination.
struct Elimination {
  Gf2Matrix reduced;
  /// combination[i] is a BitVec over original row indices.
  std::vector<BitVec> combination;
  std::size_t rank = 0;

  /// Indices i with reduced.row(i) all-zero (null-space rows).
  constexpr std::vector<std::size_t> null_rows() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < reduced.rows(); ++i) {
      if (reduced.row(i).none()) out.push_back(i);
    }
    return out;
  }
};

/// Elimination and solving over Gf2Matrix. Callers build matrices of at
/// most a few dozen rows (the X-canceling session eliminates its own rows in
/// registers, in this pivot order), so there is no blocked or
/// word-dispatched variant: at those sizes neither pays for itself
/// (DESIGN.md §14).
namespace gf2 {

/// Forward Gaussian elimination with full row-combination tracking.
constexpr Elimination eliminate(const Gf2Matrix& m) {
  Elimination result;
  result.reduced = m;
  result.combination.reserve(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    BitVec id(m.rows());
    id.set(r);
    result.combination.push_back(std::move(id));
  }

  std::size_t pivot_row = 0;
  for (std::size_t col = 0; col < m.cols() && pivot_row < m.rows(); ++col) {
    // Find a row at or below pivot_row with a 1 in this column.
    std::size_t sel = pivot_row;
    while (sel < m.rows() && !result.reduced.get(sel, col)) ++sel;
    if (sel == m.rows()) continue;

    std::swap(result.reduced.row(pivot_row), result.reduced.row(sel));
    std::swap(result.combination[pivot_row], result.combination[sel]);

    // Eliminate this column from every other row (full reduction keeps the
    // surviving rows canonical, which simplifies downstream reasoning).
    for (std::size_t r = 0; r < m.rows(); ++r) {
      if (r != pivot_row && result.reduced.get(r, col)) {
        result.reduced.row(r) ^= result.reduced.row(pivot_row);
        result.combination[r] ^= result.combination[pivot_row];
      }
    }
    ++pivot_row;
  }
  result.rank = pivot_row;
  return result;
}

/// Convenience: the row combinations (over original rows) whose XOR is zero
/// in every column of @p m — i.e. a basis of the left null space.
constexpr std::vector<BitVec> x_free_combinations(const Gf2Matrix& m) {
  const Elimination e = eliminate(m);
  std::vector<BitVec> combos;
  for (const std::size_t r : e.null_rows()) {
    combos.push_back(e.combination[r]);
  }
  return combos;
}

/// Solves A·x = b over GF(2). Returns one solution (free variables set to 0)
/// or nullopt when the system is inconsistent. @p b must have m.rows() bits;
/// the solution has m.cols() bits.
constexpr std::optional<BitVec> solve(const Gf2Matrix& m, const BitVec& b) {
  XH_REQUIRE(b.size() == m.rows(), "right-hand side height mismatch");
  // Eliminate the augmented system [A | b] without materializing it: the
  // tracked combinations tell us how b transforms alongside each row.
  const Elimination e = eliminate(m);
  BitVec x(m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    // Transformed rhs bit for this reduced row.
    bool rhs = false;
    for (const std::size_t orig : e.combination[r].set_bits()) {
      rhs ^= b.get(orig);
    }
    const std::size_t pivot = e.reduced.row(r).find_first();
    if (pivot == m.cols()) {
      if (rhs) return std::nullopt;  // 0 = 1: inconsistent
      continue;
    }
    // Rows are fully reduced, so each pivot column appears in exactly one
    // row; setting x[pivot] = rhs (free variables stay 0) satisfies it as
    // long as the row's non-pivot columns are free (they are: full
    // reduction leaves non-pivot columns only in rows whose pivots precede
    // them, and those contributions are fixed by the zero assignment).
    if (rhs) {
      // Account for non-pivot columns already assigned: with free vars at 0
      // and pivots assigned row-by-row in increasing pivot order, no pivot
      // column appears in another reduced row, so the assignment is direct.
      x.set(pivot);
    }
  }
  // Verify (cheap, and guards the subtle free-variable reasoning above).
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (((m.row(r) & x).count() % 2 != 0) != b.get(r)) {
      return std::nullopt;
    }
  }
  return x;
}

}  // namespace gf2

constexpr std::size_t Gf2Matrix::rank() const {
  return gf2::eliminate(*this).rank;
}

}  // namespace xh
