// Dense captured-response storage: one four-ish-valued entry per
// (pattern, scan cell), packed as two bit planes (value, is-X).
//
// This is what the scan-capture flow produces and what masking physically
// operates on. For the huge analytic workloads (Table 1 geometries) the
// sparse XMatrix is used instead; ResponseMatrix is for circuit-level flows
// and worked examples where actual values matter.
#pragma once

#include <string>
#include <vector>

#include "response/geometry.hpp"
#include "sim/logic.hpp"
#include "util/bitvec.hpp"
#include "util/check.hpp"

namespace xh {

/// num_patterns × num_cells matrix of {0,1,X}. Z never reaches a scan cell
/// (it is absorbed at the D pin), so two planes suffice.
class ResponseMatrix {
 public:
  ResponseMatrix() = default;
  ResponseMatrix(ScanGeometry geometry, std::size_t num_patterns);

  const ScanGeometry& geometry() const { return geometry_; }
  std::size_t num_patterns() const { return num_patterns_; }
  std::size_t num_cells() const { return geometry_.num_cells(); }

  // get and set are defined here so per-cell fill loops inline them.
  Lv get(std::size_t pattern, std::size_t cell) const {
    XH_REQUIRE(pattern < num_patterns_, "pattern index out of range");
    if (x_[pattern].get(cell)) return Lv::kX;
    return value_[pattern].get(cell) ? Lv::k1 : Lv::k0;
  }

  void set(std::size_t pattern, std::size_t cell, Lv value) {
    XH_REQUIRE(pattern < num_patterns_, "pattern index out of range");
    XH_REQUIRE(value != Lv::kZ, "scan cells cannot capture Z");
    if (value == Lv::kX) {
      x_[pattern].set(cell);
      value_[pattern].clear(cell);
    } else {
      x_[pattern].clear(cell);
      value_[pattern].set(cell, value == Lv::k1);
    }
  }

  bool is_x(std::size_t pattern, std::size_t cell) const;

  /// Total number of X entries.
  std::size_t total_x() const;

  /// X entries in one pattern.
  std::size_t pattern_x_count(std::size_t pattern) const;

  /// X-density: total_x / (patterns × cells).
  double x_density() const;

  /// The X plane of one pattern (bit set ⇔ cell is X), read in place.
  const BitVec& x_row(std::size_t pattern) const;

  /// The value plane of one pattern (X cells read 0), read in place.
  const BitVec& value_row(std::size_t pattern) const;

  /// Forces the cells set in @p mask to a deterministic 0 in one pattern,
  /// clearing them in both planes. @p mask has num_cells() bits and is not
  /// one of this matrix's planes.
  void mask_cells(std::size_t pattern, const BitVec& mask);

  /// Parses rows like {"01X10", "1XX00"} (one string per pattern).
  static ResponseMatrix from_strings(ScanGeometry geometry,
                                     const std::vector<std::string>& rows);

  /// Renders pattern @p pattern as a "01X" string.
  std::string row_string(std::size_t pattern) const;

 private:
  ScanGeometry geometry_;
  std::size_t num_patterns_ = 0;
  std::vector<BitVec> value_;  // per pattern
  std::vector<BitVec> x_;      // per pattern
};

}  // namespace xh
