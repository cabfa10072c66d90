#include "response/response_matrix.hpp"

namespace xh {

ResponseMatrix::ResponseMatrix(ScanGeometry geometry, std::size_t num_patterns)
    : geometry_(geometry),
      num_patterns_(num_patterns),
      value_(num_patterns, BitVec(geometry.num_cells())),
      x_(num_patterns, BitVec(geometry.num_cells())) {
  XH_REQUIRE(geometry.num_cells() > 0, "geometry must have cells");
  XH_REQUIRE(num_patterns > 0, "need at least one pattern");
}

bool ResponseMatrix::is_x(std::size_t pattern, std::size_t cell) const {
  XH_REQUIRE(pattern < num_patterns_, "pattern index out of range");
  return x_[pattern].get(cell);
}

std::size_t ResponseMatrix::total_x() const {
  std::size_t total = 0;
  for (const auto& row : x_) total += row.count();
  return total;
}

std::size_t ResponseMatrix::pattern_x_count(std::size_t pattern) const {
  XH_REQUIRE(pattern < num_patterns_, "pattern index out of range");
  return x_[pattern].count();
}

double ResponseMatrix::x_density() const {
  return static_cast<double>(total_x()) /
         (static_cast<double>(num_patterns_) *
          static_cast<double>(num_cells()));
}

const BitVec& ResponseMatrix::x_row(std::size_t pattern) const {
  XH_REQUIRE(pattern < num_patterns_, "pattern index out of range");
  return x_[pattern];
}

const BitVec& ResponseMatrix::value_row(std::size_t pattern) const {
  XH_REQUIRE(pattern < num_patterns_, "pattern index out of range");
  return value_[pattern];
}

void ResponseMatrix::mask_cells(std::size_t pattern, const BitVec& mask) {
  XH_REQUIRE(pattern < num_patterns_, "pattern index out of range");
  XH_REQUIRE(&mask != &x_[pattern] && &mask != &value_[pattern],
             "a plane cannot mask itself");
  value_[pattern].and_not(mask);
  x_[pattern].and_not(mask);
}

ResponseMatrix ResponseMatrix::from_strings(
    ScanGeometry geometry, const std::vector<std::string>& rows) {
  XH_REQUIRE(!rows.empty(), "need at least one pattern row");
  ResponseMatrix m(geometry, rows.size());
  for (std::size_t p = 0; p < rows.size(); ++p) {
    XH_REQUIRE(rows[p].size() == geometry.num_cells(),
               "row length must equal cell count");
    for (std::size_t c = 0; c < rows[p].size(); ++c) {
      m.set(p, c, lv_from_char(rows[p][c]));
    }
  }
  return m;
}

std::string ResponseMatrix::row_string(std::size_t pattern) const {
  std::string out;
  out.reserve(num_cells());
  for (std::size_t c = 0; c < num_cells(); ++c) {
    out.push_back(to_char(get(pattern, c)));
  }
  return out;
}

}  // namespace xh
