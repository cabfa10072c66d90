#include "response/x_matrix.hpp"

#include <algorithm>
#include <utility>

#include "kernels/kernels.hpp"

#include "response/response_matrix.hpp"

namespace xh {

XMatrix::XMatrix(ScanGeometry geometry, std::size_t num_patterns)
    : geometry_(geometry),
      num_patterns_(num_patterns),
      empty_(num_patterns) {
  XH_REQUIRE(geometry.num_cells() > 0, "geometry must have cells");
  XH_REQUIRE(num_patterns > 0, "need at least one pattern");
}

void XMatrix::add_x(std::size_t cell, std::size_t pattern) {
  XH_REQUIRE(cell < num_cells(), "cell index out of range");
  XH_REQUIRE(pattern < num_patterns_, "pattern index out of range");
  auto [it, inserted] = cells_.try_emplace(cell, num_patterns_);
  if (!it->second.get(pattern)) {
    it->second.set(pattern);
    ++total_x_;
  }
}

void XMatrix::add_row(std::size_t cell, BitVec row) {
  XH_REQUIRE(cell < num_cells(), "cell index out of range");
  XH_REQUIRE(row.size() == num_patterns_, "pattern row width mismatch");
  const std::size_t x = row.count();
  if (x == 0) return;
  const auto [it, inserted] = cells_.try_emplace(cell);
  if (inserted) {
    it->second = std::move(row);
    total_x_ += x;
    return;
  }
  total_x_ += kernels::and_not_count(row, it->second);
  it->second |= row;
}

bool XMatrix::has_row(std::size_t cell) const {
  return cells_.contains(cell);
}

bool XMatrix::is_x(std::size_t cell, std::size_t pattern) const {
  XH_REQUIRE(pattern < num_patterns_, "pattern index out of range");
  const auto it = cells_.find(cell);
  return it != cells_.end() && it->second.get(pattern);
}

std::vector<std::size_t> XMatrix::x_cells() const {
  std::vector<std::size_t> cells;
  cells.reserve(cells_.size());
  // Hash order never escapes: collected then sorted before returning.
  // xh-lint: allow(XH-DET-002)
  for (const auto& [cell, pats] : cells_) cells.push_back(cell);
  std::sort(cells.begin(), cells.end());
  return cells;
}

const BitVec& XMatrix::patterns_of(std::size_t cell) const {
  XH_REQUIRE(cell < num_cells(), "cell index out of range");
  const auto it = cells_.find(cell);
  return it == cells_.end() ? empty_ : it->second;
}

std::size_t XMatrix::x_count(std::size_t cell) const {
  return patterns_of(cell).count();
}

std::size_t XMatrix::x_count_in(std::size_t cell,
                                const BitVec& patterns) const {
  const BitVec& mine = patterns_of(cell);
  XH_REQUIRE(patterns.size() == num_patterns_,
             "pattern subset width mismatch");
  return kernels::and_count(mine, patterns);
}

double XMatrix::x_density() const {
  return static_cast<double>(total_x_) /
         (static_cast<double>(num_patterns_) *
          static_cast<double>(num_cells()));
}

std::size_t XMatrix::total_x_in(const BitVec& patterns) const {
  XH_REQUIRE(patterns.size() == num_patterns_,
             "pattern subset width mismatch");
  std::size_t total = 0;
  // Order-independent reduction (+ over size_t is commutative/associative),
  // so hash order cannot affect the result. xh-lint: allow(XH-DET-002)
  for (const auto& [cell, pats] : cells_) {
    total += kernels::and_count(pats, patterns);
  }
  return total;
}

XMatrix XMatrix::from_response(const ResponseMatrix& response) {
  XMatrix xm(response.geometry(), response.num_patterns());
  for (std::size_t p = 0; p < response.num_patterns(); ++p) {
    const BitVec row = response.x_row(p);
    for (std::size_t c = row.find_first(); c < row.size();
         c = row.find_next(c + 1)) {
      xm.add_x(c, p);
    }
  }
  return xm;
}

}  // namespace xh
