#include "response/x_matrix.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "kernels/kernels.hpp"

#include "response/response_matrix.hpp"

namespace xh {
namespace {

std::size_t words_for(std::size_t num_patterns) {
  return (num_patterns + 63) / 64;
}

void require_shape(const ScanGeometry& geometry, std::size_t num_patterns) {
  XH_REQUIRE(geometry.num_cells() > 0, "geometry must have cells");
  XH_REQUIRE(num_patterns > 0, "need at least one pattern");
  XH_REQUIRE(num_patterns <= XMatrix::kMaxPatterns,
             "pattern count above the 32-bit limit");
}

}  // namespace

XMatrix::XMatrix(ScanGeometry geometry, std::size_t num_patterns)
    : geometry_(geometry),
      num_patterns_(num_patterns),
      words_per_row_(words_for(num_patterns)) {
  require_shape(geometry, num_patterns);
}

std::size_t XMatrix::row_of(std::size_t cell) const {
  const std::span<const std::uint64_t> cells = x_cells();
  const auto it = std::lower_bound(cells.begin(), cells.end(), cell);
  return it != cells.end() && *it == cell
             ? static_cast<std::size_t>(it - cells.begin())
             : num_rows_;
}

bool XMatrix::is_x(std::size_t cell, std::size_t pattern) const {
  XH_REQUIRE(pattern < num_patterns_, "pattern index out of range");
  const std::size_t row = row_of(cell);
  return row < num_rows_ &&
         ((row_words(row)[pattern / 64] >> (pattern % 64)) & 1U) != 0;
}

BitVec XMatrix::patterns_of(std::size_t cell) const {
  XH_REQUIRE(cell < num_cells(), "cell index out of range");
  BitVec out(num_patterns_);
  const std::size_t row = row_of(cell);
  if (row < num_rows_) {
    std::copy_n(row_words(row), words_per_row_, out.word_data());
  }
  return out;
}

std::size_t XMatrix::x_count(std::size_t cell) const {
  XH_REQUIRE(cell < num_cells(), "cell index out of range");
  const std::size_t row = row_of(cell);
  return row < num_rows_ ? row_counts()[row] : 0;
}

std::size_t XMatrix::x_count_in(std::size_t cell,
                                const BitVec& patterns) const {
  XH_REQUIRE(cell < num_cells(), "cell index out of range");
  XH_REQUIRE(patterns.size() == num_patterns_,
             "pattern subset width mismatch");
  const std::size_t row = row_of(cell);
  if (row == num_rows_) return 0;
  return kernels::active().and_count_words(row_words(row),
                                           patterns.word_data(),
                                           words_per_row_);
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
  for (std::size_t r = 0; r < num_rows_; ++r) {
    total += kernels::active().and_count_words(
        row_words(r), patterns.word_data(), words_per_row_);
  }
  return total;
}

XMatrix XMatrix::from_response(const ResponseMatrix& response) {
  Builder builder(response.geometry(), response.num_patterns());
  for (std::size_t p = 0; p < response.num_patterns(); ++p) {
    const BitVec& row = response.x_row(p);
    for (std::size_t w = 0; w < row.word_count(); ++w) {
      for (std::uint64_t bits = row.word(w); bits != 0; bits &= bits - 1) {
        builder.add_x(64 * w + static_cast<std::size_t>(std::countr_zero(bits)),
                      p);
      }
    }
  }
  return builder.freeze();
}

XMatrix::Builder::Builder(ScanGeometry geometry, std::size_t num_patterns)
    : geometry_(geometry),
      num_patterns_(num_patterns),
      words_per_row_(words_for(num_patterns)) {
  require_shape(geometry, num_patterns);
}

std::uint64_t* XMatrix::Builder::push_row(std::size_t cell) {
  XH_REQUIRE(cells_.size() < std::numeric_limits<std::uint32_t>::max(),
             "row count above the 32-bit limit");
  // Keep room for the block these rows make, cell and count words included,
  // so freeze() never reallocates; doubling keeps appends amortized O(1).
  const std::size_t block = (cells_.size() + 1) * (2 + words_per_row_);
  if (words_.capacity() < block) words_.reserve(2 * block);
  cells_.push_back(cell);
  words_.resize(words_.size() + words_per_row_, 0);
  return words_.data() + words_.size() - words_per_row_;
}

std::uint64_t* XMatrix::Builder::row_for(std::size_t cell) {
  if (row_of_.empty()) {
    row_of_.assign(num_cells(), 0);
    for (std::size_t r = 0; r < cells_.size(); ++r) {
      row_of_[cells_[r]] = static_cast<std::uint32_t>(r + 1);
    }
  }
  std::uint32_t& slot = row_of_[cell];
  if (slot == 0) {
    std::uint64_t* row = push_row(cell);
    slot = static_cast<std::uint32_t>(cells_.size());
    return row;
  }
  return words_.data() + (slot - 1) * words_per_row_;
}

void XMatrix::Builder::add_x(std::size_t cell, std::size_t pattern) {
  XH_REQUIRE(cell < num_cells(), "cell index out of range");
  XH_REQUIRE(pattern < num_patterns_, "pattern index out of range");
  std::uint64_t& word = row_for(cell)[pattern / 64];
  const std::uint64_t bit = std::uint64_t{1} << (pattern % 64);
  total_x_ += (word & bit) == 0 ? 1 : 0;
  word |= bit;
}

void XMatrix::Builder::add_row(std::size_t cell, const BitVec& row) {
  XH_REQUIRE(cell < num_cells(), "cell index out of range");
  XH_REQUIRE(row.size() == num_patterns_, "pattern row width mismatch");
  if (row.none()) return;
  std::uint64_t* words = row_for(cell);
  for (std::size_t w = 0; w < words_per_row_; ++w) {
    total_x_ += static_cast<std::size_t>(std::popcount(row.word(w) & ~words[w]));
    words[w] |= row.word(w);
  }
}

void XMatrix::Builder::append_row(std::size_t cell, const BitVec& row) {
  XH_REQUIRE(cell < num_cells(), "cell index out of range");
  XH_REQUIRE(row.size() == num_patterns_, "pattern row width mismatch");
  const std::size_t x = row.count();
  if (x == 0) return;
  if (!row_of_.empty()) {
    XH_REQUIRE(row_of_[cell] == 0, "cell already has a row");
    row_of_[cell] = static_cast<std::uint32_t>(cells_.size() + 1);
  }
  std::copy_n(row.word_data(), words_per_row_, push_row(cell));
  total_x_ += x;
}

void XMatrix::Builder::reserve_rows(std::size_t rows) {
  XH_REQUIRE(rows <= std::numeric_limits<std::uint32_t>::max(),
             "row count above the 32-bit limit");
  cells_.reserve(rows);
  words_.reserve(rows * (2 + words_per_row_));
}

XMatrix XMatrix::Builder::freeze() {
  const std::size_t rows = cells_.size();
  const std::size_t w = words_per_row_;
  // order[r] is the appended row that becomes row r.
  std::vector<std::uint32_t> order(rows);
  std::iota(order.begin(), order.end(), 0U);
  if (!std::is_sorted(cells_.begin(), cells_.end())) {
    std::sort(order.begin(), order.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return cells_[a] < cells_[b];
              });
  }
  for (std::size_t r = 1; r < rows; ++r) {
    XH_REQUIRE(cells_[order[r]] != cells_[order[r - 1]],
               "cell recorded twice");
  }
  std::vector<std::uint64_t> held(w);

  // The cell and count arrays go in front of the rows, in the room
  // push_row() kept for them: a move inside the buffer.
  words_.insert(words_.begin(), 2 * rows, 0);
  std::uint64_t* const cells = words_.data();
  std::uint64_t* const counts = cells + rows;
  std::uint64_t* const words = counts + rows;
  for (std::size_t r = 0; r < rows; ++r) cells[r] = cells_[order[r]];
  // Permute the rows one cycle of `order` at a time, with the cycle's first
  // row held aside.
  for (std::size_t start = 0; start < rows; ++start) {
    if (order[start] == start) continue;
    std::copy_n(words + start * w, w, held.data());
    std::size_t r = start;
    for (std::size_t from = order[r]; from != start; from = order[r]) {
      std::copy_n(words + from * w, w, words + r * w);
      order[r] = static_cast<std::uint32_t>(r);
      r = from;
    }
    std::copy_n(held.data(), w, words + r * w);
    order[r] = static_cast<std::uint32_t>(r);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < w; ++i) {
      count += static_cast<std::uint64_t>(std::popcount(words[r * w + i]));
    }
    counts[r] = count;
  }

  XMatrix xm(geometry_, num_patterns_);
  xm.num_rows_ = rows;
  xm.total_x_ = total_x_;
  xm.block_ = std::move(words_);
  *this = Builder(geometry_, num_patterns_);
  return xm;
}

}  // namespace xh
