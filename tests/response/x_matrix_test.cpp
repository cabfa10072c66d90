#include "response/x_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "response/response_matrix.hpp"
#include "util/rng.hpp"

namespace xh {
namespace {

std::vector<std::size_t> cells_of(const XMatrix& xm) {
  return {xm.x_cells().begin(), xm.x_cells().end()};
}

TEST(XMatrix, AddAndQuery) {
  XMatrix::Builder b({2, 3}, 4);
  b.add_x(1, 0);
  b.add_x(1, 2);
  b.add_x(5, 3);
  const XMatrix xm = b.freeze();
  EXPECT_TRUE(xm.is_x(1, 0));
  EXPECT_FALSE(xm.is_x(1, 1));
  EXPECT_FALSE(xm.is_x(4, 3));
  EXPECT_EQ(xm.total_x(), 3u);
  EXPECT_EQ(xm.x_count(1), 2u);
  EXPECT_EQ(xm.x_count(0), 0u);
}

TEST(XMatrix, AddIsIdempotent) {
  XMatrix::Builder b({1, 2}, 2);
  b.add_x(0, 1);
  b.add_x(0, 1);
  EXPECT_EQ(b.total_x(), 1u);
  const XMatrix xm = b.freeze();
  EXPECT_EQ(xm.total_x(), 1u);
  EXPECT_EQ(xm.row_counts()[0], 1u);
}

TEST(XMatrix, AddRowAdoptsNewCellsAndOrsIntoKnownOnes) {
  XMatrix::Builder b({2, 3}, 70);
  BitVec row(70);
  row.set(1);
  row.set(69);
  b.add_row(4, row);
  EXPECT_EQ(b.total_x(), 2u);
  BitVec more(70);
  more.set(1);  // already recorded
  more.set(64);
  b.add_row(4, more);
  EXPECT_EQ(b.total_x(), 3u);
  b.add_row(0, BitVec(70));  // a row with no X adds nothing
  EXPECT_THROW(b.add_row(6, row), std::invalid_argument);
  EXPECT_THROW(b.add_row(0, BitVec(69)), std::invalid_argument);
  const XMatrix xm = b.freeze();
  EXPECT_EQ(xm.patterns_of(4).set_bits(),
            (std::vector<std::size_t>{1, 64, 69}));
  EXPECT_EQ(cells_of(xm), std::vector<std::size_t>{4});
}

TEST(XMatrix, XCellsSortedAndStable) {
  XMatrix::Builder b({3, 3}, 2);
  b.add_x(7, 0);
  b.add_x(2, 1);
  b.add_x(4, 0);
  EXPECT_EQ(cells_of(b.freeze()), (std::vector<std::size_t>{2, 4, 7}));
  // freeze() left the builder empty: the next matrix starts afresh.
  b.add_x(7, 0);
  b.add_x(2, 1);
  b.add_x(4, 0);
  b.add_x(0, 0);
  const XMatrix xm = b.freeze();
  EXPECT_EQ(cells_of(xm), (std::vector<std::size_t>{0, 2, 4, 7}));
  EXPECT_EQ(xm.total_x(), 4u);
}

TEST(XMatrix, PatternsOfReturnsEmptyForCleanCell) {
  const XMatrix xm({1, 3}, 5);
  EXPECT_EQ(xm.patterns_of(2).size(), 5u);
  EXPECT_TRUE(xm.patterns_of(2).none());
}

TEST(XMatrix, XCountInSubset) {
  XMatrix::Builder b({1, 2}, 6);
  for (const std::size_t p : {0u, 2u, 4u}) b.add_x(0, p);
  const XMatrix xm = b.freeze();
  BitVec subset(6);
  subset.set(0);
  subset.set(1);
  subset.set(2);
  EXPECT_EQ(xm.x_count_in(0, subset), 2u);
  EXPECT_EQ(xm.x_count_in(1, subset), 0u);
  EXPECT_THROW(xm.x_count_in(0, BitVec(5)), std::invalid_argument);
}

TEST(XMatrix, TotalXInSubset) {
  XMatrix::Builder b({1, 3}, 4);
  b.add_x(0, 0);
  b.add_x(1, 0);
  b.add_x(1, 3);
  const XMatrix xm = b.freeze();
  BitVec subset(4);
  subset.set(0);
  EXPECT_EQ(xm.total_x_in(subset), 2u);
  subset.set(3);
  EXPECT_EQ(xm.total_x_in(subset), 3u);
}

TEST(XMatrix, DensityMatchesDefinition) {
  XMatrix::Builder b({2, 5}, 10);
  for (std::size_t p = 0; p < 5; ++p) b.add_x(3, p);
  EXPECT_DOUBLE_EQ(b.freeze().x_density(), 5.0 / 100.0);
}

TEST(XMatrix, BoundsChecked) {
  XMatrix::Builder b({1, 2}, 2);
  EXPECT_THROW(b.add_x(2, 0), std::invalid_argument);
  EXPECT_THROW(b.add_x(0, 2), std::invalid_argument);
  EXPECT_THROW(b.append_row(2, BitVec(2, true)), std::invalid_argument);
  EXPECT_EQ(b.total_x(), 0u);
  EXPECT_THROW(b.freeze().patterns_of(5), std::invalid_argument);
  // The engine keeps pattern counts in 32 bits; neither form allocates
  // before refusing a wider one.
  EXPECT_THROW(XMatrix::Builder({1, 2}, XMatrix::kMaxPatterns + 1),
               std::invalid_argument);
  EXPECT_THROW(XMatrix({1, 2}, XMatrix::kMaxPatterns + 1),
               std::invalid_argument);
}

TEST(XMatrix, FromResponseMatchesDense) {
  Rng rng(3);
  ResponseMatrix rm({3, 4}, 6);
  for (std::size_t p = 0; p < 6; ++p) {
    for (std::size_t c = 0; c < 12; ++c) {
      const double roll = rng.uniform();
      rm.set(p, c, roll < 0.2 ? Lv::kX : (roll < 0.6 ? Lv::k1 : Lv::k0));
    }
  }
  const XMatrix xm = XMatrix::from_response(rm);
  EXPECT_EQ(xm.total_x(), rm.total_x());
  for (std::size_t p = 0; p < 6; ++p) {
    for (std::size_t c = 0; c < 12; ++c) {
      EXPECT_EQ(xm.is_x(c, p), rm.is_x(p, c));
    }
  }
}

// --- the frozen layout -----------------------------------------------------

TEST(XMatrix, FreezeIsIndependentOfInsertionOrder) {
  Rng rng(17);
  std::vector<std::pair<std::size_t, std::size_t>> xs;
  for (int i = 0; i < 400; ++i) {
    xs.emplace_back(rng.below(5 * 23), rng.below(150));
  }
  XMatrix first;
  for (int order = 0; order < 4; ++order) {
    for (std::size_t i = xs.size(); i > 1; --i) {
      std::swap(xs[i - 1], xs[rng.below(i)]);
    }
    XMatrix::Builder b({5, 23}, 150);
    for (const auto& [cell, pattern] : xs) b.add_x(cell, pattern);
    const XMatrix xm = b.freeze();
    SCOPED_TRACE(order);
    EXPECT_TRUE(std::is_sorted(xm.x_cells().begin(), xm.x_cells().end()));
    EXPECT_TRUE(std::adjacent_find(xm.x_cells().begin(),
                                   xm.x_cells().end()) ==
                xm.x_cells().end());
    std::uint64_t total = 0;
    for (std::size_t r = 0; r < xm.num_rows(); ++r) {
      const BitVec row = xm.patterns_of(xm.x_cells()[r]);
      EXPECT_TRUE(std::equal(row.word_data(),
                             row.word_data() + xm.words_per_row(),
                             xm.row_words(r)));
      EXPECT_EQ(xm.row_counts()[r], row.count());
      total += xm.row_counts()[r];
    }
    EXPECT_EQ(total, xm.total_x());
    if (order == 0) {
      first = xm;
    } else {
      EXPECT_TRUE(xm == first) << "same cells, same block word for word";
    }
  }
}

TEST(XMatrix, TotalXIsLiveDuringABuild) {
  XMatrix::Builder b({2, 40}, 100);
  EXPECT_EQ(b.total_x(), 0u);
  b.add_x(3, 0);
  b.add_x(3, 99);
  EXPECT_EQ(b.total_x(), 2u);
  b.add_x(3, 99);
  EXPECT_EQ(b.total_x(), 2u);
  BitVec row(100);
  row.set(0);
  row.set(64);
  b.add_row(3, row);  // one new X, one already recorded
  EXPECT_EQ(b.total_x(), 3u);
  b.append_row(70, row);
  EXPECT_EQ(b.total_x(), 5u);
  b.add_x(70, 1);  // the index learns appended rows
  EXPECT_EQ(b.total_x(), 6u);
  const XMatrix xm = b.freeze();
  EXPECT_EQ(xm.total_x(), 6u);
  EXPECT_EQ(xm.num_rows(), 2u);
  EXPECT_EQ(b.total_x(), 0u);
}

TEST(XMatrix, FromResponseEqualsAddX) {
  Rng rng(29);
  // Neither the cell count nor the pattern count is a multiple of 64.
  struct Shape {
    std::size_t chains, length, patterns;
  };
  for (const auto& [chains, length, patterns] :
       {Shape{3, 43, 150}, Shape{7, 11, 65}, Shape{2, 97, 200}}) {
    ResponseMatrix rm({chains, length}, patterns);
    XMatrix::Builder b({chains, length}, patterns);
    for (std::size_t p = 0; p < patterns; ++p) {
      for (std::size_t c = 0; c < rm.num_cells(); ++c) {
        const double roll = rng.uniform();
        rm.set(p, c, roll < 0.1 ? Lv::kX : (roll < 0.55 ? Lv::k1 : Lv::k0));
      }
    }
    // Added cell-major, the transpose of from_response's pattern-major
    // order, so the rows are appended in a different order.
    for (std::size_t c = 0; c < rm.num_cells(); ++c) {
      for (std::size_t p = 0; p < patterns; ++p) {
        if (rm.is_x(p, c)) b.add_x(c, p);
      }
    }
    const XMatrix derived = XMatrix::from_response(rm);
    EXPECT_TRUE(derived == b.freeze()) << chains << "x" << length;
    EXPECT_EQ(derived.total_x(), rm.total_x());
  }
}

TEST(XMatrix, FreezeRefusesACellAppendedTwice) {
  XMatrix::Builder b({1, 4}, 3);
  b.append_row(2, BitVec(3, true));
  b.append_row(1, BitVec(3, true));
  b.append_row(2, BitVec(3, true));
  EXPECT_THROW((void)b.freeze(), std::invalid_argument);
}

TEST(XMatrix, AppendRowSizesNothingByTheCellCount) {
  // 2^62 cells: a cell index of that size could not be allocated.
  const std::size_t side = std::size_t{1} << 31;
  XMatrix::Builder b({side, side}, 10);
  BitVec row(10);
  row.set(9);
  b.append_row(side * side - 1, row);
  b.append_row(5, row);
  const XMatrix xm = b.freeze();
  EXPECT_EQ(cells_of(xm), (std::vector<std::size_t>{5, side * side - 1}));
  EXPECT_TRUE(xm.is_x(side * side - 1, 9));
}

}  // namespace
}  // namespace xh
