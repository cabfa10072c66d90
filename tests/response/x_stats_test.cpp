#include "response/x_stats.hpp"

#include <gtest/gtest.h>

#include "core/paper_example.hpp"

namespace xh {
namespace {

TEST(XStats, EmptyMatrix) {
  const XMatrix xm({1, 4}, 4);
  const XStatistics s = compute_x_statistics(xm);
  EXPECT_EQ(s.total_x, 0u);
  EXPECT_EQ(s.x_capturing_cells, 0u);
  EXPECT_TRUE(s.histogram.empty());
  EXPECT_EQ(s.largest_bucket().num_cells, 0u);
  EXPECT_DOUBLE_EQ(s.cell_fraction_covering(0.9), 0.0);
}

TEST(XStats, HistogramOfPaperExample) {
  // Figure 4 analysis: 3 cells with 4 X's, and one cell each with 1, 2, 6, 7.
  const XStatistics s = compute_x_statistics(paper_example_x_matrix());
  EXPECT_EQ(s.total_x, 28u);
  EXPECT_EQ(s.x_capturing_cells, 7u);
  ASSERT_EQ(s.histogram.size(), 5u);
  // Sorted by descending x_count: 7, 6, 4, 2, 1.
  EXPECT_EQ(s.histogram[0].x_count, 7u);
  EXPECT_EQ(s.histogram[0].num_cells, 1u);
  EXPECT_EQ(s.histogram[1].x_count, 6u);
  EXPECT_EQ(s.histogram[2].x_count, 4u);
  EXPECT_EQ(s.histogram[2].num_cells, 3u);
  EXPECT_EQ(s.histogram[3].x_count, 2u);
  EXPECT_EQ(s.histogram[4].x_count, 1u);
}

TEST(XStats, LargestBucketIsTheFourXGroup) {
  const XStatistics s = compute_x_statistics(paper_example_x_matrix());
  const XHistogramBucket b = s.largest_bucket();
  EXPECT_EQ(b.x_count, 4u);
  EXPECT_EQ(b.num_cells, 3u);
}

TEST(XStats, ConcentrationMonotonicInTarget) {
  const XStatistics s = compute_x_statistics(paper_example_x_matrix());
  const double f50 = s.cell_fraction_covering(0.5);
  const double f90 = s.cell_fraction_covering(0.9);
  const double f100 = s.cell_fraction_covering(1.0);
  EXPECT_LE(f50, f90);
  EXPECT_LE(f90, f100);
  // 7 of 15 cells capture X at all.
  EXPECT_DOUBLE_EQ(f100, 7.0 / 15.0);
  // Greedy: 7+6=13 ≥ 14? no; 7+6+4=17 ≥ 14 → 3 cells cover half of 28.
  EXPECT_DOUBLE_EQ(f50, 3.0 / 15.0);
}

TEST(XStats, ClustersOfPaperExample) {
  const auto clusters = find_x_clusters(paper_example_x_matrix());
  // Pattern sets: {0,3,4,5}×3 cells; four singleton clusters.
  ASSERT_EQ(clusters.size(), 5u);
  EXPECT_EQ(clusters[0].cells.size(), 3u);
  EXPECT_EQ(clusters[0].x_count(), 4u);
  EXPECT_EQ(clusters[0].total_x(), 12u);
  EXPECT_EQ(clusters[0].cells,
            (std::vector<std::size_t>{PaperExampleCells::sc1_c0,
                                      PaperExampleCells::sc2_c0,
                                      PaperExampleCells::sc3_c0}));
  for (std::size_t i = 1; i < clusters.size(); ++i) {
    EXPECT_EQ(clusters[i].cells.size(), 1u);
  }
}

TEST(XStats, ClusterOrderingDeterministic) {
  const auto a = find_x_clusters(paper_example_x_matrix());
  const auto b = find_x_clusters(paper_example_x_matrix());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cells, b[i].cells);
    EXPECT_TRUE(a[i].patterns == b[i].patterns);
  }
}

TEST(XStats, IdenticalSetsRequiredForClustering) {
  XMatrix::Builder b({1, 3}, 4);
  b.add_x(0, 0);
  b.add_x(0, 1);
  b.add_x(1, 0);
  b.add_x(1, 1);
  b.add_x(2, 0);  // subset, but not identical
  const XMatrix xm = b.freeze();
  const auto clusters = find_x_clusters(xm);
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].cells, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(clusters[1].cells, (std::vector<std::size_t>{2}));
}

TEST(XStats, CellFractionRejectsBadArgument) {
  const XStatistics s = compute_x_statistics(paper_example_x_matrix());
  EXPECT_THROW(s.cell_fraction_covering(1.5), std::invalid_argument);
  EXPECT_THROW(s.cell_fraction_covering(-0.1), std::invalid_argument);
}

}  // namespace
}  // namespace xh
