#include "workload/industrial.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "response/x_stats.hpp"

namespace xh {
namespace {

TEST(Workload, ProfilesMatchTable1Geometry) {
  EXPECT_EQ(ckt_a_profile().geometry.num_cells(), 505050u);
  EXPECT_EQ(ckt_b_profile().geometry.num_cells(), 36075u);
  EXPECT_EQ(ckt_c_profile().geometry.num_cells(), 97643u);
  EXPECT_EQ(ckt_a_profile().geometry.chain_length, 481u);
  EXPECT_EQ(ckt_b_profile().geometry.chain_length, 481u);
  EXPECT_EQ(ckt_c_profile().geometry.chain_length, 481u);
  EXPECT_EQ(ckt_b_profile().num_patterns, 3000u);
}

TEST(Workload, ScaledProfileShrinks) {
  const WorkloadProfile p = scaled_profile(ckt_b_profile(), 0.1);
  EXPECT_LT(p.geometry.num_cells(), ckt_b_profile().geometry.num_cells());
  EXPECT_LT(p.num_patterns, ckt_b_profile().num_patterns);
  EXPECT_DOUBLE_EQ(p.x_density, ckt_b_profile().x_density);
  EXPECT_THROW(scaled_profile(ckt_b_profile(), 0.0), std::invalid_argument);
  EXPECT_THROW(scaled_profile(ckt_b_profile(), 2.0), std::invalid_argument);
}

class WorkloadGeneration : public ::testing::Test {
 protected:
  static const XMatrix& matrix() {
    static const XMatrix xm =
        generate_workload(scaled_profile(ckt_b_profile(), 0.12));
    return xm;
  }
};

TEST_F(WorkloadGeneration, HitsDensityTarget) {
  const WorkloadProfile p = scaled_profile(ckt_b_profile(), 0.12);
  const double realized = matrix().x_density();
  EXPECT_NEAR(realized, p.x_density, p.x_density * 0.05);
}

TEST_F(WorkloadGeneration, DeterministicInSeed) {
  const WorkloadProfile p = scaled_profile(ckt_b_profile(), 0.12);
  const XMatrix a = generate_workload(p);
  EXPECT_EQ(a.total_x(), matrix().total_x());
  for (const std::size_t cell : a.x_cells()) {
    EXPECT_TRUE(a.patterns_of(cell) == matrix().patterns_of(cell));
  }
}

TEST_F(WorkloadGeneration, SeedChangesDistribution) {
  WorkloadProfile p = scaled_profile(ckt_b_profile(), 0.12);
  p.seed ^= 0xdeadbeef;
  const XMatrix b = generate_workload(p);
  // Same scale, different placement.
  EXPECT_NEAR(static_cast<double>(b.total_x()),
              static_cast<double>(matrix().total_x()),
              0.1 * static_cast<double>(matrix().total_x()));
  bool any_difference = false;
  for (const std::size_t cell : matrix().x_cells()) {
    if (!(b.patterns_of(cell) == matrix().patterns_of(cell))) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(WorkloadGeneration, ContainsRealClusters) {
  // The generator must produce groups of cells with identical pattern sets
  // (Section 3's inter-correlation), sized well above noise.
  const auto clusters = find_x_clusters(matrix());
  ASSERT_FALSE(clusters.empty());
  EXPECT_GE(clusters.front().cells.size(), 5u);
  EXPECT_GE(clusters.front().x_count(), 10u);
}

TEST_F(WorkloadGeneration, XsAreConcentrated) {
  // Section 3: 90 % of X's in a small fraction of cells. With the scatter
  // stripe + clusters, 90 % of X's should live in well under half the cells.
  const XStatistics s = compute_x_statistics(matrix());
  EXPECT_LT(s.cell_fraction_covering(0.9), 0.35);
}

TEST(Workload, BadProfileRejected) {
  WorkloadProfile p = ckt_b_profile();
  p.x_density = 0.0;
  EXPECT_THROW(generate_workload(p), std::invalid_argument);
  p = ckt_b_profile();
  p.clustered_fraction = 1.5;
  EXPECT_THROW(generate_workload(p), std::invalid_argument);
}

TEST(Workload, ZeroClusteredFractionStillHitsDensity) {
  WorkloadProfile p = scaled_profile(ckt_b_profile(), 0.1);
  p.clustered_fraction = 0.0;
  const XMatrix xm = generate_workload(p);
  EXPECT_NEAR(xm.x_density(), p.x_density, p.x_density * 0.05);
}

/// Expects generate_workload(@p p) to throw std::invalid_argument with
/// @p words in its message.
void expect_refused(const WorkloadProfile& p, const std::string& words) {
  try {
    (void)generate_workload(p);
    ADD_FAILURE() << "accepted; expected a refusal naming " << words;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(words), std::string::npos)
        << e.what();
  }
}

// Background X's land only on the X-prone stripe (4 % of the cells, at
// least 32). A background it cannot hold is refused, naming the largest
// density it does hold, instead of coming back silently short.
TEST(Workload, RefusesABackgroundTheStripeCannotHold) {
  // What `xhybrid_cli analyze --chains 20 --length 100 --patterns 500
  // --density 0.10 --clustered 0` asks for: 80 of 2,000 cells hold 4 %.
  WorkloadProfile cli;
  cli.name = "cli";
  cli.geometry = {20, 100};
  cli.num_patterns = 500;
  cli.x_density = 0.10;
  cli.clustered_fraction = 0.0;
  cli.cluster_cells_mean = 50;
  cli.cluster_patterns_mean = 100;
  expect_refused(cli, "holds at most 0.04;");

  // 126 of 3,168 cells hold 3.98 %.
  WorkloadProfile b = scaled_profile(ckt_b_profile(), 0.3);
  b.clustered_fraction = 0.0;
  for (const double density : {0.05, 0.10}) {
    SCOPED_TRACE(density);
    b.x_density = density;
    expect_refused(b, "holds at most 0.0397727;");
  }
  // Just under the stripe's capacity the target is still met.
  b.x_density = 0.035;
  const XMatrix xm = generate_workload(b);
  EXPECT_NEAR(static_cast<double>(xm.total_x()),
              static_cast<double>(b.target_total_x()),
              0.01 * static_cast<double>(b.target_total_x()));
}

TEST(Workload, RefusesZeroClusterMeansWhenClustering) {
  WorkloadProfile p = scaled_profile(ckt_b_profile(), 0.1);
  p.cluster_cells_mean = 0;
  expect_refused(p, "cluster_cells_mean");
  p = scaled_profile(ckt_b_profile(), 0.1);
  p.cluster_patterns_mean = 0;
  expect_refused(p, "cluster_patterns_mean");
  // With no clusters to draw, the means are never read.
  p.clustered_fraction = 0.0;
  EXPECT_GT(generate_workload(p).total_x(), 0u);
}

// --- golden matrices ---------------------------------------------------------
// The Table 1 inputs, pinned bit for bit: the row count, the X count, then
// an FNV-1a fold over whole 64-bit values of every x_cells() entry, every
// row_counts() entry and every row's pattern words, rows ascending. A change
// that moves any generated X, or any RNG draw behind one, shows up here.

struct Golden {
  std::size_t rows;
  std::size_t total_x;
  std::uint64_t hash;
};

std::uint64_t fingerprint(const XMatrix& xm) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto fold = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  fold(xm.num_rows());
  fold(xm.total_x());
  for (const std::uint64_t cell : xm.x_cells()) fold(cell);
  for (const std::uint64_t count : xm.row_counts()) fold(count);
  for (std::size_t r = 0; r < xm.num_rows(); ++r) {
    for (std::size_t w = 0; w < xm.words_per_row(); ++w) {
      fold(xm.row_words(r)[w]);
    }
  }
  return h;
}

void expect_golden(const WorkloadProfile& profile, const Golden& want) {
  const XMatrix xm = generate_workload(profile);
  EXPECT_EQ(xm.num_rows(), want.rows) << profile.name;
  EXPECT_EQ(xm.total_x(), want.total_x) << profile.name;
  EXPECT_EQ(fingerprint(xm), want.hash) << profile.name;
}

TEST(WorkloadGolden, CktA) {
  expect_golden(ckt_a_profile(), {21191, 757575, 0x6661b716e62a01a3ULL});
}

TEST(WorkloadGolden, CktB) {
  expect_golden(ckt_b_profile(), {3998, 2976187, 0xf698f734d9fadd08ULL});
}

TEST(WorkloadGolden, CktC) {
  expect_golden(ckt_c_profile(), {9471, 6971710, 0xdfa4523bd8f9edaeULL});
}

TEST(WorkloadGolden, ScaledProfiles) {
  const struct {
    WorkloadProfile profile;
    std::uint64_t hash;
  } kCases[] = {
      {scaled_profile(ckt_a_profile(), 0.05), 0x611f9803820d029cULL},
      {scaled_profile(ckt_b_profile(), 0.05), 0x5dc43ff9dc45b7f8ULL},
      {scaled_profile(ckt_c_profile(), 0.05), 0x63e1d688739463adULL},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(fingerprint(generate_workload(c.profile)), c.hash)
        << c.profile.name;
  }
}

}  // namespace
}  // namespace xh
