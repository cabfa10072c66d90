// Store-level bit-identity suite (DESIGN.md §12): the engine reading an
// XMatrixStore must land on the seed oracle's exact bits
// (partition_patterns_reference) on randomized workloads under both
// split-cell policies, and a run resumed from a checkpoint into a FRESH
// store over the same matrix, through the xh-ckpt/1 codec or through the
// service, must finish on those bits too. The suite once compared two
// store placements; its names are kept for the one that is left.
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "engine/partition_engine.hpp"
#include "engine/partition_types.hpp"
#include "kernels/kernels.hpp"
#include "response/x_matrix.hpp"
#include "service/checkpoint.hpp"
#include "service/job_runner.hpp"
#include "storage/x_matrix_store.hpp"
#include "util/rng.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

namespace fs = std::filesystem;

/// A random profile's matrix. The generator refuses some of the profiles
/// drawn here: their background X's do not fit on the X-prone cells the
/// clusters left free. Such a profile is drawn again.
XMatrix random_matrix(Rng& rng) {
  for (int attempt = 1;; ++attempt) {
    WorkloadProfile profile;
    profile.name = "xbackend";
    profile.geometry = {2 + static_cast<std::size_t>(rng.below(10)),
                        4 + static_cast<std::size_t>(rng.below(24))};
    profile.num_patterns = 16 + static_cast<std::size_t>(rng.below(300));
    profile.x_density = 0.005 + 0.10 * rng.uniform();
    profile.clustered_fraction = rng.uniform();
    profile.cluster_cells_mean = 2 + static_cast<std::size_t>(rng.below(10));
    profile.cluster_patterns_mean =
        2 + static_cast<std::size_t>(rng.below(10));
    profile.seed = rng.next_u64();
    try {
      return generate_workload(profile);
    } catch (const std::invalid_argument&) {
      if (attempt == 20) throw;
    }
  }
}

void expect_identical(const PartitionResult& want, const PartitionResult& got,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(want.partitions.size(), got.partitions.size());
  for (std::size_t i = 0; i < want.partitions.size(); ++i) {
    EXPECT_TRUE(want.partitions[i] == got.partitions[i]) << "partition " << i;
    EXPECT_TRUE(want.masks[i] == got.masks[i]) << "mask " << i;
  }
  EXPECT_EQ(want.masked_x, got.masked_x);
  EXPECT_EQ(want.leaked_x, got.leaked_x);
  EXPECT_EQ(want.total_bits, got.total_bits);
  EXPECT_EQ(want.masking_bits, got.masking_bits);
  EXPECT_EQ(want.canceling_bits, got.canceling_bits);
  ASSERT_EQ(want.history.size(), got.history.size());
  for (std::size_t i = 0; i < want.history.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    EXPECT_EQ(want.history[i].round, got.history[i].round);
    EXPECT_EQ(want.history[i].num_partitions, got.history[i].num_partitions);
    EXPECT_EQ(want.history[i].masked_x, got.history[i].masked_x);
    EXPECT_EQ(want.history[i].leaked_x, got.history[i].leaked_x);
    EXPECT_EQ(want.history[i].total_bits, got.history[i].total_bits);
    EXPECT_EQ(want.history[i].split_cell, got.history[i].split_cell);
    EXPECT_EQ(want.history[i].accepted, got.history[i].accepted);
  }
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// The headline pin: randomized (geometry, density, seed, policy)
// combinations land on the reference partitioner's bits.
TEST(CrossBackend, AllBackendsMatchTheSeedOracleOnRandomWorkloads) {
  Rng rng(20260808);
  for (int iter = 0; iter < 18; ++iter) {
    const XMatrix xm = random_matrix(rng);
    PartitionerConfig cfg;
    cfg.misr = {8 + static_cast<std::size_t>(rng.below(48)),
                2 + static_cast<std::size_t>(rng.below(6))};
    cfg.cell_choice = (iter % 2 == 0) ? SplitCellChoice::kLowestIndex
                                      : SplitCellChoice::kRandom;
    cfg.allow_singleton_groups = iter % 5 == 0;
    cfg.seed = rng.next_u64();
    const XMatrixStore store(xm);
    PartitionEngine engine(store, cfg);
    expect_identical(partition_patterns_reference(xm, cfg), engine.run(),
                     "iter " + std::to_string(iter));
  }
}

// Checkpoint resume across incarnations: interrupt at every boundary, push
// the state through the xh-ckpt/1 codec, restore into a FRESH store over
// the same matrix, finish — the oracle's exact bits.
TEST(CrossBackend, CheckpointResumeIsBitIdenticalPerBackend) {
  Rng rng(515151);
  const XMatrix xm = random_matrix(rng);
  PartitionerConfig cfg;
  cfg.misr = {16, 4};
  cfg.cell_choice = SplitCellChoice::kRandom;
  cfg.seed = 11;
  const PartitionResult oracle = partition_patterns_reference(xm, cfg);

  const XMatrixStore first(xm);
  PartitionEngine probe(first, cfg);
  const std::size_t total_rounds = probe.run().partitions.size() - 1;

  for (std::size_t k = 1; k <= total_rounds; ++k) {
    PartitionEngine interrupted(first, cfg);
    std::size_t accepted = 0;
    while (accepted < k && !interrupted.finished()) {
      if (interrupted.step() == PartitionEngine::StepOutcome::kSplit) {
        ++accepted;
      }
    }
    ASSERT_EQ(accepted, k);

    ServiceCheckpoint ckpt;
    ckpt.geometry = first.geometry();
    ckpt.num_patterns = first.num_patterns();
    ckpt.total_x = first.total_x();
    ckpt.config = cfg;
    ckpt.snapshot = interrupted.snapshot();
    const std::optional<ServiceCheckpoint> restored =
        checkpoint_from_string(checkpoint_to_string(ckpt));
    ASSERT_TRUE(restored.has_value());

    // The "next incarnation": a brand-new store over the same matrix.
    const XMatrixStore second(xm);
    std::string why;
    ASSERT_TRUE(checkpoint_matches(*restored, second.geometry(),
                                   second.num_patterns(), second.total_x(),
                                   cfg, kernels::active().name, &why))
        << why;
    PartitionEngine resumed(second, restored->config, restored->snapshot);
    expect_identical(oracle, resumed.run(), "boundary " + std::to_string(k));
  }
}

// Service-level incarnation hop: incarnation one leaves a checkpoint,
// incarnation two resumes it and lands on the uninterrupted bits.
TEST(CrossBackend, ServiceResumesEachBackendAcrossIncarnations) {
  const fs::path dir = fresh_dir("xh_xbackend_svc");
  Rng rng(616161);
  const auto xm = std::make_shared<const XMatrix>(random_matrix(rng));
  PartitionerConfig cfg;
  cfg.misr = {16, 4};
  cfg.seed = 7;
  const PartitionResult oracle = partition_patterns_reference(*xm, cfg);

  const XMatrixStore store(*xm);
  PartitionEngine interrupted(store, cfg);
  std::size_t accepted = 0;
  while (accepted < 1 && !interrupted.finished()) {
    if (interrupted.step() == PartitionEngine::StepOutcome::kSplit) {
      ++accepted;
    }
  }
  ASSERT_EQ(accepted, 1u);
  ServiceCheckpoint ckpt;
  ckpt.geometry = store.geometry();
  ckpt.num_patterns = store.num_patterns();
  ckpt.total_x = store.total_x();
  ckpt.config = cfg;
  ckpt.snapshot = interrupted.snapshot();
  ASSERT_TRUE(save_checkpoint(ckpt, (dir / "tenant.ckpt").string()));

  ServiceConfig service_cfg;
  service_cfg.workers = 1;
  service_cfg.checkpoint_dir = dir.string();
  service_cfg.checkpoint_every_rounds = 1;
  PartitionService service(service_cfg);
  JobSpec spec;
  spec.name = "tenant";
  spec.matrix = xm;
  spec.config = cfg;
  const SubmitOutcome outcome = service.submit(std::move(spec));
  ASSERT_TRUE(outcome.accepted);
  const JobResult result = service.wait(outcome.id);
  EXPECT_EQ(result.state, JobState::kCompleted);
  EXPECT_TRUE(result.resumed_from_checkpoint);
  expect_identical(oracle, result.partition, "service");
}

}  // namespace
}  // namespace xh
