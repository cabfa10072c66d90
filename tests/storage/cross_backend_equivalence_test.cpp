// Cross-backend bit-identity suite (DESIGN.md §12): the partition search
// must not care where the X matrix lives. For randomized workloads, both
// store placements — csr (heap) and mmap (mapped spill file) — must drive
// the engine to the seed oracle's exact bits (partition_patterns_reference),
// agree at EVERY accepted round boundary, under both split-cell policies,
// and resume from a checkpoint taken against one incarnation into a fresh
// store of the same placement bit-identically. This is the contract that
// makes --xm-backend a pure capacity knob, never a results knob.
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "engine/partition_engine.hpp"
#include "engine/partition_types.hpp"
#include "kernels/kernels.hpp"
#include "response/x_matrix.hpp"
#include "service/checkpoint.hpp"
#include "service/job_runner.hpp"
#include "storage/store_factory.hpp"
#include "storage/x_matrix_store.hpp"
#include "util/diagnostics.hpp"
#include "util/rng.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

namespace fs = std::filesystem;

constexpr XmBackend kAllBackends[] = {XmBackend::kCsr, XmBackend::kMmap};

XMatrix random_matrix(Rng& rng) {
  WorkloadProfile profile;
  profile.name = "xbackend";
  profile.geometry = {2 + static_cast<std::size_t>(rng.below(10)),
                      4 + static_cast<std::size_t>(rng.below(24))};
  profile.num_patterns = 16 + static_cast<std::size_t>(rng.below(300));
  profile.x_density = 0.005 + 0.10 * rng.uniform();
  profile.clustered_fraction = rng.uniform();
  profile.cluster_cells_mean = 2 + static_cast<std::size_t>(rng.below(10));
  profile.cluster_patterns_mean = 2 + static_cast<std::size_t>(rng.below(10));
  profile.seed = rng.next_u64();
  return generate_workload(profile);
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
// combinations; every backend lands on the reference partitioner's bits.
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
    const PartitionResult want = partition_patterns_reference(xm, cfg);
    for (const XmBackend backend : kAllBackends) {
      const std::unique_ptr<XMatrixStore> store = make_store(xm, backend);
      PartitionEngine engine(*store, cfg);
      expect_identical(want, engine.run(),
                       "iter " + std::to_string(iter) + " " +
                           store->backend_name());
    }
  }
}

// Lockstep stepping: the backends agree not only on the final result but at
// every intermediate round boundary — same outcome, same accepted history.
TEST(CrossBackend, BackendsAgreeAtEveryRoundBoundary) {
  Rng rng(424242);
  for (const SplitCellChoice choice :
       {SplitCellChoice::kLowestIndex, SplitCellChoice::kRandom}) {
    const XMatrix xm = random_matrix(rng);
    PartitionerConfig cfg;
    cfg.misr = {16, 4};
    cfg.cell_choice = choice;
    cfg.seed = 7;

    std::vector<std::unique_ptr<XMatrixStore>> stores;
    std::vector<std::unique_ptr<PartitionEngine>> engines;
    for (const XmBackend backend : kAllBackends) {
      stores.push_back(make_store(xm, backend));
      engines.push_back(std::make_unique<PartitionEngine>(*stores.back(), cfg));
    }
    while (!engines.front()->finished()) {
      const PartitionEngine::StepOutcome want = engines.front()->step();
      for (std::size_t i = 1; i < engines.size(); ++i) {
        SCOPED_TRACE(stores[i]->backend_name());
        EXPECT_EQ(engines[i]->step(), want);
        EXPECT_EQ(engines[i]->num_partitions(),
                  engines.front()->num_partitions());
        EXPECT_EQ(engines[i]->masked_x(), engines.front()->masked_x());
        EXPECT_EQ(engines[i]->finished(), engines.front()->finished());
      }
    }
  }
}

// Checkpoint resume across incarnations, per backend: interrupt at every
// boundary, push the state through the xh-ckpt/1 codec, restore into a
// FRESH store of the same backend, finish — the oracle's exact bits.
TEST(CrossBackend, CheckpointResumeIsBitIdenticalPerBackend) {
  Rng rng(515151);
  const XMatrix xm = random_matrix(rng);
  PartitionerConfig cfg;
  cfg.misr = {16, 4};
  cfg.cell_choice = SplitCellChoice::kRandom;
  cfg.seed = 11;
  const PartitionResult oracle = partition_patterns_reference(xm, cfg);

  for (const XmBackend backend : kAllBackends) {
    const std::unique_ptr<XMatrixStore> first = make_store(xm, backend);
    SCOPED_TRACE(first->backend_name());
    PartitionEngine probe(*first, cfg);
    const std::size_t total_rounds = probe.run().partitions.size() - 1;

    for (std::size_t k = 1; k <= total_rounds; ++k) {
      PartitionEngine interrupted(*first, cfg);
      std::size_t accepted = 0;
      while (accepted < k && !interrupted.finished()) {
        if (interrupted.step() == PartitionEngine::StepOutcome::kSplit) {
          ++accepted;
        }
      }
      ASSERT_EQ(accepted, k);

      ServiceCheckpoint ckpt;
      ckpt.geometry = first->geometry();
      ckpt.num_patterns = first->num_patterns();
      ckpt.total_x = first->total_x();
      ckpt.config = cfg;
      ckpt.backend = first->backend_name();
      ckpt.snapshot = interrupted.snapshot();
      const std::optional<ServiceCheckpoint> restored =
          checkpoint_from_string(checkpoint_to_string(ckpt));
      ASSERT_TRUE(restored.has_value());
      EXPECT_EQ(restored->backend, first->backend_name());

      // The "next incarnation": a brand-new store of the same backend.
      const std::unique_ptr<XMatrixStore> second = make_store(xm, backend);
      std::string why;
      ASSERT_TRUE(checkpoint_matches(
          *restored, second->geometry(), second->num_patterns(),
          second->total_x(), cfg, second->backend_name(),
          kernels::active().name, &why))
          << why;
      PartitionEngine resumed(*second, restored->config, restored->snapshot);
      expect_identical(oracle, resumed.run(),
                       "boundary " + std::to_string(k));
    }
  }
}

// Service-level incarnation hop per backend: incarnation one leaves a
// checkpoint, incarnation two (configured for the same backend) resumes it
// and lands on the uninterrupted bits.
TEST(CrossBackend, ServiceResumesEachBackendAcrossIncarnations) {
  const fs::path dir = fresh_dir("xh_xbackend_svc");
  Rng rng(616161);
  const auto xm = std::make_shared<const XMatrix>(random_matrix(rng));
  PartitionerConfig cfg;
  cfg.misr = {16, 4};
  cfg.seed = 7;
  const PartitionResult oracle = partition_patterns_reference(*xm, cfg);

  for (const XmBackend backend : kAllBackends) {
    const std::unique_ptr<XMatrixStore> store = make_store(*xm, backend);
    SCOPED_TRACE(store->backend_name());
    const std::string name = std::string("tenant-") + store->backend_name();

    PartitionEngine interrupted(*store, cfg);
    std::size_t accepted = 0;
    while (accepted < 1 && !interrupted.finished()) {
      if (interrupted.step() == PartitionEngine::StepOutcome::kSplit) {
        ++accepted;
      }
    }
    ASSERT_EQ(accepted, 1u);
    ServiceCheckpoint ckpt;
    ckpt.geometry = store->geometry();
    ckpt.num_patterns = store->num_patterns();
    ckpt.total_x = store->total_x();
    ckpt.config = cfg;
    ckpt.backend = store->backend_name();
    ckpt.snapshot = interrupted.snapshot();
    ASSERT_TRUE(save_checkpoint(ckpt, (dir / (name + ".ckpt")).string()));

    ServiceConfig service_cfg;
    service_cfg.workers = 1;
    service_cfg.checkpoint_dir = dir.string();
    service_cfg.checkpoint_every_rounds = 1;
    service_cfg.xm_backend = backend;
    PartitionService service(service_cfg);
    JobSpec spec;
    spec.name = name;
    spec.matrix = xm;
    spec.config = cfg;
    spec.xm_backend = backend;
    const SubmitOutcome outcome = service.submit(std::move(spec));
    ASSERT_TRUE(outcome.accepted);
    const JobResult result = service.wait(outcome.id);
    EXPECT_EQ(result.state, JobState::kCompleted);
    EXPECT_TRUE(result.resumed_from_checkpoint);
    expect_identical(oracle, result.partition, "service " + name);
  }
}

// Switching the backend between incarnations must refuse the resume (the
// checkpoint records its store identity) and rerun fresh — still to the
// oracle's bits, with the refusal reported.
TEST(CrossBackend, BackendSwitchRefusesTheCheckpointAndRerunsFresh) {
  const fs::path dir = fresh_dir("xh_xbackend_switch");
  Rng rng(717171);
  const auto xm = std::make_shared<const XMatrix>(random_matrix(rng));
  PartitionerConfig cfg;
  cfg.misr = {16, 4};
  cfg.seed = 7;
  const PartitionResult oracle = partition_patterns_reference(*xm, cfg);

  // Incarnation one ran csr and left a checkpoint...
  const std::unique_ptr<XMatrixStore> store = make_store(*xm, XmBackend::kCsr);
  PartitionEngine interrupted(*store, cfg);
  std::size_t accepted = 0;
  while (accepted < 1 && !interrupted.finished()) {
    if (interrupted.step() == PartitionEngine::StepOutcome::kSplit) ++accepted;
  }
  ASSERT_EQ(accepted, 1u);
  ServiceCheckpoint ckpt;
  ckpt.geometry = store->geometry();
  ckpt.num_patterns = store->num_patterns();
  ckpt.total_x = store->total_x();
  ckpt.config = cfg;
  ckpt.backend = store->backend_name();
  ckpt.snapshot = interrupted.snapshot();
  ASSERT_TRUE(save_checkpoint(ckpt, (dir / "tenant-switch.ckpt").string()));

  // ...incarnation two runs mmap: same bits, but via a fresh full run.
  ServiceConfig service_cfg;
  service_cfg.workers = 1;
  service_cfg.checkpoint_dir = dir.string();
  service_cfg.checkpoint_every_rounds = 1;
  PartitionService service(service_cfg);
  JobSpec spec;
  spec.name = "tenant-switch";
  spec.matrix = xm;
  spec.config = cfg;
  spec.xm_backend = XmBackend::kMmap;
  const SubmitOutcome outcome = service.submit(std::move(spec));
  ASSERT_TRUE(outcome.accepted);
  const JobResult result = service.wait(outcome.id);
  EXPECT_EQ(result.state, JobState::kCompleted);
  EXPECT_FALSE(result.resumed_from_checkpoint);
  EXPECT_GT(result.diagnostics.count(DiagKind::kCheckpointCorrupt), 0u)
      << "the backend switch must be reported, not silent";
  expect_identical(oracle, result.partition, "fresh after switch");
}

}  // namespace
}  // namespace xh
