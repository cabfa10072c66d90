// Kill-and-resume pin (DESIGN.md §11): a run interrupted at ANY accepted
// round boundary and resumed through the xh-ckpt/1 codec must finish
// bit-identically to the uninterrupted run — same partitions, masks,
// accounting and history. This is the prefix property that makes deadline
// degradation and crash recovery safe, checked both at the engine level
// (every boundary, exhaustively) and through PartitionService end to end.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "engine/partition_engine.hpp"
#include "engine/partition_types.hpp"
#include "kernels/kernels.hpp"
#include "response/x_matrix.hpp"
#include "service/checkpoint.hpp"
#include "service/job_runner.hpp"
#include "storage/x_matrix_store.hpp"
#include "util/clock.hpp"
#include "util/diagnostics.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

namespace fs = std::filesystem;

XMatrix small_workload(std::uint64_t seed) {
  WorkloadProfile profile;
  profile.name = "resume";
  profile.geometry = {6, 24};
  profile.num_patterns = 96;
  profile.x_density = 0.05;
  profile.clustered_fraction = 0.5;
  profile.cluster_cells_mean = 6;
  profile.cluster_patterns_mean = 8;
  profile.seed = seed;
  return generate_workload(profile);
}

PartitionerConfig small_config() {
  PartitionerConfig cfg;
  cfg.misr = {16, 4};
  cfg.seed = 7;
  return cfg;
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

/// Steps a fresh engine to exactly @p rounds accepted splits. Returns
/// false when the search stopped before reaching that boundary.
bool step_to(PartitionEngine& engine, std::size_t rounds) {
  std::size_t accepted = 0;
  while (accepted < rounds && !engine.finished()) {
    if (engine.step() == PartitionEngine::StepOutcome::kSplit) ++accepted;
  }
  return accepted == rounds;
}

ServiceCheckpoint checkpoint_at(const XMatrixStore& store,
                                const PartitionerConfig& cfg,
                                const PartitionEngine& engine) {
  ServiceCheckpoint ckpt;
  ckpt.geometry = store.geometry();
  ckpt.num_patterns = store.num_patterns();
  ckpt.total_x = store.total_x();
  ckpt.config = cfg;
  ckpt.isa = kernels::active().name;
  ckpt.snapshot = engine.snapshot();
  return ckpt;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// The exhaustive boundary sweep: for EVERY k in [1, rounds), interrupt a
// fresh run after k accepted rounds, push the state through the text codec,
// restore, finish — and demand the oracle's exact bits. Both split-cell
// policies run, so the serialized RNG state is load-bearing, not décor.
TEST(Resume, EveryRoundBoundaryResumesBitIdentically) {
  for (const SplitCellChoice choice :
       {SplitCellChoice::kLowestIndex, SplitCellChoice::kRandom}) {
    const XMatrix xm = small_workload(21);
    const XMatrixStore store(xm);
    PartitionerConfig cfg = small_config();
    cfg.cell_choice = choice;
    const std::string policy =
        choice == SplitCellChoice::kRandom ? "random" : "lowest";

    PartitionEngine oracle_engine(store, cfg);
    const PartitionResult oracle = oracle_engine.run();
    const std::size_t total_rounds = oracle.partitions.size() - 1;
    ASSERT_GE(total_rounds, 3u)
        << "workload too easy to exercise multiple boundaries";

    for (std::size_t k = 1; k <= total_rounds; ++k) {
      PartitionEngine interrupted(store, cfg);
      ASSERT_TRUE(step_to(interrupted, k));

      Diagnostics diags;
      const std::optional<ServiceCheckpoint> restored = checkpoint_from_string(
          checkpoint_to_string(checkpoint_at(store, cfg, interrupted)), &diags);
      ASSERT_TRUE(restored.has_value())
          << "codec rejected a clean checkpoint at boundary " << k;

      std::string why;
      ASSERT_TRUE(checkpoint_matches(*restored, store.geometry(),
                                     store.num_patterns(), store.total_x(),
                                     cfg, kernels::active().name, &why))
          << why;
      PartitionEngine resumed(store, restored->config, restored->snapshot);
      expect_identical(oracle, resumed.run(),
                       policy + " boundary " + std::to_string(k) + "/" +
                           std::to_string(total_rounds));
    }
  }
}

// A checkpoint of the finished state must also restore: resuming yields
// the final result immediately, with no extra rounds consumed.
TEST(Resume, FinishedStateRestoresAsFinished) {
  const XMatrix xm = small_workload(22);
  const XMatrixStore store(xm);
  const PartitionerConfig cfg = small_config();
  PartitionEngine engine(store, cfg);
  const PartitionResult oracle = engine.run();

  const std::optional<ServiceCheckpoint> restored = checkpoint_from_string(
      checkpoint_to_string(checkpoint_at(store, cfg, engine)));
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->snapshot.done);
  PartitionEngine resumed(store, restored->config, restored->snapshot);
  EXPECT_TRUE(resumed.finished());
  expect_identical(oracle, resumed.run(), "finished restore");
}

// Service-level resume: a checkpoint file left by a previous incarnation
// is picked up by job name, resumed, and the finished job deletes it.
TEST(Resume, ServiceResumesFromCheckpointFileBitIdentically) {
  const fs::path dir = fresh_dir("xh_resume_svc");
  const auto xm = std::make_shared<const XMatrix>(small_workload(23));
  const XMatrixStore store(*xm);
  const PartitionerConfig cfg = small_config();

  PartitionEngine oracle_engine(store, cfg);
  const PartitionResult oracle = oracle_engine.run();

  PartitionEngine interrupted(store, cfg);
  ASSERT_TRUE(step_to(interrupted, 2));
  const fs::path ckpt_path = dir / "tenant-a.ckpt";
  ASSERT_TRUE(save_checkpoint(checkpoint_at(store, cfg, interrupted),
                              ckpt_path.string()));

  ServiceConfig service_cfg;
  service_cfg.workers = 1;
  service_cfg.checkpoint_dir = dir.string();
  service_cfg.checkpoint_every_rounds = 1;
  PartitionService service(service_cfg);
  JobSpec spec;
  spec.name = "tenant-a";
  spec.matrix = xm;
  spec.config = cfg;
  const SubmitOutcome outcome = service.submit(std::move(spec));
  ASSERT_TRUE(outcome.accepted);
  const JobResult result = service.wait(outcome.id);

  EXPECT_EQ(result.state, JobState::kCompleted);
  EXPECT_TRUE(result.resumed_from_checkpoint);
  expect_identical(oracle, result.partition, "service resume");
  EXPECT_EQ(service.stats().checkpoints_resumed, 1u);
  // Completion retires the checkpoint; a rerun would start fresh.
  EXPECT_FALSE(fs::exists(ckpt_path));
}

// The full degradation → restart story across two service incarnations:
// incarnation one times out (deadline token fires at a round boundary),
// keeps its checkpoint; incarnation two resumes and must land on the
// uninterrupted oracle's exact bits.
TEST(Resume, DegradedJobsCheckpointSurvivesIntoTheNextIncarnation) {
  const fs::path dir = fresh_dir("xh_resume_degraded");
  const auto xm = std::make_shared<const XMatrix>(small_workload(24));
  const XMatrixStore store(*xm);
  const PartitionerConfig cfg = small_config();
  PartitionEngine oracle_engine(store, cfg);
  const PartitionResult oracle = oracle_engine.run();

  ManualClock clock;
  const fs::path ckpt_path = dir / "tenant-b.ckpt";
  {
    ServiceConfig service_cfg;
    service_cfg.workers = 1;
    service_cfg.checkpoint_dir = dir.string();
    service_cfg.checkpoint_every_rounds = 1;
    service_cfg.clock = &clock;
    PartitionService service(service_cfg);
    // The chaos hook runs at attempt start: burning the whole budget there
    // makes the deadline fire deterministically at the FIRST boundary.
    service.set_fault_hook(
        [&clock](JobId, std::size_t) { clock.advance(10'000); });
    JobSpec spec;
    spec.name = "tenant-b";
    spec.matrix = xm;
    spec.config = cfg;
    spec.deadline_ns = 100;
    const SubmitOutcome outcome = service.submit(std::move(spec));
    ASSERT_TRUE(outcome.accepted);
    const JobResult degraded = service.wait(outcome.id);
    EXPECT_EQ(degraded.state, JobState::kDegraded);
    EXPECT_TRUE(degraded.partition.interrupted);
    EXPECT_GT(degraded.diagnostics.count(DiagKind::kDeadlineExceeded), 0u);
    service.shutdown();
    EXPECT_TRUE(fs::exists(ckpt_path))
        << "a degraded job must keep its checkpoint for the next run";
  }
  {
    ServiceConfig service_cfg;
    service_cfg.workers = 1;
    service_cfg.checkpoint_dir = dir.string();
    service_cfg.checkpoint_every_rounds = 1;
    PartitionService service(service_cfg);
    JobSpec spec;
    spec.name = "tenant-b";
    spec.matrix = xm;
    spec.config = cfg;
    const SubmitOutcome outcome = service.submit(std::move(spec));
    ASSERT_TRUE(outcome.accepted);
    const JobResult finished = service.wait(outcome.id);
    EXPECT_EQ(finished.state, JobState::kCompleted);
    EXPECT_TRUE(finished.resumed_from_checkpoint);
    expect_identical(oracle, finished.partition, "second incarnation");
    EXPECT_FALSE(fs::exists(ckpt_path));
  }
}

// A checkpoint from a DIFFERENT configuration must be refused (identity
// check), reported, and the job rerun from scratch — still bit-identical.
TEST(Resume, ForeignCheckpointIsRefusedAndJobRunsFresh) {
  const fs::path dir = fresh_dir("xh_resume_foreign");
  const auto xm = std::make_shared<const XMatrix>(small_workload(25));
  const XMatrixStore store(*xm);
  const PartitionerConfig cfg = small_config();
  PartitionEngine oracle_engine(store, cfg);
  const PartitionResult oracle = oracle_engine.run();

  PartitionerConfig foreign = cfg;
  foreign.seed = 999;
  PartitionEngine other(store, foreign);
  ASSERT_TRUE(step_to(other, 1));
  ASSERT_TRUE(save_checkpoint(checkpoint_at(store, foreign, other),
                              (dir / "tenant-c.ckpt").string()));

  ServiceConfig service_cfg;
  service_cfg.workers = 1;
  service_cfg.checkpoint_dir = dir.string();
  service_cfg.checkpoint_every_rounds = 1;
  PartitionService service(service_cfg);
  JobSpec spec;
  spec.name = "tenant-c";
  spec.matrix = xm;
  spec.config = cfg;
  const SubmitOutcome outcome = service.submit(std::move(spec));
  ASSERT_TRUE(outcome.accepted);
  const JobResult result = service.wait(outcome.id);
  EXPECT_EQ(result.state, JobState::kCompleted);
  EXPECT_FALSE(result.resumed_from_checkpoint);
  EXPECT_GT(result.diagnostics.count(DiagKind::kCheckpointCorrupt), 0u);
  expect_identical(oracle, result.partition, "fresh after refusal");
}

// A checkpoint in the older format, with a store line after config, is
// damaged input now: it is refused with kCheckpointCorrupt, and the job
// runs fresh to the uninterrupted bits instead of resuming it.
TEST(Resume, CheckpointWithAStoreLineIsCorruptAndJobRunsFresh) {
  const fs::path dir = fresh_dir("xh_resume_store_line");
  const auto xm = std::make_shared<const XMatrix>(small_workload(26));
  const XMatrixStore store(*xm);
  const PartitionerConfig cfg = small_config();
  PartitionEngine oracle_engine(store, cfg);
  const PartitionResult oracle = oracle_engine.run();

  PartitionEngine interrupted(store, cfg);
  ASSERT_TRUE(step_to(interrupted, 2));
  const std::string text =
      checkpoint_to_string(checkpoint_at(store, cfg, interrupted));
  ASSERT_TRUE(checkpoint_from_string(text).has_value());
  // Insert the line after config and recompute the end checksum, so only
  // the grammar can refuse the file.
  const std::size_t config_eol = text.find('\n', text.find("\nconfig ") + 1);
  const std::size_t end_pos = text.rfind("\nend ");
  ASSERT_NE(config_eol, std::string::npos);
  ASSERT_NE(end_pos, std::string::npos);
  const std::string body = text.substr(0, config_eol + 1) + "store csr\n" +
                           text.substr(config_eol + 1, end_pos - config_eol);
  std::uint64_t sum = 1469598103934665603ULL;  // FNV-1a over the body
  for (const char c : body) {
    sum ^= static_cast<unsigned char>(c);
    sum *= 1099511628211ULL;
  }
  char trailer[32];
  std::snprintf(trailer, sizeof trailer, "end %llx\n",
                static_cast<unsigned long long>(sum));
  const std::string old_format = body + trailer;
  Diagnostics diags;
  EXPECT_FALSE(checkpoint_from_string(old_format, &diags).has_value());
  ASSERT_EQ(diags.records().size(), 1u);
  EXPECT_NE(diags.records()[0].message.find("expected 'state' record"),
            std::string::npos)
      << "the checksum must match, so the grammar refuses the file: "
      << diags.records()[0].message;
  {
    std::ofstream out(dir / "tenant-d.ckpt", std::ios::binary);
    out << old_format;
  }

  ServiceConfig service_cfg;
  service_cfg.workers = 1;
  service_cfg.checkpoint_dir = dir.string();
  service_cfg.checkpoint_every_rounds = 1;
  PartitionService service(service_cfg);
  JobSpec spec;
  spec.name = "tenant-d";
  spec.matrix = xm;
  spec.config = cfg;
  const SubmitOutcome outcome = service.submit(std::move(spec));
  ASSERT_TRUE(outcome.accepted);
  const JobResult result = service.wait(outcome.id);
  EXPECT_EQ(result.state, JobState::kCompleted);
  EXPECT_FALSE(result.resumed_from_checkpoint);
  EXPECT_GT(result.diagnostics.count(DiagKind::kCheckpointCorrupt), 0u);
  expect_identical(oracle, result.partition, "fresh after a store line");
}

}  // namespace
}  // namespace xh
