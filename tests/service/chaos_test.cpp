// Chaos suite for the resident service (DESIGN.md §11): seeded fault
// injection from src/inject/ attacks checkpoint files, source files, the
// clock and the queue, and the service must degrade along its ladder —
// reject, retry, resume-from-scratch, best-so-far — without ever producing
// wrong bits, leaking jobs, or dying. Every attack is driven by a seeded
// Corruptor, so a failure reproduces from the seed alone.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "engine/partition_engine.hpp"
#include "engine/partition_types.hpp"
#include "inject/corruptor.hpp"
#include "response/io.hpp"
#include "response/x_matrix.hpp"
#include "service/checkpoint.hpp"
#include "service/job_runner.hpp"
#include "storage/x_matrix_store.hpp"
#include "util/bitvec.hpp"
#include "util/clock.hpp"
#include "util/diagnostics.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

namespace fs = std::filesystem;

XMatrix small_workload(std::uint64_t seed) {
  WorkloadProfile profile;
  profile.name = "chaos";
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

void expect_same_bits(const PartitionResult& want,
                      const PartitionResult& got) {
  ASSERT_EQ(want.partitions.size(), got.partitions.size());
  for (std::size_t i = 0; i < want.partitions.size(); ++i) {
    EXPECT_TRUE(want.partitions[i] == got.partitions[i]) << "partition " << i;
    EXPECT_TRUE(want.masks[i] == got.masks[i]) << "mask " << i;
  }
  EXPECT_EQ(want.total_bits, got.total_bits);
  EXPECT_EQ(want.masked_x, got.masked_x);
  EXPECT_EQ(want.leaked_x, got.leaked_x);
}

void expect_valid_cover(const PartitionResult& result,
                        std::size_t num_patterns) {
  BitVec cover(num_patterns);
  std::size_t total = 0;
  for (const BitVec& patterns : result.partitions) {
    total += patterns.count();
    cover |= patterns;
  }
  EXPECT_EQ(total, num_patterns);
  EXPECT_EQ(cover.count(), num_patterns);
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spit(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// A checkpoint file from a genuine run interrupted after two rounds.
void plant_checkpoint(const fs::path& path, const XMatrix& xm,
                      const PartitionerConfig& cfg) {
  const XMatrixStore store(xm);
  PartitionEngine engine(store, cfg);
  std::size_t accepted = 0;
  while (accepted < 2 && !engine.finished()) {
    if (engine.step() == PartitionEngine::StepOutcome::kSplit) ++accepted;
  }
  ServiceCheckpoint ckpt;
  ckpt.geometry = xm.geometry();
  ckpt.num_patterns = xm.num_patterns();
  ckpt.total_x = xm.total_x();
  ckpt.config = cfg;
  ckpt.snapshot = engine.snapshot();
  ASSERT_TRUE(save_checkpoint(ckpt, path.string()));
}

// Damaged checkpoints must never damage results: every attack is detected,
// reported as kCheckpointCorrupt, and the job reruns from scratch to the
// exact uninterrupted bits.
TEST(ServiceChaos, CorruptedCheckpointsFallBackToBitIdenticalFreshRuns) {
  const fs::path dir = fresh_dir("xh_chaos_ckpt");
  const auto xm = std::make_shared<const XMatrix>(small_workload(101));
  const PartitionerConfig cfg = small_config();
  const PartitionResult oracle = partition_patterns(*xm, cfg);

  Corruptor chaos(0xbadc0de);
  struct Attack {
    const char* name;
    std::string text;
  };
  const fs::path seed_path = dir / "seed.ckpt";
  plant_checkpoint(seed_path, *xm, cfg);
  const std::string intact = slurp(seed_path);
  const std::vector<Attack> attacks = {
      {"truncate-hard", chaos.truncate_text(intact, 0.3)},
      {"truncate-soft", chaos.truncate_text(intact, 0.9)},
      {"garble-one", chaos.garble_text(intact, 1)},
      {"garble-many", chaos.garble_text(intact, 40)},
      {"duplicate-line", chaos.duplicate_line(intact)},
      {"zero-length", std::string()},
      {"foreign-format", "xmatrix v1 6 24 96\nend 0\n"},
  };

  for (std::size_t i = 0; i < attacks.size(); ++i) {
    SCOPED_TRACE(attacks[i].name);
    const std::string job_name = "victim-" + std::to_string(i);
    spit(dir / (job_name + ".ckpt"), attacks[i].text);

    ServiceConfig service_cfg;
    service_cfg.workers = 1;
    service_cfg.checkpoint_dir = dir.string();
    service_cfg.checkpoint_every_rounds = 1;
    PartitionService service(service_cfg);
    JobSpec spec;
    spec.name = job_name;
    spec.matrix = xm;
    spec.config = cfg;
    const SubmitOutcome outcome = service.submit(std::move(spec));
    ASSERT_TRUE(outcome.accepted);
    const JobResult result = service.wait(outcome.id);

    EXPECT_EQ(result.state, JobState::kCompleted);
    EXPECT_FALSE(result.resumed_from_checkpoint);
    EXPECT_GT(result.diagnostics.count(DiagKind::kCheckpointCorrupt), 0u)
        << "corruption must be reported, not silently ignored";
    expect_same_bits(oracle, result.partition);
    EXPECT_EQ(service.stats().checkpoints_resumed, 0u);
  }

  // Control: the intact twin resumes rather than rerunning.
  {
    ServiceConfig service_cfg;
    service_cfg.workers = 1;
    service_cfg.checkpoint_dir = dir.string();
    service_cfg.checkpoint_every_rounds = 1;
    PartitionService service(service_cfg);
    JobSpec spec;
    spec.name = "seed";
    spec.matrix = xm;
    spec.config = cfg;
    const SubmitOutcome outcome = service.submit(std::move(spec));
    ASSERT_TRUE(outcome.accepted);
    const JobResult result = service.wait(outcome.id);
    EXPECT_EQ(result.state, JobState::kCompleted);
    EXPECT_TRUE(result.resumed_from_checkpoint);
    expect_same_bits(oracle, result.partition);
  }
}

// A storm of first-attempt transients: every tenant recovers on retry and
// the backoff ledger matches one retry per job.
TEST(ServiceChaos, TransientFaultStormRecoversEveryJob) {
  ManualClock clock;
  ServiceConfig cfg;
  cfg.workers = 3;
  cfg.clock = &clock;
  cfg.retry.max_attempts = 3;
  PartitionService service(cfg);
  service.set_fault_hook([](JobId, std::size_t attempt) {
    if (attempt == 1) throw TransientError("storm");
  });

  std::vector<JobId> ids;
  for (std::uint64_t i = 0; i < 8; ++i) {
    JobSpec spec;
    spec.name = "storm-" + std::to_string(i);
    spec.matrix = std::make_shared<const XMatrix>(small_workload(111 + i));
    spec.config = small_config();
    const SubmitOutcome outcome = service.submit(std::move(spec));
    ASSERT_TRUE(outcome.accepted);
    ids.push_back(outcome.id);
  }
  for (const JobId id : ids) {
    const JobResult result = service.wait(id);
    EXPECT_EQ(result.state, JobState::kCompleted);
    EXPECT_EQ(result.attempts, 2u);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, 8u);
  EXPECT_EQ(stats.job_retries, 8u);
  EXPECT_EQ(stats.jobs_failed, 0u);
}

// A deadline storm: every tenant times out immediately, and every returned
// prefix is still a disjoint cover — degraded, never garbage.
TEST(ServiceChaos, DeadlineStormDegradesEveryJobSafely) {
  ManualClock clock;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.clock = &clock;
  cfg.default_deadline_ns = 50;
  PartitionService service(cfg);
  service.set_fault_hook(
      [&clock](JobId, std::size_t) { clock.advance(1'000'000); });

  std::vector<JobId> ids;
  for (std::uint64_t i = 0; i < 6; ++i) {
    JobSpec spec;
    spec.name = "deadline-" + std::to_string(i);
    spec.matrix = std::make_shared<const XMatrix>(small_workload(121 + i));
    spec.config = small_config();
    const SubmitOutcome outcome = service.submit(std::move(spec));
    ASSERT_TRUE(outcome.accepted);
    ids.push_back(outcome.id);
  }
  for (const JobId id : ids) {
    const JobResult result = service.wait(id);
    EXPECT_EQ(result.state, JobState::kDegraded);
    EXPECT_TRUE(result.partition.interrupted);
    expect_valid_cover(result.partition, 96);
  }
  EXPECT_EQ(service.stats().jobs_degraded, 6u);
}

// Queue flood against a tight admission cap: memory stays bounded (the
// peak never exceeds the cap), the overflow is rejected loudly, and the
// admitted jobs still finish.
TEST(ServiceChaos, QueueFloodIsBoundedByBackpressure) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 4;
  PartitionService service(cfg);
  service.pause();

  std::size_t accepted = 0;
  std::vector<JobId> ids;
  for (std::uint64_t i = 0; i < 40; ++i) {
    JobSpec spec;
    spec.name = "flood-" + std::to_string(i);
    spec.matrix = std::make_shared<const XMatrix>(small_workload(131));
    spec.config = small_config();
    const SubmitOutcome outcome = service.submit(std::move(spec));
    if (outcome.accepted) {
      ++accepted;
      ids.push_back(outcome.id);
    }
  }
  EXPECT_EQ(accepted, 4u);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_rejected_overload, 36u);
  EXPECT_LE(stats.queue_depth_peak, 4u);
  EXPECT_EQ(service.diagnostics().count(DiagKind::kOverloaded), 36u);

  service.resume();
  service.wait_all();
  for (const JobId id : ids) {
    EXPECT_EQ(service.wait(id).state, JobState::kCompleted);
  }
  EXPECT_EQ(service.stats().jobs_completed, 4u);
}

// Mixed-health ingestion: garbled source files fail fast, intact ones
// complete, and one tenant's damage never leaks into another's result.
TEST(ServiceChaos, GarbledIngestFilesFailFastOthersComplete) {
  const fs::path dir = fresh_dir("xh_chaos_ingest");
  Corruptor chaos(0x5eed);
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::string text = x_matrix_to_string(small_workload(141 + i));
    const bool sabotage = i % 2 == 1;
    spit(dir / ("job-" + std::to_string(i) + ".xm"),
         sabotage ? chaos.garble_text(text, 8) : text);
  }

  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.partitioner = small_config();
  cfg.retry.max_attempts = 3;
  PartitionService service(cfg);
  const std::vector<SubmitOutcome> outcomes =
      service.ingest_directory(dir.string());
  ASSERT_EQ(outcomes.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(outcomes[i].accepted);
    const JobResult result = service.wait(outcomes[i].id);
    if (i % 2 == 1) {
      EXPECT_EQ(result.state, JobState::kFailed) << "job " << i;
      EXPECT_EQ(result.attempts, 1u)
          << "parse damage is permanent; retrying cannot help";
      EXPECT_TRUE(result.diagnostics.has_errors());
    } else {
      EXPECT_EQ(result.state, JobState::kCompleted) << "job " << i;
      const PartitionResult want =
          partition_patterns(small_workload(141 + i), small_config());
      expect_same_bits(want, result.partition);
    }
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.jobs_failed, 2u);
}

// The kitchen sink: checkpointed jobs under a transient storm with tight
// deadlines on some tenants — terminal states partition cleanly into the
// ladder's rungs and the accounting identity holds.
TEST(ServiceChaos, MixedChaosKeepsTheLedgerConsistent) {
  const fs::path dir = fresh_dir("xh_chaos_mixed");
  ManualClock clock;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.clock = &clock;
  cfg.checkpoint_dir = dir.string();
  cfg.checkpoint_every_rounds = 1;
  cfg.retry.max_attempts = 2;
  PartitionService service(cfg);
  service.set_fault_hook([&clock](JobId id, std::size_t attempt) {
    if (id % 3 == 0 && attempt == 1) throw TransientError("blip");
    if (id % 4 == 0) clock.advance(1'000'000);
  });

  std::vector<JobId> ids;
  for (std::uint64_t i = 0; i < 12; ++i) {
    JobSpec spec;
    spec.name = "mixed-" + std::to_string(i);
    spec.matrix = std::make_shared<const XMatrix>(small_workload(151 + i));
    spec.config = small_config();
    if (i % 4 == 0) spec.deadline_ns = 50;
    const SubmitOutcome outcome = service.submit(std::move(spec));
    ASSERT_TRUE(outcome.accepted);
    ids.push_back(outcome.id);
  }
  service.wait_all();

  std::size_t terminal = 0;
  for (const JobId id : ids) {
    const JobResult result = service.wait(id);
    EXPECT_TRUE(job_state_terminal(result.state));
    if (result.state == JobState::kCompleted ||
        result.state == JobState::kDegraded) {
      expect_valid_cover(result.partition, 96);
    }
    ++terminal;
  }
  EXPECT_EQ(terminal, 12u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_accepted, 12u);
  EXPECT_EQ(stats.jobs_completed + stats.jobs_degraded + stats.jobs_failed +
                stats.jobs_cancelled,
            12u);
  service.shutdown();
}

}  // namespace
}  // namespace xh
