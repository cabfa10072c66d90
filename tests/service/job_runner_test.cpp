// PartitionService behavior under normal load and at every failure seam
// (DESIGN.md §11): admission backpressure, deadline degradation, the
// transient/permanent retry split with exponential backoff + jitter,
// cancel/pause/shutdown semantics, watchdog liveness, and telemetry
// export. Time-dependent paths run on ManualClock, so backoff schedules
// and deadlines are asserted exactly, not statistically.
#include "service/job_runner.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "engine/partition_types.hpp"
#include "obs/trace.hpp"
#include "response/io.hpp"
#include "response/x_matrix.hpp"
#include "util/bitvec.hpp"
#include "util/clock.hpp"
#include "util/diagnostics.hpp"
#include "workload/industrial.hpp"

namespace xh {
namespace {

namespace fs = std::filesystem;

XMatrix small_workload(std::uint64_t seed) {
  WorkloadProfile profile;
  profile.name = "svc";
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

JobSpec matrix_job(const std::string& name, std::uint64_t seed) {
  JobSpec spec;
  spec.name = name;
  spec.matrix = std::make_shared<const XMatrix>(small_workload(seed));
  spec.config = small_config();
  return spec;
}

/// Every partition result — degraded or not — must be a disjoint cover of
/// all patterns; that is the coverage-safety half of the prefix property.
void expect_valid_cover(const PartitionResult& result,
                        std::size_t num_patterns) {
  BitVec cover(num_patterns);
  std::size_t total = 0;
  for (const BitVec& patterns : result.partitions) {
    total += patterns.count();
    cover |= patterns;
  }
  EXPECT_EQ(total, num_patterns) << "partitions overlap or drop patterns";
  EXPECT_EQ(cover.count(), num_patterns);
}

/// Spins (bounded, real time) until @p done reports true.
template <typename Predicate>
bool eventually(Predicate done) {
  for (int i = 0; i < 5000; ++i) {
    if (done()) return true;
    wall_clock().sleep_ns(1'000'000);
  }
  return done();
}

TEST(JobRunner, CompletedJobsAreBitIdenticalToTheDirectEngine) {
  ServiceConfig cfg;
  cfg.workers = 2;
  PartitionService service(cfg);

  std::vector<JobId> ids;
  std::vector<std::uint64_t> seeds = {31, 32, 33};
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const SubmitOutcome outcome =
        service.submit(matrix_job("job-" + std::to_string(i), seeds[i]));
    ASSERT_TRUE(outcome.accepted);
    ids.push_back(outcome.id);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const JobResult result = service.wait(ids[i]);
    EXPECT_EQ(result.state, JobState::kCompleted);
    EXPECT_EQ(result.attempts, 1u);
    const PartitionResult want =
        partition_patterns(small_workload(seeds[i]), small_config());
    ASSERT_EQ(result.partition.partitions.size(), want.partitions.size());
    for (std::size_t p = 0; p < want.partitions.size(); ++p) {
      EXPECT_TRUE(result.partition.partitions[p] == want.partitions[p]);
    }
    EXPECT_EQ(result.partition.total_bits, want.total_bits);
    EXPECT_EQ(result.rounds, want.partitions.size() - 1);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_accepted, 3u);
  EXPECT_EQ(stats.jobs_completed, 3u);
  EXPECT_EQ(stats.jobs_failed, 0u);
}

TEST(JobRunner, BackpressureRejectsBeyondTheAdmissionCap) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue_depth = 2;
  PartitionService service(cfg);
  service.pause();  // deterministic backlog: nothing starts running

  std::vector<SubmitOutcome> outcomes;
  for (std::uint64_t i = 0; i < 5; ++i) {
    outcomes.push_back(
        service.submit(matrix_job("flood-" + std::to_string(i), 41 + i)));
  }
  EXPECT_TRUE(outcomes[0].accepted);
  EXPECT_TRUE(outcomes[1].accepted);
  for (std::size_t i = 2; i < outcomes.size(); ++i) {
    EXPECT_FALSE(outcomes[i].accepted) << "submit " << i;
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_accepted, 2u);
  EXPECT_EQ(stats.jobs_rejected_overload, 3u);
  EXPECT_EQ(stats.queue_depth_peak, 2u);
  EXPECT_EQ(service.diagnostics().count(DiagKind::kOverloaded), 3u);

  // Rejection is not sticky: draining the backlog reopens admission.
  service.resume();
  service.wait_all();
  EXPECT_TRUE(service.submit(matrix_job("late", 99)).accepted);
  service.wait_all();
  EXPECT_EQ(service.stats().jobs_completed, 3u);
}

TEST(JobRunner, SubmitValidatesTheSpec) {
  PartitionService service(ServiceConfig{});
  EXPECT_THROW((void)service.submit(JobSpec{}), std::invalid_argument);
}

TEST(JobRunner, DeadlineDegradesToACoverageSafePrefix) {
  ManualClock clock;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.clock = &clock;
  PartitionService service(cfg);
  // Burn the deadline budget at attempt start: the token fires at the
  // first round boundary and the engine keeps the best-so-far prefix.
  service.set_fault_hook(
      [&clock](JobId, std::size_t) { clock.advance(1'000'000); });

  JobSpec spec = matrix_job("tight", 51);
  spec.deadline_ns = 100;
  const SubmitOutcome outcome = service.submit(std::move(spec));
  ASSERT_TRUE(outcome.accepted);
  const JobResult result = service.wait(outcome.id);

  EXPECT_EQ(result.state, JobState::kDegraded);
  EXPECT_TRUE(result.partition.interrupted);
  EXPECT_EQ(result.attempts, 1u) << "a deadline is not a retryable failure";
  expect_valid_cover(result.partition, 96);
  EXPECT_GT(result.diagnostics.count(DiagKind::kDeadlineExceeded), 0u);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_degraded, 1u);
  EXPECT_EQ(stats.jobs_completed, 0u);
}

TEST(JobRunner, DefaultDeadlineAppliesWhenTheJobSetsNone) {
  ManualClock clock;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.clock = &clock;
  cfg.default_deadline_ns = 100;
  PartitionService service(cfg);
  service.set_fault_hook(
      [&clock](JobId, std::size_t) { clock.advance(1'000'000); });
  const SubmitOutcome outcome = service.submit(matrix_job("inherit", 52));
  ASSERT_TRUE(outcome.accepted);
  EXPECT_EQ(service.wait(outcome.id).state, JobState::kDegraded);
}

TEST(JobRunner, TransientFaultsRetryWithExponentialBackoffAndJitter) {
  ManualClock clock;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.clock = &clock;
  cfg.retry.max_attempts = 4;
  cfg.retry.base_backoff_ns = 1'000;
  cfg.retry.max_backoff_ns = 1'000'000;
  PartitionService service(cfg);
  service.set_fault_hook([](JobId, std::size_t attempt) {
    if (attempt <= 2) throw TransientError("synthetic hiccup");
  });

  const SubmitOutcome outcome = service.submit(matrix_job("flaky", 53));
  ASSERT_TRUE(outcome.accepted);
  const JobResult result = service.wait(outcome.id);

  EXPECT_EQ(result.state, JobState::kCompleted);
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_TRUE(result.error.empty());
  EXPECT_EQ(service.stats().job_retries, 2u);
  // Full jitter keeps each sleep in [backoff/2, backoff]; with base 1000ns
  // the two backoffs are 1000 and 2000, so total virtual sleep is bounded
  // by [1500, 3000] — the exponential envelope, asserted exactly.
  EXPECT_GE(clock.total_advanced_ns(), 1'500u);
  EXPECT_LE(clock.total_advanced_ns(), 3'000u);
}

TEST(JobRunner, RetriesExhaustIntoFailure) {
  ManualClock clock;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.clock = &clock;
  cfg.retry.max_attempts = 2;
  PartitionService service(cfg);
  service.set_fault_hook(
      [](JobId, std::size_t) { throw TransientError("always down"); });
  const SubmitOutcome outcome = service.submit(matrix_job("doomed", 54));
  ASSERT_TRUE(outcome.accepted);
  const JobResult result = service.wait(outcome.id);
  EXPECT_EQ(result.state, JobState::kFailed);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(result.error, "always down");
  EXPECT_EQ(service.stats().job_retries, 1u);
  EXPECT_EQ(service.stats().jobs_failed, 1u);
}

TEST(JobRunner, RetriesStopOnceTheDeadlinePasses) {
  // The retry loop consults the job's CancelToken: once the backoff sleeps
  // carry virtual time past the deadline, no further attempt is made even
  // though the policy would allow ten.
  ManualClock clock;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.clock = &clock;
  cfg.retry.max_attempts = 10;
  cfg.retry.base_backoff_ns = 1'000;
  PartitionService service(cfg);
  service.set_fault_hook(
      [](JobId, std::size_t) { throw TransientError("always down"); });
  JobSpec spec = matrix_job("late", 56);
  spec.deadline_ns = 2'500;
  const SubmitOutcome outcome = service.submit(std::move(spec));
  ASSERT_TRUE(outcome.accepted);
  const JobResult result = service.wait(outcome.id);
  EXPECT_EQ(result.state, JobState::kFailed);
  EXPECT_LT(result.attempts, 10u);
}

TEST(JobRunner, PermanentFaultsFailFastWithoutRetry) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.retry.max_attempts = 5;
  PartitionService service(cfg);
  service.set_fault_hook(
      [](JobId, std::size_t) { throw std::runtime_error("config bug"); });
  const SubmitOutcome outcome = service.submit(matrix_job("broken", 55));
  ASSERT_TRUE(outcome.accepted);
  const JobResult result = service.wait(outcome.id);
  EXPECT_EQ(result.state, JobState::kFailed);
  EXPECT_EQ(result.attempts, 1u) << "permanent failures must not burn retries";
  EXPECT_EQ(result.error, "config bug");
  EXPECT_EQ(service.stats().job_retries, 0u);
}

TEST(JobRunner, ParseErrorsFailFastMissingFilesRetry) {
  const fs::path dir = fs::path(::testing::TempDir()) / "xh_runner_io";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path garbled = dir / "garbled.xm";
  {
    std::ofstream out(garbled);
    out << "xmatrix v1 6 24 96\nnot a cell record\n";
  }
  ManualClock clock;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.clock = &clock;
  cfg.retry.max_attempts = 3;
  PartitionService service(cfg);

  JobSpec parse_fail;
  parse_fail.name = "garbled";
  parse_fail.source_path = garbled.string();
  parse_fail.config = small_config();
  const SubmitOutcome a = service.submit(std::move(parse_fail));
  ASSERT_TRUE(a.accepted);
  const JobResult parse_result = service.wait(a.id);
  EXPECT_EQ(parse_result.state, JobState::kFailed);
  EXPECT_EQ(parse_result.attempts, 1u)
      << "a malformed file never parses; retrying is waste";
  EXPECT_TRUE(parse_result.diagnostics.has_errors());

  JobSpec missing;
  missing.name = "missing";
  missing.source_path = (dir / "nope.xm").string();
  missing.config = small_config();
  const SubmitOutcome b = service.submit(std::move(missing));
  ASSERT_TRUE(b.accepted);
  const JobResult missing_result = service.wait(b.id);
  EXPECT_EQ(missing_result.state, JobState::kFailed);
  EXPECT_EQ(missing_result.attempts, 3u)
      << "an open failure is an I/O transient: retry to exhaustion";
  EXPECT_GT(missing_result.diagnostics.count(DiagKind::kStreamFailure), 0u);
  EXPECT_EQ(service.stats().job_retries, 2u);
}

TEST(JobRunner, CancelAllCancelsTheBacklog) {
  ServiceConfig cfg;
  cfg.workers = 1;
  PartitionService service(cfg);
  service.pause();
  std::vector<JobId> ids;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const SubmitOutcome outcome =
        service.submit(matrix_job("queued-" + std::to_string(i), 61 + i));
    ASSERT_TRUE(outcome.accepted);
    ids.push_back(outcome.id);
  }
  service.cancel_all();
  service.resume();
  for (const JobId id : ids) {
    EXPECT_EQ(service.wait(id).state, JobState::kCancelled);
  }
  EXPECT_EQ(service.stats().jobs_cancelled, 3u);
}

TEST(JobRunner, PollAndWaitContract) {
  PartitionService service(ServiceConfig{});
  EXPECT_FALSE(service.poll(12345).has_value());
  EXPECT_THROW((void)service.wait(12345), std::invalid_argument);

  const SubmitOutcome outcome = service.submit(matrix_job("tracked", 71));
  ASSERT_TRUE(outcome.accepted);
  const std::optional<JobResult> early = service.poll(outcome.id);
  ASSERT_TRUE(early.has_value());
  EXPECT_EQ(early->name, "tracked");
  const JobResult done = service.wait(outcome.id);
  EXPECT_EQ(done.state, JobState::kCompleted);
  const std::optional<JobResult> late = service.poll(outcome.id);
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(late->state, JobState::kCompleted);
}

TEST(JobRunner, ShutdownDrainsIsIdempotentAndRejectsLateWork) {
  ServiceConfig cfg;
  cfg.workers = 2;
  PartitionService service(cfg);
  std::vector<JobId> ids;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const SubmitOutcome outcome =
        service.submit(matrix_job("drain-" + std::to_string(i), 81 + i));
    ASSERT_TRUE(outcome.accepted);
    ids.push_back(outcome.id);
  }
  service.shutdown();
  for (const JobId id : ids) {
    EXPECT_EQ(service.wait(id).state, JobState::kCompleted)
        << "shutdown must drain accepted work, not drop it";
  }
  const SubmitOutcome late = service.submit(matrix_job("late", 90));
  EXPECT_FALSE(late.accepted);
  EXPECT_GT(service.diagnostics().count(DiagKind::kOverloaded), 0u);
  service.shutdown();  // idempotent
}

TEST(JobRunner, WatchdogHeartbeatsAccumulate) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.watchdog_period_ns = 1'000'000;  // 1 ms
  PartitionService service(cfg);
  EXPECT_TRUE(eventually([&] { return service.stats().heartbeats > 0; }))
      << "watchdog thread never ticked";
  service.shutdown();
  const std::uint64_t after_shutdown = service.stats().heartbeats;
  EXPECT_GT(after_shutdown, 0u);
}

TEST(JobRunner, WatchdogReportsAStalledJobOnce) {
  ManualClock clock;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.clock = &clock;
  cfg.watchdog_period_ns = 1'000'000;  // 1 ms real tick
  cfg.stall_after_ns = 100;            // 100 virtual ns without progress
  PartitionService service(cfg);

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  service.set_fault_hook([gate](JobId, std::size_t) { gate.wait(); });

  const SubmitOutcome outcome = service.submit(matrix_job("stuck", 91));
  ASSERT_TRUE(outcome.accepted);
  ASSERT_TRUE(eventually([&] {
    const std::optional<JobResult> r = service.poll(outcome.id);
    return r.has_value() && r->state == JobState::kRunning;
  }));
  clock.advance(1'000);  // the job's last progress is now 1000ns stale
  EXPECT_TRUE(eventually([&] { return service.stats().watchdog_stalls > 0; }));
  // A stalled job is reported once, not once per tick.
  const std::uint64_t ticks = service.stats().heartbeats;
  EXPECT_TRUE(eventually([&] { return service.stats().heartbeats > ticks; }));
  EXPECT_EQ(service.stats().watchdog_stalls, 1u);

  release.set_value();
  EXPECT_EQ(service.wait(outcome.id).state, JobState::kCompleted);
}

TEST(JobRunner, TelemetryExportPublishesServiceCounters) {
  ManualClock clock;
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.clock = &clock;
  PartitionService service(cfg);
  const SubmitOutcome ok = service.submit(matrix_job("clean", 95));
  ASSERT_TRUE(ok.accepted);
  ASSERT_EQ(service.wait(ok.id).state, JobState::kCompleted);

  Trace clean_trace;
  service.export_telemetry(&clean_trace);
  EXPECT_EQ(clean_trace.counters().at("service.jobs_completed").value, 1u);
  EXPECT_EQ(clean_trace.counters().at("service.jobs_accepted").value, 1u);
  EXPECT_EQ(clean_trace.counters().at("service.jobs_degraded").value, 0u);
  // A clean run must not grow a degradation gauge: telemetry baselines of
  // healthy runs stay byte-identical.
  EXPECT_EQ(clean_trace.gauges().count("hybrid.degraded"), 0u);

  service.set_fault_hook(
      [&clock](JobId, std::size_t) { clock.advance(1'000'000); });
  JobSpec spec = matrix_job("timed-out", 96);
  spec.deadline_ns = 10;
  const SubmitOutcome slow = service.submit(std::move(spec));
  ASSERT_TRUE(slow.accepted);
  ASSERT_EQ(service.wait(slow.id).state, JobState::kDegraded);

  Trace degraded_trace;
  service.export_telemetry(&degraded_trace);
  EXPECT_EQ(degraded_trace.counters().at("service.jobs_degraded").value, 1u);
  ASSERT_EQ(degraded_trace.gauges().count("hybrid.degraded"), 1u);
  EXPECT_EQ(degraded_trace.gauges().at("hybrid.degraded").value, 1.0);
  // export_telemetry(nullptr) is a clean no-op.
  service.export_telemetry(nullptr);
}

TEST(JobRunner, IngestDirectoryIsSortedAndSkipsForeignFiles) {
  const fs::path dir = fs::path(::testing::TempDir()) / "xh_runner_ingest";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream b(dir / "b.xm");
    b << x_matrix_to_string(small_workload(97));
    std::ofstream a(dir / "a.xm");
    a << x_matrix_to_string(small_workload(98));
    std::ofstream notes(dir / "notes.txt");
    notes << "not a matrix\n";
  }
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.partitioner = small_config();
  PartitionService service(cfg);
  const std::vector<SubmitOutcome> outcomes =
      service.ingest_directory(dir.string());
  ASSERT_EQ(outcomes.size(), 2u) << "only *.xm files are jobs";
  ASSERT_TRUE(outcomes[0].accepted);
  ASSERT_TRUE(outcomes[1].accepted);
  EXPECT_EQ(service.wait(outcomes[0].id).name, "a");
  EXPECT_EQ(service.wait(outcomes[1].id).name, "b");
  EXPECT_EQ(service.wait(outcomes[0].id).state, JobState::kCompleted);
  EXPECT_EQ(service.wait(outcomes[1].id).state, JobState::kCompleted);

  const std::vector<SubmitOutcome> none =
      service.ingest_directory((dir / "missing").string());
  EXPECT_TRUE(none.empty());
  EXPECT_GT(service.diagnostics().count(DiagKind::kStreamFailure), 0u);
}

}  // namespace
}  // namespace xh
