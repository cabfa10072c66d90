// Resident partitioning service: a job runner in front of PartitionEngine.
//
// PartitionService turns the per-invocation engine into something that can
// sit behind a queue of tenants (DESIGN.md §11). Its behavior under stress
// is the contract:
//
//   * bounded admission — submit() rejects once queued + running jobs
//     reach max_queue_depth, with a typed kOverloaded diagnostic and a
//     service.jobs_rejected_overload counter, so a flood degrades into
//     rejections instead of unbounded memory;
//   * per-job deadlines — each job runs under a CancelToken the engine
//     polls at round boundaries; a timed-out job completes as kDegraded
//     with the best-so-far partition (a valid prefix, never garbage);
//   * retry with exponential backoff + jitter — transient failures
//     (TransientError, std::ios_base::failure, or a kStreamFailure
//     diagnostic from the .xm reader) are retried up to
//     RetryPolicy::max_attempts; parse/validation errors fail fast;
//   * crash-safe checkpointing — with a checkpoint_dir configured, the
//     engine snapshot is saved through service/checkpoint.hpp every
//     checkpoint_every_rounds accepted rounds (atomic rename), and a new
//     attempt resumes from it bit-identically to an uninterrupted run.
//
// Jobs execute on a util/thread_pool task queue; the engine itself runs
// serially inside each job (parallelism is across tenants, and the pool's
// fork-join path is not reentrant from a pool task). All shared state is
// guarded by one mutex; xh::Trace is NOT touched from workers — the
// watchdog and workers update internal stats, and export_telemetry()
// publishes them from the owner's thread into a Trace once at the end.
//
// The optional watchdog thread ticks every watchdog_period_ns: it bumps a
// heartbeat counter (liveness), samples queue depth, and counts running
// jobs whose last round boundary is older than stall_after_ns — the
// "liveness through xh::Trace" feed, surfaced via export_telemetry().
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/partition_types.hpp"
#include "obs/trace.hpp"
#include "response/x_matrix.hpp"
#include "util/cancel_token.hpp"
#include "util/clock.hpp"
#include "util/diagnostics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace xh {

using JobId = std::uint64_t;

/// Failure a caller (or the chaos fault hook) marks as worth retrying.
/// The service also treats std::ios_base::failure and reader
/// kStreamFailure diagnostics as transient; everything else fails fast.
struct TransientError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning,
  kCompleted,  // natural stop reached
  kDegraded,   // deadline/cancel: best-so-far prefix returned
  kFailed,     // permanent failure or retries exhausted
  kCancelled,  // cancelled before it ever ran
};

const char* job_state_name(JobState state);
bool job_state_terminal(JobState state);

struct RetryPolicy {
  std::size_t max_attempts = 3;  // total attempts, first try included
  std::uint64_t base_backoff_ns = 1'000'000;  // doubles per failed attempt
  std::uint64_t max_backoff_ns = 1'000'000'000;
  std::uint64_t jitter_seed = 0x5eedULL;  // full jitter: [backoff/2, backoff]
};

struct ServiceConfig {
  /// Concurrent job executors (>= 1). The pool gets workers + 1 lanes.
  std::size_t workers = 2;
  /// Admission cap on queued + running jobs; 0 means "reject everything".
  std::size_t max_queue_depth = 64;
  /// Partitioner configuration for directory-ingested jobs.
  PartitionerConfig partitioner;
  /// Deadline budget for jobs that do not set their own; 0 = none.
  std::uint64_t default_deadline_ns = 0;
  /// Accepted rounds between checkpoints; 0 disables checkpointing.
  std::size_t checkpoint_every_rounds = 0;
  /// Directory for <job>.ckpt files; empty disables checkpointing.
  std::string checkpoint_dir;
  RetryPolicy retry;
  /// Watchdog tick period; 0 disables the watchdog thread.
  std::uint64_t watchdog_period_ns = 0;
  /// Running job with no round boundary for this long counts as stalled
  /// (watchdog only); 0 picks 10 ticks.
  std::uint64_t stall_after_ns = 0;
  /// Time source for deadlines/backoff/heartbeats; nullptr = wall_clock().
  ClockSource* clock = nullptr;
};

struct JobSpec {
  std::string name;  // checkpoint identity; "" derives job-<id>
  /// Either an in-memory matrix...
  std::shared_ptr<const XMatrix> matrix;
  /// ...or a .xm file loaded on the worker, so open/read hiccups flow
  /// through the retry machinery instead of failing the submitter.
  std::string source_path;
  PartitionerConfig config;
  /// Deadline budget from the job's first pick-up; 0 = service default.
  std::uint64_t deadline_ns = 0;
};

struct [[nodiscard]] SubmitOutcome {
  bool accepted = false;
  JobId id = 0;  // meaningful only when accepted
};

/// Snapshot of one job, returned by poll()/wait().
struct [[nodiscard]] JobResult {
  JobId id = 0;
  std::string name;
  JobState state = JobState::kQueued;
  /// Valid for kCompleted and kDegraded (interrupted flag set for the
  /// latter).
  PartitionResult partition;
  std::size_t attempts = 0;
  std::size_t rounds = 0;  // accepted rounds in the final state
  bool resumed_from_checkpoint = false;
  std::string error;       // for kFailed
  Diagnostics diagnostics; // per-job collector (reader, checkpoint, engine)
};

/// Monotonic service counters/gauges; exported as service.* telemetry.
struct ServiceStats {
  std::uint64_t jobs_accepted = 0;
  std::uint64_t jobs_rejected_overload = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_degraded = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t job_retries = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoints_resumed = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t watchdog_stalls = 0;
  std::size_t queue_depth = 0;       // queued + running right now
  std::size_t queue_depth_peak = 0;  // high-water mark of the above
};

class PartitionService {
 public:
  explicit PartitionService(ServiceConfig config);
  /// Drains every accepted job, then stops the workers (shutdown()).
  ~PartitionService();

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Admits @p spec or rejects it under backpressure. A rejection is not
  /// an error of the service — check .accepted; the kOverloaded record
  /// lands in diagnostics() and the stats counter either way.
  [[nodiscard]] SubmitOutcome submit(JobSpec spec);

  /// Submits every *.xm file directly inside @p dir (sorted by name, so
  /// ingestion order is deterministic) using the service partitioner
  /// config. Files are read on the workers, not here. Returns one outcome
  /// per file, in sorted-path order.
  [[nodiscard]] std::vector<SubmitOutcome> ingest_directory(
      const std::string& dir);

  /// Current snapshot of a job; nullopt for an unknown id. The partition
  /// field is filled once the state is terminal.
  [[nodiscard]] std::optional<JobResult> poll(JobId id) const;

  /// Blocks until @p id is terminal and returns its snapshot. Throws
  /// std::invalid_argument for an unknown id.
  JobResult wait(JobId id);

  /// Blocks until every accepted job is terminal.
  void wait_all();

  /// Holds queued jobs back from the workers (running jobs continue).
  /// Lets tests and drain-style operators build a deterministic backlog.
  void pause();
  void resume();

  /// Marks every queued job kCancelled and fires the cancel token of
  /// every running job (they degrade at the next round boundary).
  void cancel_all();

  /// Drains all accepted work, then joins workers + watchdog. Idempotent;
  /// submit() after shutdown() rejects as overloaded.
  void shutdown();

  ServiceStats stats() const;
  std::size_t queue_depth() const;

  /// Service-level diagnostics: admission rejections, ingest problems.
  /// Per-job records live in the JobResult. Snapshot under the lock.
  Diagnostics diagnostics() const;

  /// Publishes stats() into @p trace as service.* counters and gauges.
  /// Call from one thread, once per Trace (counters add deltas).
  void export_telemetry(Trace* trace) const;

  /// Chaos hook, called at the start of every attempt on the worker. May
  /// throw (TransientError → retry path, anything else → fail-fast path).
  void set_fault_hook(std::function<void(JobId, std::size_t)> hook);

 private:
  struct Job {
    JobId id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    std::size_t attempts = 0;
    std::size_t rounds = 0;
    bool resumed_from_checkpoint = false;
    std::string error;
    Diagnostics diags;
    PartitionResult partition;
    std::unique_ptr<CancelToken> token;  // stable address for cancel_all()
    std::uint64_t last_progress_ns = 0;  // last round boundary (clock time)
    bool stall_reported = false;
  };

  /// Pool task body: picks the next queued job (honoring pause) and runs
  /// it through the attempt/retry loop. Never throws.
  void run_next();
  /// One attempt: load, maybe resume, step to a stop, checkpoint.
  /// Returns the terminal state for this attempt; throws on failures the
  /// caller classifies.
  JobState run_attempt(Job& job, CancelToken& token);
  void finish(std::unique_lock<std::mutex>& lock, Job& job, JobState state);
  std::string checkpoint_path_for(const Job& job) const;
  JobResult snapshot_job(const Job& job) const;
  void watchdog_loop();

  ServiceConfig config_;
  ClockSource* clock_;  // config_.clock or wall_clock(); never null

  mutable std::mutex mu_;
  std::condition_variable work_gate_;  // pause()/resume()/shutdown()
  std::condition_variable done_gate_;  // job became terminal
  std::map<JobId, std::unique_ptr<Job>> jobs_;
  std::deque<JobId> queued_;
  JobId next_id_ = 1;
  std::size_t running_ = 0;
  bool paused_ = false;
  bool stopping_ = false;
  bool shut_down_ = false;
  ServiceStats stats_;
  Diagnostics service_diags_;
  Rng jitter_rng_;
  std::function<void(JobId, std::size_t)> fault_hook_;

  std::thread watchdog_;
  std::condition_variable watchdog_gate_;

  /// Last member: its workers touch everything above, so it must die
  /// first. Tasks run jobs; the engine inside each job stays serial.
  ThreadPool pool_;
};

}  // namespace xh
