#include "service/job_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ios>
#include <memory>
#include <utility>

#include "engine/partition_engine.hpp"
#include "kernels/kernels.hpp"
#include "response/io.hpp"
#include "service/checkpoint.hpp"
#include "storage/x_matrix_store.hpp"
#include "util/check.hpp"

namespace xh {
namespace {

/// Replays @p from into @p into record by record (Diagnostics has no merge
/// API; replay keeps counts and severities). Records suppressed past the
/// per-kind retention cap in @p from are not recoverable — acceptable for
/// the per-attempt volumes here.
void replay_diags(const Diagnostics& from, Diagnostics& into) {
  for (const Diagnostic& d : from.records()) {
    into.report(d.severity, d.kind, d.location, d.message);
  }
}

/// Accepted rounds represented by a history trajectory: the trailing entry
/// is either an accepted round (its index) or the final rejected probe
/// (one past the last accepted round).
std::size_t accepted_rounds(const std::vector<PartitionRound>& history) {
  if (history.empty()) return 0;
  const PartitionRound& back = history.back();
  return back.accepted ? back.round : back.round - 1;
}

std::string sanitize_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCompleted: return "completed";
    case JobState::kDegraded: return "degraded";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

bool job_state_terminal(JobState state) {
  return state == JobState::kCompleted || state == JobState::kDegraded ||
         state == JobState::kFailed || state == JobState::kCancelled;
}

PartitionService::PartitionService(ServiceConfig config)
    : config_(std::move(config)),
      clock_(config_.clock != nullptr ? config_.clock : &wall_clock()),
      jitter_rng_(config_.retry.jitter_seed),
      pool_(config_.workers + 1) {
  XH_REQUIRE(config_.workers >= 1,
             "PartitionService requires at least one worker");
  if (!config_.checkpoint_dir.empty() &&
      config_.checkpoint_every_rounds > 0) {
    std::error_code ec;
    std::filesystem::create_directories(config_.checkpoint_dir, ec);
    if (ec) {
      service_diags_.warn(DiagKind::kStreamFailure, config_.checkpoint_dir,
                          "cannot create checkpoint directory: " +
                              ec.message() + "; checkpointing will fail");
    }
  }
  if (config_.watchdog_period_ns > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

PartitionService::~PartitionService() { shutdown(); }

SubmitOutcome PartitionService::submit(JobSpec spec) {
  XH_REQUIRE(spec.matrix != nullptr || !spec.source_path.empty(),
             "JobSpec needs a matrix or a source_path");
  JobId id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t depth = queued_.size() + running_;
    if (stopping_ || shut_down_ || depth >= config_.max_queue_depth) {
      ++stats_.jobs_rejected_overload;
      service_diags_.warn(
          DiagKind::kOverloaded,
          spec.name.empty() ? "submit" : spec.name,
          stopping_ || shut_down_
              ? "service is shutting down; job rejected"
              : "queue depth " + std::to_string(depth) +
                    " at admission cap " +
                    std::to_string(config_.max_queue_depth) +
                    "; job rejected (backpressure)");
      return {};
    }
    id = next_id_++;
    auto job = std::make_unique<Job>();
    job->id = id;
    job->spec = std::move(spec);
    if (job->spec.name.empty()) {
      job->spec.name = "job-" + std::to_string(id);
    }
    if (job->spec.deadline_ns == 0) {
      job->spec.deadline_ns = config_.default_deadline_ns;
    }
    jobs_.emplace(id, std::move(job));
    queued_.push_back(id);
    ++stats_.jobs_accepted;
    stats_.queue_depth = queued_.size() + running_;
    stats_.queue_depth_peak =
        std::max(stats_.queue_depth_peak, stats_.queue_depth);
  }
  // Post AFTER releasing mu_: run_next() re-acquires it, so posting under
  // the lock hands the pool a task that immediately contends with (or, if
  // the pool ever ran callables inline, deadlocks against) this scope.
  // The job is already queued; a concurrent shutdown() between unlock and
  // post just makes run_next() a no-op.
  pool_.post([this] { run_next(); });
  return {true, id};
}

std::vector<SubmitOutcome> PartitionService::ingest_directory(
    const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<SubmitOutcome> outcomes;
  std::vector<fs::path> paths;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".xm") {
      paths.push_back(entry.path());
    }
  }
  if (ec) {
    std::lock_guard<std::mutex> lock(mu_);
    service_diags_.error(DiagKind::kStreamFailure, dir,
                         "cannot list ingestion directory: " + ec.message());
    return outcomes;
  }
  // Directory iteration order is unspecified; sort so job ids — and with
  // one worker, execution order — are deterministic.
  std::sort(paths.begin(), paths.end());
  outcomes.reserve(paths.size());
  for (const fs::path& path : paths) {
    JobSpec spec;
    spec.name = path.stem().string();
    spec.source_path = path.string();
    spec.config = config_.partitioner;
    outcomes.push_back(submit(std::move(spec)));
  }
  return outcomes;
}

std::string PartitionService::checkpoint_path_for(const Job& job) const {
  if (config_.checkpoint_dir.empty() ||
      config_.checkpoint_every_rounds == 0) {
    return std::string();
  }
  return config_.checkpoint_dir + "/" + sanitize_name(job.spec.name) +
         ".ckpt";
}

JobState PartitionService::run_attempt(Job& job, CancelToken& token) {
  std::function<void(JobId, std::size_t)> hook;
  std::size_t attempt = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hook = fault_hook_;
    attempt = job.attempts;
  }
  if (hook) hook(job.id, attempt);

  Diagnostics local;
  std::shared_ptr<const XMatrix> xm = job.spec.matrix;
  if (xm == nullptr) {
    std::ifstream in(job.spec.source_path, std::ios::binary);
    if (!in) {
      // The file may still be landing in the ingestion directory (or the
      // filesystem hiccuped): transient, worth a retry.
      std::lock_guard<std::mutex> lock(mu_);
      job.diags.warn(DiagKind::kStreamFailure, job.spec.source_path,
                     "cannot open input");
      throw TransientError("cannot open " + job.spec.source_path);
    }
    try {
      xm = std::make_shared<XMatrix>(read_x_matrix(in, &local));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      replay_diags(local, job.diags);
      throw;  // classified by the caller via the recorded kinds
    }
  }

  const XMatrixStore store(*xm);
  const std::string ckpt_path = checkpoint_path_for(job);
  std::optional<PartitionEngine> engine;
  bool resumed = false;
  if (!ckpt_path.empty()) {
    if (const auto ckpt = load_checkpoint(ckpt_path, &local)) {
      std::string why;
      if (checkpoint_matches(*ckpt, store.geometry(), store.num_patterns(),
                             store.total_x(), job.spec.config,
                             kernels::active().name, &why)) {
        try {
          engine.emplace(store, job.spec.config, ckpt->snapshot, nullptr,
                         nullptr, &token);
          resumed = true;
        } catch (const std::exception& e) {
          local.error(DiagKind::kCheckpointCorrupt, ckpt_path,
                      std::string("restore rejected (") + e.what() +
                          "); restarting from scratch");
        }
      } else {
        local.warn(DiagKind::kCheckpointCorrupt, ckpt_path,
                   "identity mismatch (" + why +
                       "); ignoring checkpoint and restarting");
      }
    }
  }
  if (!engine.has_value()) {
    engine.emplace(store, job.spec.config, nullptr, nullptr, &token);
  }
  if (resumed) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.checkpoints_resumed;
    job.resumed_from_checkpoint = true;
  }

  const auto write_checkpoint = [&] {
    ServiceCheckpoint ckpt;
    ckpt.geometry = store.geometry();
    ckpt.num_patterns = store.num_patterns();
    ckpt.total_x = store.total_x();
    ckpt.config = job.spec.config;
    ckpt.isa = kernels::active().name;
    ckpt.snapshot = engine->snapshot();
    const bool saved = save_checkpoint(ckpt, ckpt_path, &local);
    std::lock_guard<std::mutex> lock(mu_);
    if (saved) ++stats_.checkpoints_written;
  };

  bool degraded = false;
  std::size_t rounds_since_checkpoint = 0;
  // The consultation is one call deep: the engine was constructed with
  // &token above and step() checks stop_requested() at the top of every
  // round, surfacing it as kCancelled which this loop turns into a
  // degraded exit. xh-lint: allow(XH-FLOW-002)
  for (;;) {
    const PartitionEngine::StepOutcome outcome = engine->step();
    if (outcome == PartitionEngine::StepOutcome::kSplit) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        job.last_progress_ns = clock_->now_ns();
      }
      if (!ckpt_path.empty() &&
          ++rounds_since_checkpoint >= config_.checkpoint_every_rounds) {
        write_checkpoint();
        rounds_since_checkpoint = 0;
      }
      continue;
    }
    if (outcome == PartitionEngine::StepOutcome::kCancelled) {
      degraded = true;
      // Persist the stop point: a later attempt (or service restart with
      // a longer budget) resumes instead of recomputing the prefix.
      if (!ckpt_path.empty()) write_checkpoint();
    }
    break;
  }

  PartitionResult result = engine->materialize();
  {
    std::lock_guard<std::mutex> lock(mu_);
    job.rounds = accepted_rounds(result.history);
    job.partition = std::move(result);
    replay_diags(local, job.diags);
    if (degraded) {
      job.diags.warn(DiagKind::kDeadlineExceeded, job.spec.name,
                     "deadline reached after " + std::to_string(job.rounds) +
                         " accepted rounds; best-so-far partition returned");
    }
  }
  return degraded ? JobState::kDegraded : JobState::kCompleted;
}

void PartitionService::finish(std::unique_lock<std::mutex>& lock, Job& job,
                              JobState state) {
  XH_ASSERT(lock.owns_lock(), "finish() requires the service lock");
  job.state = state;
  --running_;
  stats_.queue_depth = queued_.size() + running_;
  switch (state) {
    case JobState::kCompleted: ++stats_.jobs_completed; break;
    case JobState::kDegraded: ++stats_.jobs_degraded; break;
    case JobState::kFailed: ++stats_.jobs_failed; break;
    default: break;
  }
  if (state == JobState::kCompleted) {
    const std::string ckpt_path = checkpoint_path_for(job);
    if (!ckpt_path.empty()) std::remove(ckpt_path.c_str());
  }
  done_gate_.notify_all();
}

void PartitionService::run_next() {
  std::unique_lock<std::mutex> lock(mu_);
  work_gate_.wait(lock, [&] { return !paused_ || stopping_; });
  if (queued_.empty()) return;  // entries removed by cancel_all()
  const JobId id = queued_.front();
  queued_.pop_front();
  Job& job = *jobs_.at(id);
  XH_ASSERT(job.state == JobState::kQueued, "queued job in non-queued state");
  job.state = JobState::kRunning;
  ++running_;
  stats_.queue_depth = queued_.size() + running_;
  const std::uint64_t start_ns = clock_->now_ns();
  job.last_progress_ns = start_ns;
  job.token = job.spec.deadline_ns > 0
                  ? std::make_unique<CancelToken>(
                        *clock_, start_ns + job.spec.deadline_ns)
                  : std::make_unique<CancelToken>();
  CancelToken& token = *job.token;

  JobState final_state = JobState::kFailed;
  std::string error;
  for (;;) {
    ++job.attempts;
    const std::size_t attempt = job.attempts;
    const std::size_t stream_failures_before =
        job.diags.count(DiagKind::kStreamFailure);
    lock.unlock();

    bool transient = false;
    bool succeeded = false;
    try {
      final_state = run_attempt(job, token);
      succeeded = true;
    } catch (const TransientError& e) {
      transient = true;
      error = e.what();
    } catch (const std::ios_base::failure& e) {
      transient = true;
      error = e.what();
    } catch (const std::exception& e) {
      error = e.what();
    } catch (...) {
      error = "unknown exception";
    }

    lock.lock();
    if (succeeded) {
      error.clear();
      break;
    }
    // A reader failure surfaces as std::invalid_argument either way; the
    // machine-readable kind it recorded tells I/O transients apart from
    // parse/validation errors (which retrying cannot fix).
    if (!transient && job.diags.count(DiagKind::kStreamFailure) >
                          stream_failures_before) {
      transient = true;
    }
    if (!transient || attempt >= config_.retry.max_attempts ||
        token.stop_requested()) {
      final_state = JobState::kFailed;
      break;
    }
    ++stats_.job_retries;
    const RetryPolicy& retry = config_.retry;
    const std::size_t exponent = std::min<std::size_t>(attempt - 1, 62);
    std::uint64_t backoff = retry.max_backoff_ns;
    if (retry.base_backoff_ns <= (retry.max_backoff_ns >> exponent)) {
      backoff = retry.base_backoff_ns << exponent;
    }
    // Full jitter over the upper half: desynchronizes retry storms while
    // keeping the exponential envelope.
    const std::uint64_t sleep_ns =
        backoff / 2 + jitter_rng_.below(backoff / 2 + 1);
    lock.unlock();
    clock_->sleep_ns(sleep_ns);
    lock.lock();
  }
  job.error = error;
  finish(lock, job, final_state);
}

JobResult PartitionService::snapshot_job(const Job& job) const {
  JobResult out;
  out.id = job.id;
  out.name = job.spec.name;
  out.state = job.state;
  out.attempts = job.attempts;
  out.rounds = job.rounds;
  out.resumed_from_checkpoint = job.resumed_from_checkpoint;
  out.error = job.error;
  out.diagnostics = job.diags;
  if (job_state_terminal(job.state)) out.partition = job.partition;
  return out;
}

std::optional<JobResult> PartitionService::poll(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return snapshot_job(*it->second);
}

JobResult PartitionService::wait(JobId id) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  XH_REQUIRE(it != jobs_.end(), "wait() on unknown job id");
  Job& job = *it->second;
  done_gate_.wait(lock, [&] { return job_state_terminal(job.state); });
  return snapshot_job(job);
}

void PartitionService::wait_all() {
  std::unique_lock<std::mutex> lock(mu_);
  done_gate_.wait(lock, [&] { return queued_.empty() && running_ == 0; });
}

void PartitionService::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void PartitionService::resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_gate_.notify_all();
}

void PartitionService::cancel_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const JobId id : queued_) {
    Job& job = *jobs_.at(id);
    if (job.state == JobState::kQueued) {
      job.state = JobState::kCancelled;
      ++stats_.jobs_cancelled;
    }
  }
  queued_.clear();
  for (auto& [id, job] : jobs_) {
    if (job->state == JobState::kRunning && job->token != nullptr) {
      job->token->request_cancel();
    }
  }
  stats_.queue_depth = running_;
  done_gate_.notify_all();
}

void PartitionService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return;
    stopping_ = true;
    paused_ = false;  // a paused service must still drain
  }
  work_gate_.notify_all();
  wait_all();
  try {
    pool_.drain();
  } catch (const std::exception& e) {
    // run_next() catches everything, so a task exception here means a bug
    // in the service itself — record it rather than losing it.
    std::lock_guard<std::mutex> lock(mu_);
    service_diags_.error(DiagKind::kBadArgument, "service pool",
                         std::string("unexpected task failure: ") + e.what());
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    shut_down_ = true;
  }
  watchdog_gate_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

void PartitionService::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto period = std::chrono::nanoseconds(config_.watchdog_period_ns);
  const std::uint64_t stall_after =
      config_.stall_after_ns > 0 ? config_.stall_after_ns
                                 : 10 * config_.watchdog_period_ns;
  while (!shut_down_) {
    watchdog_gate_.wait_for(lock, period, [&] { return shut_down_; });
    if (shut_down_) break;
    ++stats_.heartbeats;
    stats_.queue_depth = queued_.size() + running_;
    stats_.queue_depth_peak =
        std::max(stats_.queue_depth_peak, stats_.queue_depth);
    const std::uint64_t now_ns = clock_->now_ns();
    for (const auto& [id, job] : jobs_) {
      if (job->state == JobState::kRunning && !job->stall_reported &&
          now_ns - job->last_progress_ns > stall_after) {
        job->stall_reported = true;
        ++stats_.watchdog_stalls;
      }
    }
  }
}

ServiceStats PartitionService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t PartitionService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_.size() + running_;
}

Diagnostics PartitionService::diagnostics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return service_diags_;
}

void PartitionService::export_telemetry(Trace* trace) const {
  if (trace == nullptr) return;
  const ServiceStats s = stats();
  obs_count(trace, "service.jobs_accepted", s.jobs_accepted);
  obs_count(trace, "service.jobs_rejected_overload",
            s.jobs_rejected_overload);
  obs_count(trace, "service.jobs_completed", s.jobs_completed);
  obs_count(trace, "service.jobs_degraded", s.jobs_degraded);
  obs_count(trace, "service.jobs_failed", s.jobs_failed);
  obs_count(trace, "service.jobs_cancelled", s.jobs_cancelled);
  obs_count(trace, "service.job_retries", s.job_retries);
  obs_count(trace, "service.checkpoints_written", s.checkpoints_written);
  obs_count(trace, "service.checkpoints_resumed", s.checkpoints_resumed);
  obs_count(trace, "service.heartbeats", s.heartbeats);
  obs_count(trace, "service.watchdog_stalls", s.watchdog_stalls);
  obs_gauge(trace, "service.queue_depth",
            static_cast<double>(s.queue_depth));
  obs_gauge(trace, "service.queue_depth_peak",
            static_cast<double>(s.queue_depth_peak));
  if (s.jobs_degraded > 0) {
    // Same degradation gauge run_partitioning() emits on the CLI path.
    obs_gauge(trace, "hybrid.degraded", static_cast<double>(s.jobs_degraded));
  }
}

void PartitionService::set_fault_hook(
    std::function<void(JobId, std::size_t)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_hook_ = std::move(hook);
}

}  // namespace xh
