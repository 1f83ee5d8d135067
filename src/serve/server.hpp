// ChopServer — the long-lived partitioning service the paper's Figure-1
// designer loop wants to talk to: many concurrent what-if evaluations
// multiplexed over one worker pool.
//
//   submit ──▶ [bounded priority JobQueue] ──▶ worker pool ──▶ result store
//                       │ (overload → reject)        │
//                       └── cancel/deadline ─────────┘
//
// Components: a bounded priority queue with explicit overload rejection,
// N worker threads each running predict_partitions()+search() per job, a
// persistent in-process result store with status polling and blocking
// waits, per-job cooperative cancellation and wall-clock deadlines
// (threaded into SearchOptions). Every job searches on its own session's
// evaluator, so a served result is the direct-session result byte for
// byte. Transport-free — the NDJSON protocol, pipe loop and
// Unix-socket acceptors live in service.{hpp,cpp}/uds.{hpp,cpp}; tests
// drive this class directly from many threads.
//
// Every job gets its own `serve.job` trace span; the queue, latency and
// outcome metrics are listed in docs/OBSERVABILITY.md under `serve.*`.
#pragma once

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/eval/thread_pool.hpp"
#include "obs/trace.hpp"
#include "serve/job.hpp"
#include "serve/job_queue.hpp"
#include "serve/protocol.hpp"

namespace chop::serve {

struct ServerOptions {
  /// Job worker threads; 0 = one per hardware thread.
  int workers = 2;
  /// Size of the shared search pool enumeration units run on when a
  /// job's SearchOptions ask for threads > 1. Shared by every job, so a
  /// long search's units interleave with other jobs' units instead of
  /// monopolizing workers. 0 (the default) = one per hardware thread.
  int search_threads = 0;
  /// Hard bound on queued (not yet running) jobs; submissions beyond it
  /// are rejected with SubmitStatus::Overloaded.
  std::size_t queue_capacity = 64;
};

enum class SubmitStatus { Accepted, Overloaded, ShuttingDown, DuplicateId };

struct SubmitOutcome {
  SubmitStatus status = SubmitStatus::Accepted;
  std::string id;  ///< Assigned (or echoed) job id when accepted.
  std::uint64_t trace_id = 0;  ///< Minted at acceptance; 0 when rejected.
};

enum class ReviseStatus {
  Accepted,
  NotFound,      ///< No base job with that id.
  NotDone,       ///< Base job exists but is not in JobState::Done.
  Overloaded,    ///< The revised submission was rejected by the queue.
  ShuttingDown,
  DuplicateId,   ///< The requested new id already exists.
};

struct ReviseOutcome {
  ReviseStatus status = ReviseStatus::Accepted;
  SubmitOutcome submit;  ///< The revised job's submission (when accepted).
};

enum class CancelOutcome {
  NotFound,
  CancelledQueued,    ///< Removed from the queue before it ever ran.
  CancellingRunning,  ///< Cooperative flag raised; the search will stop.
  AlreadyTerminal,
};

/// A point-in-time copy of one job's externally visible state.
struct JobView {
  bool found = false;
  std::string id;
  JobState state = JobState::Queued;
  std::string result_json;  ///< render_search_result fragment (terminal).
  std::string error;        ///< Failure message (JobState::Failed).
  std::size_t designs = 0;
  core::PredictionStats prediction_stats{};
  double queue_wait_ms = 0.0;  ///< submit → start (terminal or running).
  double run_ms = 0.0;         ///< start → finish (terminal only).
  std::uint64_t trace_id = 0;  ///< The job's distributed-tracing id.
  /// Phase attribution so far (live for running jobs, final afterwards).
  obs::PhaseProfileData profile{};
};

struct ServerStats {
  std::size_t workers = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t running = 0;
  std::uint64_t submitted = 0;
  std::uint64_t revised = 0;  ///< Jobs created through revise().
  std::uint64_t rejected_overload = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t failed = 0;
};

class ChopServer {
 public:
  explicit ChopServer(ServerOptions options = {});

  ChopServer(const ChopServer&) = delete;
  ChopServer& operator=(const ChopServer&) = delete;

  /// Drains and joins (shutdown(true)) if the owner never shut down.
  ~ChopServer();

  /// Accepts a job. `id` empty = server-assigned ("job-<n>"). The project
  /// is validated by construction (callers parse specs first); rejection
  /// never allocates a job record.
  SubmitOutcome submit(io::Project project, JobOptions options,
                       std::string id = {});

  /// Resubmits a finished job's project with one DeltaSpec applied: the
  /// base must be terminal-Done, the revised job inherits the base's
  /// options and queues like any submission. Throws ProtocolError
  /// (not_found / invalid_delta) when the delta does not apply to the
  /// base project.
  ReviseOutcome revise(const std::string& base_id, const DeltaSpec& delta,
                       std::string new_id = {});

  /// Lifecycle snapshot; `wait_terminal` blocks until the job reaches a
  /// terminal state or `timeout` elapses (view.found stays true — check
  /// is_terminal(view.state) for success).
  JobView view(const std::string& id, bool wait_terminal = false,
               std::chrono::milliseconds timeout =
                   std::chrono::milliseconds(60000)) const;

  CancelOutcome cancel(const std::string& id);

  ServerStats stats() const;

  /// Milliseconds since this server was constructed (healthz uptime).
  std::uint64_t uptime_ms() const;

  /// Server-wide phase attribution: the sum of every job's profile,
  /// including jobs still running (their atomics are readable live).
  obs::PhaseProfileData total_profile() const;

  /// Stops accepting submissions; with `drain` every already-accepted job
  /// still runs to a terminal state, without it queued jobs are marked
  /// cancelled and running searches are cooperatively stopped. Joins the
  /// workers; idempotent; safe from any thread (including a transport
  /// thread handling a `shutdown` request).
  void shutdown(bool drain = true);

  bool accepting() const;

  const ServerOptions& options() const { return options_; }

 private:
  void worker_loop();
  void run_job(const std::shared_ptr<Job>& job);
  /// The generation path of run_job (JobOptions::generate): runs the
  /// multilevel engine on the server pool and renders a result fragment
  /// that carries both the search and the `generate` portfolio outcome.
  void run_generate_job(const std::shared_ptr<Job>& job, obs::TraceSpan& span);
  /// Marks `job` terminal under jobs_mu_, stamps finished_at, bumps the
  /// outcome counters/histograms, and wakes waiters.
  void finish_job(const std::shared_ptr<Job>& job, JobState state);

  ServerOptions options_;
  JobQueue queue_;
  const std::chrono::steady_clock::time_point started_at_ =
      std::chrono::steady_clock::now();

  mutable std::mutex jobs_mu_;
  mutable std::condition_variable jobs_cv_;
  std::unordered_map<std::string, std::shared_ptr<Job>> jobs_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t next_auto_id_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t revised_ = 0;
  std::uint64_t rejected_overload_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t deadline_exceeded_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t running_ = 0;
  bool accepting_ = true;
  bool shut_down_ = false;
  /// Serializes shutdown(); later callers block until the first completes.
  std::mutex shutdown_mu_;

  /// Thread pool shared by every job's parallel enumeration
  /// (SearchOptions::pool). Declared before the job workers — its only
  /// submitters — so it outlives them.
  std::unique_ptr<core::ThreadPool> search_pool_;
  std::vector<std::thread> workers_;
};

}  // namespace chop::serve
