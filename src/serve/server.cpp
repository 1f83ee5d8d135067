#include "serve/server.hpp"

#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"

namespace chop::serve {

namespace {

using Millis = std::chrono::milliseconds;

double ms_between(Job::Clock::time_point from, Job::Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Safety cap for exhaustive keep-all jobs, mirroring `chop_cli
/// --keep-all` (the paper's own unpruned run died of swap space).
constexpr std::size_t kKeepAllTrialCap = 500000;

}  // namespace

ChopServer::ChopServer(ServerOptions options)
    : options_(options),
      queue_(options.queue_capacity),
      evaluator_pool_(options.evaluator_pool_capacity,
                      options.cache_entries_per_context) {
  // 0 means auto-detect for both pools — the same contract as
  // chop_cli --threads=0.
  options_.workers = core::ThreadPool::resolve_threads(options_.workers);
  options_.search_threads =
      core::ThreadPool::resolve_threads(options_.search_threads);
  obs::MetricsRegistry::global()
      .gauge("serve.workers")
      .set(static_cast<double>(options_.workers));
  obs::MetricsRegistry::global()
      .gauge("serve.search_pool_threads")
      .set(static_cast<double>(options_.search_threads));
  search_pool_ = std::make_unique<core::ThreadPool>(options_.search_threads);
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ChopServer::~ChopServer() { shutdown(true); }

SubmitOutcome ChopServer::submit(io::Project project, JobOptions options,
                                 std::string id) {
  static obs::Counter& submitted_counter =
      obs::MetricsRegistry::global().counter("serve.submitted");
  static obs::Counter& rejected_counter =
      obs::MetricsRegistry::global().counter("serve.rejected_overload");

  std::lock_guard<std::mutex> lock(jobs_mu_);
  if (!accepting_) return {SubmitStatus::ShuttingDown, std::move(id)};
  if (id.empty()) {
    do {
      id = "job-" + std::to_string(++next_auto_id_);
    } while (jobs_.count(id) != 0);
  } else if (jobs_.count(id) != 0) {
    return {SubmitStatus::DuplicateId, std::move(id)};
  }

  auto job = std::make_shared<Job>();
  job->id = id;
  job->project = std::move(project);
  job->options = options;
  job->sequence = ++next_sequence_;
  job->submitted_at = Job::Clock::now();
  job->trace_id = obs::next_trace_id();
  job->submitted_ts_us = obs::trace_now_us();
  if (options.deadline_ms > 0) {
    job->deadline = job->submitted_at + Millis(options.deadline_ms);
  }

  const std::uint64_t trace_id = job->trace_id;
  switch (queue_.push(job)) {
    case JobQueue::PushResult::Accepted:
      jobs_.emplace(id, std::move(job));
      ++submitted_;
      submitted_counter.add();
      return {SubmitStatus::Accepted, std::move(id), trace_id};
    case JobQueue::PushResult::Overloaded:
      ++rejected_overload_;
      rejected_counter.add();
      return {SubmitStatus::Overloaded, std::move(id)};
    case JobQueue::PushResult::Closed:
      break;
  }
  return {SubmitStatus::ShuttingDown, std::move(id)};
}

ReviseOutcome ChopServer::revise(const std::string& base_id,
                                 const DeltaSpec& delta, std::string new_id) {
  static obs::Counter& revised_counter =
      obs::MetricsRegistry::global().counter("serve.revised");

  io::Project base_project;
  JobOptions base_options;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    const auto it = jobs_.find(base_id);
    if (it == jobs_.end()) return {ReviseStatus::NotFound, {}};
    if (it->second->state != JobState::Done) {
      return {ReviseStatus::NotDone, {}};
    }
    base_project = it->second->project;
    base_options = it->second->options;
  }

  // Outside the lock: name resolution walks the project and may throw
  // ProtocolError, which the service renders as a structured error.
  io::Project revised = apply_delta(base_project, delta);

  ReviseOutcome outcome;
  outcome.submit =
      submit(std::move(revised), base_options, std::move(new_id));
  switch (outcome.submit.status) {
    case SubmitStatus::Accepted:
      outcome.status = ReviseStatus::Accepted;
      break;
    case SubmitStatus::Overloaded:
      outcome.status = ReviseStatus::Overloaded;
      return outcome;
    case SubmitStatus::ShuttingDown:
      outcome.status = ReviseStatus::ShuttingDown;
      return outcome;
    case SubmitStatus::DuplicateId:
      outcome.status = ReviseStatus::DuplicateId;
      return outcome;
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    const auto it = jobs_.find(outcome.submit.id);
    if (it != jobs_.end()) it->second->revised_from = base_id;
    ++revised_;
  }
  revised_counter.add();
  return outcome;
}

void ChopServer::worker_loop() {
  while (std::shared_ptr<Job> job = queue_.pop()) {
    run_job(job);
  }
}

void ChopServer::run_job(const std::shared_ptr<Job>& job) {
  static obs::Histogram& queue_wait_ms =
      obs::MetricsRegistry::global().histogram("serve.queue_wait_ms");
  const Job::Clock::time_point start = Job::Clock::now();
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    job->started_at = start;
    job->state = JobState::Running;
    ++running_;
    obs::MetricsRegistry::global()
        .gauge("serve.running")
        .set(static_cast<double>(running_));
  }
  queue_wait_ms.observe(ms_between(job->submitted_at, start));

  // Root of the job's trace tree: install the context minted at submit,
  // then open serve.job under it. The queue-wait span is back-dated to
  // the submit timestamp so the tree starts when the client did.
  obs::TraceContextScope trace_scope(
      obs::TraceContext{job->trace_id, /*span_id=*/0});
  obs::TraceSpan span("serve.job");
  span.arg("id", job->id);
  span.arg("priority", job->options.priority);
  {
    obs::TraceContextScope wait_parent(span.context());
    obs::trace_complete("serve.queue_wait", job->submitted_ts_us,
                        obs::trace_now_us());
  }

  // Budget already spent / cancel raced in while queued: don't start work.
  if (job->cancel_requested.load(std::memory_order_relaxed)) {
    finish_job(job, JobState::Cancelled);
    return;
  }
  if (job->deadline != Job::Clock::time_point{} && start >= job->deadline) {
    finish_job(job, JobState::DeadlineExceeded);
    return;
  }

  try {
    if (job->options.generate) {
      run_generate_job(job, span);
      return;
    }
    core::ChopSession session = job->project.make_session();
    core::PredictionStats stats;
    {
      obs::ScopedPhase predict_phase(&job->profile,
                                     obs::SearchPhase::kPredict);
      stats = session.predict_partitions();
    }

    core::SearchOptions search;
    search.heuristic = job->options.heuristic;
    // threads: 0 = auto-detect; > 1 runs the job's enumeration units on
    // the server-wide work-stealing pool, interleaved with other jobs'.
    search.threads = core::ThreadPool::resolve_threads(job->options.threads);
    search.pool = search_pool_.get();
    search.prune = !job->options.keep_all;
    search.bound_pruning =
        job->options.bound_pruning && !job->options.keep_all;
    search.max_trials = job->options.max_trials;
    if (job->options.keep_all && search.max_trials == 0) {
      search.max_trials = kKeepAllTrialCap;
    }
    search.cancel = &job->cancel_requested;
    search.deadline = job->deadline;
    search.profile = &job->profile;

    // The cross-request warm cache, keyed on the *core* fingerprint so a
    // revised job that only moved the constraint budget shares its base
    // job's evaluator: full-key entries from the base keep matching where
    // the constraints agree, and the core-level memo answers the rest
    // with verdict-only re-evaluations instead of fresh integrations.
    std::shared_ptr<core::CandidateEvaluator> shared_evaluator;
    if (options_.share_evaluators) {
      obs::TraceSpan acquire_span("serve.evaluator_pool.acquire");
      const std::uint64_t fingerprint =
          session.make_eval_context().core_fingerprint();
      shared_evaluator = evaluator_pool_.acquire(fingerprint);
      search.evaluator = shared_evaluator.get();
      span.arg("fingerprint", fingerprint);
    }

    const core::SearchResult result = session.search(search);
    std::string rendered;
    {
      obs::ScopedPhase render_phase(&job->profile, obs::SearchPhase::kRender);
      obs::TraceSpan render_span("serve.render");
      rendered = render_search_result(result).dump();
    }

    JobState state = JobState::Done;
    if (result.cancelled) {
      state = job->cancel_requested.load(std::memory_order_relaxed)
                  ? JobState::Cancelled
                  : JobState::DeadlineExceeded;
    }
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      job->result_json = std::move(rendered);
      job->prediction_stats = stats;
      job->designs = result.designs.size();
    }
    span.arg("trials", result.trials);
    span.arg("designs", result.designs.size());
    span.arg("state", to_string(state));
    finish_job(job, state);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      job->error = e.what();
    }
    span.arg("state", "failed");
    finish_job(job, JobState::Failed);
  }
}

void ChopServer::run_generate_job(const std::shared_ptr<Job>& job,
                                  obs::TraceSpan& span) {
  gen::GenerateOptions options;
  options.num_starts = job->options.num_starts;
  options.coarsening_ratio = job->options.coarsening_ratio;
  options.seed = job->options.gen_seed;
  options.threads = core::ThreadPool::resolve_threads(job->options.threads);
  // Starts interleave with other jobs' work on the server-wide pool; the
  // per-candidate searches stay single-threaded (the portfolio is the
  // parallelism). The engine brings its own cross-start evaluator, so the
  // fingerprint-keyed pool (which needs a session to key off) is not used.
  options.pool = search_pool_.get();
  options.search.threads = 1;
  options.search.bound_pruning = job->options.bound_pruning;
  options.cancel = &job->cancel_requested;
  options.deadline = job->deadline;
  options.profile = &job->profile;

  const gen::GenerateResult result = gen::generate_partitions(
      job->project.graph, job->project.library, job->project.chips,
      job->project.memory, job->project.config, options);

  std::string rendered;
  {
    obs::ScopedPhase render_phase(&job->profile, obs::SearchPhase::kRender);
    obs::TraceSpan render_span("serve.render");
    JsonValue fragment = render_search_result(result.search);
    fragment.set("generate",
                 render_generate_result(result, job->project.graph));
    rendered = fragment.dump();
  }

  JobState state = JobState::Done;
  if (result.cancelled) {
    state = job->cancel_requested.load(std::memory_order_relaxed)
                ? JobState::Cancelled
                : JobState::DeadlineExceeded;
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    job->result_json = std::move(rendered);
    job->designs = result.frontier.size();
  }
  span.arg("starts", result.starts_run);
  span.arg("evaluations", result.evaluations);
  span.arg("designs", result.frontier.size());
  span.arg("state", to_string(state));
  finish_job(job, state);
}

void ChopServer::finish_job(const std::shared_ptr<Job>& job, JobState state) {
  static obs::Counter& completed_counter =
      obs::MetricsRegistry::global().counter("serve.completed");
  static obs::Counter& cancelled_counter =
      obs::MetricsRegistry::global().counter("serve.cancelled");
  static obs::Counter& deadline_counter =
      obs::MetricsRegistry::global().counter("serve.deadline_exceeded");
  static obs::Counter& failed_counter =
      obs::MetricsRegistry::global().counter("serve.failed");
  static obs::Histogram& run_ms =
      obs::MetricsRegistry::global().histogram("serve.run_ms");
  static obs::Histogram& e2e_ms =
      obs::MetricsRegistry::global().histogram("serve.e2e_ms");

  const Job::Clock::time_point now = Job::Clock::now();
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    if (is_terminal(job->state)) return;  // cancel/shutdown race: first wins
    const bool was_running = job->state == JobState::Running;
    job->state = state;
    job->finished_at = now;
    if (was_running) {
      --running_;
      obs::MetricsRegistry::global()
          .gauge("serve.running")
          .set(static_cast<double>(running_));
      run_ms.observe(ms_between(job->started_at, now));
    }
    e2e_ms.observe(ms_between(job->submitted_at, now));
    switch (state) {
      case JobState::Done:
        ++completed_;
        completed_counter.add();
        break;
      case JobState::Cancelled:
        ++cancelled_;
        cancelled_counter.add();
        break;
      case JobState::DeadlineExceeded:
        ++deadline_exceeded_;
        deadline_counter.add();
        break;
      case JobState::Failed:
        ++failed_;
        failed_counter.add();
        break;
      case JobState::Queued:
      case JobState::Running:
        break;  // not terminal; unreachable
    }
  }
  jobs_cv_.notify_all();
}

JobView ChopServer::view(const std::string& id, bool wait_terminal,
                         std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(jobs_mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return {};
  const std::shared_ptr<Job>& job = it->second;
  if (wait_terminal && !is_terminal(job->state)) {
    jobs_cv_.wait_for(lock, timeout, [&] { return is_terminal(job->state); });
  }
  JobView view;
  view.found = true;
  view.id = job->id;
  view.state = job->state;
  view.result_json = job->result_json;
  view.error = job->error;
  view.designs = job->designs;
  view.prediction_stats = job->prediction_stats;
  view.trace_id = job->trace_id;
  view.profile = job->profile.data();
  if (job->started_at != Job::Clock::time_point{}) {
    view.queue_wait_ms = ms_between(job->submitted_at, job->started_at);
    if (job->finished_at != Job::Clock::time_point{}) {
      view.run_ms = ms_between(job->started_at, job->finished_at);
    }
  }
  return view;
}

CancelOutcome ChopServer::cancel(const std::string& id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) return CancelOutcome::NotFound;
    job = it->second;
    if (is_terminal(job->state)) return CancelOutcome::AlreadyTerminal;
    job->cancel_requested.store(true, std::memory_order_relaxed);
    if (job->state == JobState::Running) {
      return CancelOutcome::CancellingRunning;
    }
  }
  // Still queued: pull it out before a worker gets it. Losing the race is
  // fine — the raised flag stops the search at its next check.
  if (std::shared_ptr<Job> removed = queue_.remove(id)) {
    finish_job(removed, JobState::Cancelled);
    return CancelOutcome::CancelledQueued;
  }
  return CancelOutcome::CancellingRunning;
}

std::uint64_t ChopServer::uptime_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started_at_)
          .count());
}

obs::PhaseProfileData ChopServer::total_profile() const {
  obs::PhaseProfileData out;
  std::lock_guard<std::mutex> lock(jobs_mu_);
  for (const auto& [id, job] : jobs_) {
    (void)id;
    out += job->profile.data();
  }
  return out;
}

ServerStats ChopServer::stats() const {
  ServerStats stats;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    stats.workers = workers_.size();
    stats.running = running_;
    stats.submitted = submitted_;
    stats.revised = revised_;
    stats.rejected_overload = rejected_overload_;
    stats.completed = completed_;
    stats.cancelled = cancelled_;
    stats.deadline_exceeded = deadline_exceeded_;
    stats.failed = failed_;
  }
  stats.queue_depth = queue_.depth();
  stats.queue_capacity = queue_.capacity();
  stats.evaluator_pool = evaluator_pool_.stats();
  stats.eval_cache = evaluator_pool_.cache_stats();
  return stats;
}

void ChopServer::shutdown(bool drain) {
  // Serialized: the first caller performs the drain and joins the
  // workers; later callers (including the destructor) block until it is
  // complete, then return — nobody observes a half-dead server.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    if (shut_down_) return;
    accepting_ = false;
  }
  if (!drain) {
    for (const std::shared_ptr<Job>& job : queue_.drain_now()) {
      finish_job(job, JobState::Cancelled);
    }
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (const auto& [id, job] : jobs_) {
      (void)id;
      if (!is_terminal(job->state)) {
        job->cancel_requested.store(true, std::memory_order_relaxed);
      }
    }
  }
  queue_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  std::lock_guard<std::mutex> lock(jobs_mu_);
  shut_down_ = true;
}

bool ChopServer::accepting() const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  return accepting_;
}

}  // namespace chop::serve
