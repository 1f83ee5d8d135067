// Thread pool for the evaluation engine: one mutex-guarded queue of tasks
// and one condition variable. Its users submit batches of coarse,
// independent tasks (the search's prefix units, generation's portfolio
// starts) and fold the results in index order, so the pool imposes no
// ordering — determinism lives entirely in the caller's fold — and a
// test-only chaos seed makes it pop pending tasks in pseudo-random order
// to prove exactly that.
//
// Workers take the oldest task. A blocked caller helps: try_run_one() runs
// the newest task on the calling thread, usually a task of the caller's
// own batch (or of a nested fold's inner batch). So when serve shares one
// pool across concurrent jobs, a short job's tasks do not wait behind the
// whole backlog of a long search submitted before it, and the long search
// still advances on the workers.
//
// ordered_fold() is the one way the engines use a pool: the search's
// prefix units and generation's portfolio starts both run as one batch
// folded strictly in index order, which is what makes their results
// independent of thread count and scheduling.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace chop::core {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(int threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue: jobs already submitted run to completion, then
  /// the workers join.
  ~ThreadPool();

  /// Appends a batch to the queue; each future becomes ready when its job
  /// finishes (or rethrows what it threw). Futures are in job order.
  std::vector<std::future<void>> submit_batch(
      std::vector<std::function<void()>> jobs);

  /// Runs the newest pending job on the calling thread. Returns false
  /// when nothing was queued — never blocks.
  bool try_run_one();

  /// Maps a thread-count request to an actual worker count: values >= 1
  /// pass through, 0 (or negative) means "one worker per hardware
  /// thread" — the contract behind chop_cli/chopd `--threads=0`.
  static int resolve_threads(int requested);

  /// Test-only scheduler chaos: a nonzero seed makes every pop take a
  /// pseudo-random pending job instead of the oldest (worker) or newest
  /// (try_run_one), so repeated runs execute in different orders. 0 (the
  /// default) restores that order. Applies to pools constructed after the
  /// call.
  static void set_scheduler_chaos_for_testing(std::uint64_t seed);

 private:
  /// Removes the newest or the oldest job from a non-empty queue; caller
  /// holds mu_.
  std::packaged_task<void()> pop_locked(bool newest);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> tasks_;  ///< Guarded by mu_.
  bool stop_ = false;                             ///< Guarded by mu_.
  /// Chaos pick state (guarded by mu_); 0 keeps the oldest/newest order.
  std::uint64_t chaos_state_ = 0;
  std::vector<std::thread> workers_;
};

/// Waits for `f`, running queued pool jobs on the calling thread while it
/// is not ready; blocks only when nothing is runnable.
inline void help_until_ready(ThreadPool& pool, const std::future<void>& f) {
  while (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    if (!pool.try_run_one()) f.wait();
  }
}

/// Runs `task(i)` for every i in [0, count) and hands each result to
/// `consume(i, result)` strictly in index order, until `consume` raises
/// `stop` (a long task may poll the flag to abort early). A null `pool`
/// runs task and consume inline, one index at a time. Otherwise the tasks go
/// out as one batch: the caller consumes task i as soon as it is ready,
/// helping run queued jobs while it waits, and a queued task that starts
/// after `stop` is raised returns without running. On every exit —
/// including an exception rethrown from a task or thrown by `consume` —
/// `stop` is raised and every future drained before this returns, so no
/// task outlives the caller's frame (essential on a pool shared with
/// other jobs). The result type must be default-constructible.
template <typename Task, typename Consume>
void ordered_fold(ThreadPool* pool, std::size_t count,
                  std::atomic<bool>& stop, const Task& task,
                  const Consume& consume) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < count && !stop.load(std::memory_order_relaxed);
         ++i) {
      consume(i, task(i));
    }
    return;
  }
  std::vector<std::invoke_result_t<const Task&, std::size_t>> results(count);
  std::vector<std::future<void>> futures;
  struct Drain {
    ThreadPool& pool;
    std::atomic<bool>& stop;
    std::vector<std::future<void>>& futures;
    ~Drain() {
      stop.store(true, std::memory_order_relaxed);
      for (const std::future<void>& f : futures) {
        if (f.valid()) help_until_ready(pool, f);
      }
    }
  } drain{*pool, stop, futures};

  std::vector<std::function<void()>> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back([&task, &results, &stop, i] {
      if (stop.load(std::memory_order_relaxed)) return;
      results[i] = task(i);
    });
  }
  futures = pool->submit_batch(std::move(jobs));
  for (std::size_t i = 0; i < count && !stop.load(std::memory_order_relaxed);
       ++i) {
    help_until_ready(*pool, futures[i]);
    futures[i].get();  // rethrows the task's exception
    consume(i, std::move(results[i]));
  }
}

}  // namespace chop::core
