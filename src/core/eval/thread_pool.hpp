// Work-stealing thread pool for the evaluation engine. The parallel
// enumeration submits one job per prefix unit; each worker owns a deque
// it pushes and pops LIFO, idle workers steal FIFO from a randomly
// rotated victim, and externally submitted jobs land in a shared
// injector queue (batches are scattered across the worker deques so
// there is something to steal from the first instant). The pool imposes
// no ordering — determinism lives entirely in the caller's merge step —
// so steal order is free to be random, and a test-only chaos seed makes
// it adversarially random to prove exactly that.
//
// Blocked callers can help: try_run_one() runs one pending job on the
// calling thread, which lets a caller waiting on its own tasks drain the
// pool instead of sleeping behind it — and lets serve share one pool
// across concurrent jobs without a long search monopolizing it.
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

  /// Drains the queues: jobs already submitted run to completion, then
  /// the workers join.
  ~ThreadPool();

  /// Enqueues `job`; the future becomes ready when it finishes (or rethrows
  /// what it threw). Called from a pool worker, the job goes on that
  /// worker's own deque (LIFO); otherwise it goes to the injector queue.
  std::future<void> submit(std::function<void()> job);

  /// Enqueues a batch, scattering the jobs round-robin across the worker
  /// deques so every worker starts with local work and stealing only
  /// balances the tail. Futures are in job order.
  std::vector<std::future<void>> submit_batch(
      std::vector<std::function<void()>> jobs);

  /// Runs one pending job on the calling thread (injector first, then a
  /// steal). Returns false when nothing was runnable — never blocks.
  bool try_run_one();

  int size() const { return static_cast<int>(workers_.size()); }

  /// Maps a thread-count request to an actual worker count: values >= 1
  /// pass through, 0 (or negative) means "one worker per hardware
  /// thread" — the contract behind chop_cli/chopd `--threads=0`.
  static int resolve_threads(int requested);

  /// Test-only scheduler chaos: a nonzero seed perturbs victim rotation
  /// and queue preference per worker so repeated runs execute under
  /// different interleavings. 0 (the default) restores the tuned order.
  /// Applies to pools constructed after the call.
  static void set_scheduler_chaos_for_testing(std::uint64_t seed);

 private:
  struct WorkerDeque {
    std::mutex mu;
    std::deque<std::packaged_task<void()>> tasks;
  };

  void worker_loop(std::size_t self);
  bool pop_own(std::size_t self, std::packaged_task<void()>& task);
  bool pop_injector(std::packaged_task<void()>& task);
  /// Steals FIFO from some other worker's deque; `self` == size() for
  /// external helpers (no deque of their own to skip).
  bool steal(std::size_t self, std::uint64_t& rng,
             std::packaged_task<void()>& task);
  void enqueue(std::size_t target, std::packaged_task<void()> task);
  void announce(std::size_t count);

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerDeque>> deques_;
  WorkerDeque injector_;
  std::uint64_t chaos_seed_ = 0;  ///< Snapshot at construction.
  std::atomic<std::size_t> next_scatter_{0};  ///< Batch scatter cursor.

  std::mutex cv_mu_;
  std::condition_variable cv_;
  /// Queued, not yet popped (under cv_mu_). Signed: a pop can observe a
  /// task between its enqueue and its announce, so the count may dip
  /// transiently negative.
  long long pending_ = 0;
  bool stop_ = false;
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
