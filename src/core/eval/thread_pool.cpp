#include "core/eval/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace chop::core {

namespace {

std::atomic<std::uint64_t> g_chaos_seed{0};

/// xorshift64* — cheap, decent-quality scheduling jitter. Never seeded
/// with 0 (the algorithm's fixed point).
std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1DULL;
}

}  // namespace

void ThreadPool::set_scheduler_chaos_for_testing(std::uint64_t seed) {
  g_chaos_seed.store(seed, std::memory_order_relaxed);
}

int ThreadPool::resolve_threads(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  const std::uint64_t seed = g_chaos_seed.load(std::memory_order_relaxed);
  if (seed != 0) chaos_state_ = seed * 0x9E3779B97F4A7C15ULL | 1;
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::vector<std::future<void>> ThreadPool::submit_batch(
    std::vector<std::function<void()>> jobs) {
  std::vector<std::future<void>> futures;
  futures.reserve(jobs.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::function<void()>& job : jobs) {
      std::packaged_task<void()> task(std::move(job));
      futures.push_back(task.get_future());
      tasks_.push_back(std::move(task));
    }
  }
  if (jobs.size() == 1) {
    cv_.notify_one();
  } else if (jobs.size() > 1) {
    cv_.notify_all();
  }
  return futures;
}

std::packaged_task<void()> ThreadPool::pop_locked(bool newest) {
  auto it = newest ? tasks_.end() - 1 : tasks_.begin();
  if (chaos_state_ != 0) {
    it = tasks_.begin() + static_cast<std::ptrdiff_t>(next_rand(chaos_state_) %
                                                      tasks_.size());
  }
  std::packaged_task<void()> task = std::move(*it);
  tasks_.erase(it);
  return task;
}

bool ThreadPool::try_run_one() {
  std::packaged_task<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.empty()) return false;
    task = pop_locked(/*newest=*/true);
  }
  task();
  return true;
}

void ThreadPool::worker_loop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ with nothing left to drain
      task = pop_locked(/*newest=*/false);
    }
    task();
  }
}

}  // namespace chop::core
