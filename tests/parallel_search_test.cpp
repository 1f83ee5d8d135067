// Determinism tests for the parallel enumeration search: any thread count
// must produce a SearchResult — designs, trial counts, recorder contents,
// observer callback sequence — byte-identical to the serial run, on the
// Figure-7 (AR filter, keep-all) workload. The AdversarialScheduler suite
// additionally makes the pool pop its tasks in pseudo-random order
// through its testing hook and demands the same byte-identity across 16
// hostile schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "chip/mosis_packages.hpp"
#include "core/eval/candidate_evaluator.hpp"
#include "core/eval/eval_context.hpp"
#include "core/eval/thread_pool.hpp"
#include "core/search.hpp"
#include "core/session.hpp"
#include "core/transfer.hpp"
#include "dfg/benchmarks.hpp"
#include "library/experiment_library.hpp"

namespace chop::core {
namespace {

/// Ready-to-search session on the AR filter (the Figure-7 experiment).
ChopSession fig7_session(int nparts) {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  std::vector<chip::ChipInstance> chips;
  for (int c = 0; c < nparts; ++c) {
    chips.push_back({"chip" + std::to_string(c), chip::mosis_package_84()});
  }
  Partitioning pt(ar.graph, std::move(chips));
  const auto cuts =
      nparts == 1 ? std::vector<std::vector<dfg::NodeId>>{ar.all_operations()}
                  : (nparts == 2 ? dfg::ar_two_way_cut(ar)
                                 : dfg::ar_three_way_cut(ar));
  for (int p = 0; p < nparts; ++p) {
    pt.add_partition("P" + std::to_string(p + 1),
                     cuts[static_cast<std::size_t>(p)], p);
  }
  ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  return ChopSession(lib, std::move(pt), config);
}

/// Records the full observer callback sequence for comparison.
struct CaptureObserver : obs::SearchObserver {
  struct Event {
    std::size_t trials;
    std::size_t feasible;
    long long best_ii;
    long long best_delay;
    bool trial_feasible;
    std::string reason;
  };
  std::vector<Event> events;
  std::size_t done_calls = 0;

  void on_trial(const obs::SearchProgress& p) override {
    events.push_back({p.trials, p.feasible, p.best_ii, p.best_delay,
                      p.trial_feasible, p.reason});
  }
  void on_done(const obs::SearchProgress&) override { ++done_calls; }
};

void expect_identical(const SearchResult& serial, const SearchResult& parallel,
                      int threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_EQ(serial.trials, parallel.trials);
  EXPECT_EQ(serial.feasible_raw, parallel.feasible_raw);
  EXPECT_EQ(serial.truncated, parallel.truncated);
  ASSERT_EQ(serial.designs.size(), parallel.designs.size());
  for (std::size_t i = 0; i < serial.designs.size(); ++i) {
    const GlobalDesign& a = serial.designs[i];
    const GlobalDesign& b = parallel.designs[i];
    EXPECT_EQ(a.choice, b.choice) << "design " << i;
    EXPECT_EQ(a.integration.feasible, b.integration.feasible);
    EXPECT_EQ(a.integration.ii_main, b.integration.ii_main);
    EXPECT_EQ(a.integration.system_delay_main, b.integration.system_delay_main);
    EXPECT_EQ(a.integration.clock_ns(), b.integration.clock_ns());
    EXPECT_EQ(a.integration.transfers.size(), b.integration.transfers.size());
  }
  ASSERT_EQ(serial.recorder.total(), parallel.recorder.total());
  EXPECT_EQ(serial.recorder.unique(), parallel.recorder.unique());
  EXPECT_EQ(serial.recorder.feasible_count(), parallel.recorder.feasible_count());
  const auto& pa = serial.recorder.points();
  const auto& pb = parallel.recorder.points();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].ii_main, pb[i].ii_main) << "point " << i;
    EXPECT_EQ(pa[i].delay_main, pb[i].delay_main) << "point " << i;
    EXPECT_EQ(pa[i].area_likely, pb[i].area_likely) << "point " << i;
    EXPECT_EQ(pa[i].clock_ns, pb[i].clock_ns) << "point " << i;
    EXPECT_EQ(pa[i].feasible, pb[i].feasible) << "point " << i;
  }
}

/// Runs the enumeration with a private evaluator (no cross-run cache
/// reuse, so every thread count does its own full integration work).
SearchResult run_at(const ChopSession& session, int threads, bool prune,
                    std::size_t max_trials = 0,
                    obs::SearchObserver* observer = nullptr) {
  CandidateEvaluator evaluator;
  SearchOptions opt;
  opt.heuristic = Heuristic::Enumeration;
  opt.prune = prune;
  opt.record_all = true;
  opt.threads = threads;
  opt.max_trials = max_trials;
  opt.evaluator = &evaluator;
  opt.observer = observer;
  return session.search(opt);
}

TEST(ParallelSearch, KeepAllIdenticalAcrossThreadCounts) {
  ChopSession session = fig7_session(2);
  session.predict_partitions();
  const SearchResult serial = run_at(session, 1, /*prune=*/false);
  ASSERT_GT(serial.trials, 0u);
  for (int threads : {2, 4, 8}) {
    expect_identical(serial, run_at(session, threads, /*prune=*/false),
                     threads);
  }
}

TEST(ParallelSearch, PrunedIdenticalAcrossThreadCounts) {
  ChopSession session = fig7_session(3);
  session.predict_partitions();
  const SearchResult serial = run_at(session, 1, /*prune=*/true);
  for (int threads : {2, 4, 8}) {
    expect_identical(serial, run_at(session, threads, /*prune=*/true),
                     threads);
  }

}

TEST(ParallelSearch, TruncationIdenticalAcrossThreadCounts) {
  ChopSession session = fig7_session(2);
  session.predict_partitions();
  const std::size_t cap = 37;  // mid-chunk, not on any chunk boundary
  const SearchResult serial = run_at(session, 1, /*prune=*/false, cap);
  EXPECT_TRUE(serial.truncated);
  EXPECT_EQ(serial.trials, cap);
  for (int threads : {2, 4, 8}) {
    expect_identical(serial, run_at(session, threads, /*prune=*/false, cap),
                     threads);
  }
}

/// A space degenerated to one candidate per partition plans exactly one
/// work unit, which takes the serial path whatever the thread count: the
/// parallel runs must match the serial run byte for byte. The one leaf is
/// a feasible design, which the bound never prunes. (The suite name
/// predates the removal of the cross-unit shared frontier.)
TEST(SharedFrontierSearch, SingleUnitSpaceIsInvariantUnderSharing) {
  ChopSession session = fig7_session(2);
  session.predict_partitions();
  const SearchResult full = run_at(session, 1, /*prune=*/true);
  ASSERT_FALSE(full.designs.empty());
  const std::vector<std::size_t>& choice = full.designs.front().choice;
  PartitionPredictions pred;
  for (std::size_t p = 0; p < choice.size(); ++p) {
    const bad::DesignPrediction& pick =
        session.predictions().eligible[p][choice[p]];
    pred.eligible.push_back({pick});
    pred.raw.push_back({pick});
  }
  const EvalContext ctx = session.make_eval_context();

  SearchOptions opt;
  opt.heuristic = Heuristic::Enumeration;
  opt.record_all = true;
  const SearchResult serial = find_feasible_implementations(ctx, pred, opt);
  EXPECT_EQ(serial.trials, 1u);

  for (const int threads : {2, 4}) {
    SearchOptions popt = opt;
    popt.threads = threads;
    expect_identical(serial, find_feasible_implementations(ctx, pred, popt),
                     threads);
  }
}

/// Bounded units that hit the record cap stop before evaluating their
/// next leaf while other units keep running. The race must not leak into
/// the merged result: capped parallel keep-all runs are byte-identical to
/// the capped serial run at any thread count, twice.
TEST(SharedFrontierSearch, PublicationRacingRecordCapStaysDeterministic) {
  ChopSession session = fig7_session(2);
  session.predict_partitions();
  // Well under the ~1,000 leaves the bounded Fig-7 two-way keep-all walk
  // visits.
  const std::size_t cap = 40;
  const SearchResult serial = run_at(session, 1, /*prune=*/false, cap);
  EXPECT_TRUE(serial.truncated);
  EXPECT_EQ(serial.trials, cap);

  for (const int threads : {2, 4, 8}) {
    const SearchResult first = run_at(session, threads, /*prune=*/false, cap);
    const SearchResult second = run_at(session, threads, /*prune=*/false, cap);
    expect_identical(serial, first, threads);
    expect_identical(first, second, threads);
  }
}

TEST(ParallelSearch, ObserverSequenceIdenticalAndInOrder) {
  ChopSession session = fig7_session(2);
  session.predict_partitions();
  CaptureObserver serial_obs;
  const SearchResult serial =
      run_at(session, 1, /*prune=*/false, 0, &serial_obs);
  CaptureObserver parallel_obs;
  const SearchResult parallel =
      run_at(session, 4, /*prune=*/false, 0, &parallel_obs);
  expect_identical(serial, parallel, 4);

  ASSERT_EQ(serial_obs.events.size(), parallel_obs.events.size());
  EXPECT_EQ(serial_obs.events.size(), serial.trials);
  EXPECT_EQ(parallel_obs.done_calls, 1u);
  for (std::size_t i = 0; i < serial_obs.events.size(); ++i) {
    const auto& a = serial_obs.events[i];
    const auto& b = parallel_obs.events[i];
    EXPECT_EQ(a.trials, b.trials) << "event " << i;
    EXPECT_EQ(a.feasible, b.feasible) << "event " << i;
    EXPECT_EQ(a.best_ii, b.best_ii) << "event " << i;
    EXPECT_EQ(a.best_delay, b.best_delay) << "event " << i;
    EXPECT_EQ(a.trial_feasible, b.trial_feasible) << "event " << i;
    EXPECT_EQ(a.reason, b.reason) << "event " << i;
    // Callbacks arrive in trial order: trials is exactly i+1.
    EXPECT_EQ(b.trials, i + 1);
  }
}

TEST(ParallelSearch, SharedEvaluatorAcrossThreadCountsStillIdentical) {
  // The session's own evaluator serves all four runs — later runs are
  // pure cache replays and must still merge into identical results. Keep
  // the explored slice below the evaluator's residency bound, otherwise
  // the FIFO cache thrashes on the sequential re-scan and never hits.
  ChopSession session = fig7_session(2);
  session.predict_partitions();
  SearchOptions opt;
  opt.heuristic = Heuristic::Enumeration;
  opt.prune = false;
  opt.record_all = true;
  opt.max_trials = 20000;
  static_assert(20000 < CandidateEvaluator::kDefaultMaxEntries);
  const SearchResult serial = session.search(opt);
  for (int threads : {2, 4, 8}) {
    opt.threads = threads;
    expect_identical(serial, session.search(opt), threads);
  }
  EXPECT_GT(session.evaluator().stats().hits, 0u);
}

/// Builds an evaluation problem whose odometer space saturates
/// std::size_t: the AR filter split over 8 generously-sized chips, with
/// 256 (identical, individually feasible) candidates per partition —
/// 256^8 = 2^64 leaves. The historical flat walk could not parallelize
/// this (it indexed trials by a single global counter); the prefix-unit
/// enumeration must slice it, honor max_trials, and stay deterministic
/// at every thread count in both bounded and exhaustive modes.
struct SaturatedSpace {
  static constexpr int kParts = 8;
  static constexpr std::size_t kCandidates = 256;

  Partitioning pt;
  EvalContext ctx;
  PartitionPredictions pred;

  static Partitioning make_partitioning() {
    static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
    chip::ChipPackage big;
    big.name = "big";
    big.width_mil = 10000.0;
    big.height_mil = 10000.0;
    big.pin_count = 400;
    big.pad_delay = 5.0;
    big.io_pad_area = 10.0;
    std::vector<chip::ChipInstance> chips;
    for (int c = 0; c < kParts; ++c) {
      chips.push_back({"chip" + std::to_string(c), big});
    }
    Partitioning pt(ar.graph, std::move(chips));
    const std::vector<dfg::NodeId> ops = ar.all_operations();
    // Balanced split: every partition gets floor(n/k) ops, the first
    // n % k partitions one extra, so none is ever empty.
    std::size_t first = 0;
    for (int p = 0; p < kParts; ++p) {
      const std::size_t size =
          ops.size() / kParts +
          (static_cast<std::size_t>(p) < ops.size() % kParts ? 1 : 0);
      pt.add_partition(
          "P" + std::to_string(p + 1),
          std::vector<dfg::NodeId>(
              ops.begin() + static_cast<long>(first),
              ops.begin() + static_cast<long>(first + size)),
          p);
      first += size;
    }
    return pt;
  }

  SaturatedSpace()
      : pt(make_partitioning()),
        ctx(pt, create_transfer_tasks(pt), bad::ClockSpec{300.0, 10, 1},
            DesignConstraints{1e9, 1e9}, FeasibilityCriteria{}) {
    bad::DesignPrediction p;
    p.style = bad::DesignStyle::Nonpipelined;
    p.module_set_label = "t";
    p.fu_alloc[dfg::OpKind::Mul] = 1;
    p.stages = 30;
    p.ii_dp = 30;
    p.ii_main = 30;
    p.latency_main = 30;
    p.register_bits = 32;
    p.total_area = StatVal(900.0, 1000.0, 1100.0);
    p.clock_overhead_ns = 4.0;
    pred.eligible.assign(
        kParts, std::vector<bad::DesignPrediction>(kCandidates, p));
    pred.raw = pred.eligible;
  }
};

TEST(ParallelSearch, SaturatedSpaceHonorsCapAtEveryThreadCount) {
  SaturatedSpace space;
  const std::size_t cap = 500;
  for (bool bound_pruning : {false, true}) {
    SCOPED_TRACE(bound_pruning ? "bounded" : "exhaustive");
    SearchOptions opt;
    opt.heuristic = Heuristic::Enumeration;
    opt.bound_pruning = bound_pruning;
    opt.record_all = true;
    opt.max_trials = cap;
    const SearchResult serial =
        find_feasible_implementations(space.ctx, space.pred, opt);
    EXPECT_EQ(serial.trials, cap);
    EXPECT_TRUE(serial.truncated);
    ASSERT_FALSE(serial.designs.empty());
    for (int threads : {2, 4, 8}) {
      opt.threads = threads;
      expect_identical(
          serial, find_feasible_implementations(space.ctx, space.pred, opt),
          threads);
    }
  }
}

std::size_t eligible_product(const ChopSession& session) {
  std::size_t product = 1;
  for (const auto& list : session.predictions().eligible) {
    product *= list.size();
  }
  return product;
}

void expect_same_observer_stream(const CaptureObserver& a,
                                 const CaptureObserver& b) {
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.done_calls, b.done_calls);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].trials, b.events[i].trials) << "event " << i;
    EXPECT_EQ(a.events[i].feasible, b.events[i].feasible) << "event " << i;
    EXPECT_EQ(a.events[i].best_ii, b.events[i].best_ii) << "event " << i;
    EXPECT_EQ(a.events[i].best_delay, b.events[i].best_delay) << "event " << i;
    EXPECT_EQ(a.events[i].trial_feasible, b.events[i].trial_feasible)
        << "event " << i;
    EXPECT_EQ(a.events[i].reason, b.events[i].reason) << "event " << i;
  }
}

/// Forces adversarial scheduling for the lifetime of the guard: a pool
/// constructed meanwhile pops pending tasks in an order drawn from `seed`.
/// The hook resets to the default pop order on destruction.
struct ScheduleChaos {
  explicit ScheduleChaos(std::uint64_t seed) {
    ThreadPool::set_scheduler_chaos_for_testing(seed);
  }
  ~ScheduleChaos() { ThreadPool::set_scheduler_chaos_for_testing(0); }
};

/// Bounded (default) search through the session's shared evaluator, so
/// the 64 adversarial replays below are mostly cache hits. Pruned unless
/// `prune` is false (keep-all).
SearchResult run_scheduled(const ChopSession& session, int threads,
                           obs::SearchObserver* observer = nullptr,
                           std::size_t max_trials = 0, bool prune = true) {
  SearchOptions opt;
  opt.heuristic = Heuristic::Enumeration;
  opt.prune = prune;
  opt.record_all = true;
  opt.threads = threads;
  opt.observer = observer;
  opt.max_trials = max_trials;
  return session.search(opt);
}

TEST(AdversarialScheduler, ByteIdenticalAcrossSixteenHostileSchedules) {
  ChopSession session = fig7_session(3);
  session.predict_partitions();
  const std::size_t space = eligible_product(session);
  CaptureObserver base_obs;
  const SearchResult base = run_scheduled(session, 1, &base_obs);
  ASSERT_FALSE(base.designs.empty());
  // Every leaf is either visited or accounted to a cut subtree.
  EXPECT_EQ(base.trials + base.bound_skipped_leaves, space);
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      ScheduleChaos chaos(seed);
      CaptureObserver obs;
      const SearchResult got = run_scheduled(session, threads, &obs);
      expect_identical(base, got, threads);
      EXPECT_EQ(got.trials + got.bound_skipped_leaves, space);
      EXPECT_EQ(base.pruned_subtrees, got.pruned_subtrees);
      EXPECT_EQ(base.bound_skipped_leaves, got.bound_skipped_leaves);
      expect_same_observer_stream(base_obs, obs);
    }
  }
}

TEST(AdversarialScheduler, CappedRunsDeterministicUnderChaos) {
  // Units stop at the max_trials record budget while the merge raises the
  // stop flag — the truncation point must not move with the schedule.
  // Keep-all, so that the bounded walk visits more leaves than the cap.
  ChopSession session = fig7_session(2);
  session.predict_partitions();
  const std::size_t cap = 37;  // not on any unit or wave boundary
  const SearchResult base =
      run_scheduled(session, 1, nullptr, cap, /*prune=*/false);
  EXPECT_TRUE(base.truncated);
  EXPECT_EQ(base.trials, cap);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (int threads : {2, 4, 8}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      ScheduleChaos chaos(seed);
      expect_identical(
          base, run_scheduled(session, threads, nullptr, cap, /*prune=*/false),
          threads);
    }
  }
}

TEST(ThreadPool, ResolveThreadsAutoDetectsZeroAndNegative) {
  EXPECT_EQ(ThreadPool::resolve_threads(1), 1);
  EXPECT_EQ(ThreadPool::resolve_threads(7), 7);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1);
  EXPECT_EQ(ThreadPool::resolve_threads(0), ThreadPool::resolve_threads(-3));
}

TEST(ThreadPool, CallerCanHelpDrainTheQueue) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 32; ++i) {
    jobs.push_back([&ran] { ran.fetch_add(1); });
  }
  auto futures = pool.submit_batch(std::move(jobs));
  // The caller helps instead of blocking; whatever the workers have not
  // grabbed yet runs inline here.
  while (pool.try_run_one()) {
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 64; ++i) {
    jobs.push_back([&ran] { ran.fetch_add(1); });
  }
  for (auto& f : pool.submit_batch(std::move(jobs))) f.get();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> jobs;
  jobs.push_back([] { throw Error("boom"); });
  auto futures = pool.submit_batch(std::move(jobs));
  EXPECT_THROW(futures[0].get(), Error);
}

/// Order in which a 1-worker pool runs a 16-job batch; the caller only
/// waits, so the worker alone decides the order.
std::vector<int> single_worker_run_order(std::uint64_t chaos_seed) {
  ScheduleChaos chaos(chaos_seed);
  ThreadPool pool(1);
  std::mutex mu;
  std::vector<int> order;
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.push_back([&mu, &order, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  for (auto& f : pool.submit_batch(std::move(jobs))) f.get();
  return order;
}

TEST(ThreadPool, OneWorkerRunsFifoUnlessChaosReorders) {
  std::vector<int> fifo(16);
  for (int i = 0; i < 16; ++i) fifo[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(single_worker_run_order(0), fifo);
  // The chaos hook must actually perturb the schedule, or the
  // AdversarialScheduler suite proves nothing.
  bool reordered = false;
  for (std::uint64_t seed = 1; seed <= 4 && !reordered; ++seed) {
    std::vector<int> order = single_worker_run_order(seed);
    reordered = order != fifo;
    std::sort(order.begin(), order.end());
    EXPECT_EQ(order, fifo) << "seed " << seed;
  }
  EXPECT_TRUE(reordered);
}

TEST(ThreadPool, CallerHelpsNewestFirst) {
  // Park the only worker; the caller then drains two batches alone, newest
  // task first — on a shared pool a waiting caller runs its own recent
  // batch before an older backlog.
  ThreadPool pool(1);
  std::promise<void> parked;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::vector<std::function<void()>> park;
  park.push_back([&parked, released] {
    parked.set_value();
    released.wait();
  });
  std::future<void> parking = std::move(pool.submit_batch(std::move(park))[0]);
  parked.get_future().wait();

  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int batch = 0; batch < 2; ++batch) {
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 4; ++i) {
      jobs.push_back([&order, batch, i] { order.push_back(batch * 4 + i); });
    }
    for (auto& f : pool.submit_batch(std::move(jobs))) {
      futures.push_back(std::move(f));
    }
  }
  while (pool.try_run_one()) {
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(order, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
  release.set_value();
  parking.get();
}

TEST(ThreadPool, NestedOrderedFoldCompletesInIndexOrder) {
  // Each outer task folds its own inner batch on the same pool, so a
  // thread waiting on one fold must help run the other's tasks.
  for (const int workers : {1, 2}) {
    for (const std::uint64_t seed : {0u, 1u, 2u, 3u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " seed=" + std::to_string(seed));
      ScheduleChaos chaos(seed);
      ThreadPool pool(workers);
      std::atomic<bool> outer_stop{false};
      std::vector<std::size_t> outer_order;
      std::vector<std::vector<std::size_t>> inner_orders;
      ordered_fold(
          &pool, 6, outer_stop,
          [&pool](std::size_t o) {
            std::atomic<bool> inner_stop{false};
            std::vector<std::size_t> inner_order;
            ordered_fold(
                &pool, 5, inner_stop,
                [o](std::size_t i) { return o * 10 + i; },
                [&inner_order](std::size_t, std::size_t v) {
                  inner_order.push_back(v);
                });
            return inner_order;
          },
          [&](std::size_t o, std::vector<std::size_t> inner) {
            outer_order.push_back(o);
            inner_orders.push_back(std::move(inner));
          });
      ASSERT_EQ(outer_order.size(), 6u);
      for (std::size_t o = 0; o < 6; ++o) {
        EXPECT_EQ(outer_order[o], o);
        ASSERT_EQ(inner_orders[o].size(), 5u);
        for (std::size_t i = 0; i < 5; ++i) {
          EXPECT_EQ(inner_orders[o][i], o * 10 + i);
        }
      }
    }
  }
}

}  // namespace
}  // namespace chop::core
