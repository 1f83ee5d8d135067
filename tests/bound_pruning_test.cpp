// Equivalence tests for the branch-and-bound enumeration search: with
// bound pruning on, the returned non-inferior design set must be
// byte-identical to the exhaustive walk's while visiting (often far)
// fewer leaves, and bounded runs must stay deterministic across thread
// counts — designs, counters, recorder contents, and observer callback
// sequence. Also unit-tests the incumbent ParetoFrontier the pruner
// queries.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "chip/mosis_packages.hpp"
#include "core/eval/candidate_evaluator.hpp"
#include "core/recorder.hpp"
#include "core/search.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "library/experiment_library.hpp"
#include "util/numbered.hpp"

namespace chop::core {
namespace {

using PointList = std::vector<std::pair<Cycles, Cycles>>;

TEST(ParetoFrontier, InsertKeepsTheNonDominatedStaircase) {
  ParetoFrontier f;
  EXPECT_TRUE(f.empty());
  f.insert(10, 100);
  f.insert(20, 50);
  f.insert(15, 70);
  EXPECT_EQ(f.points(), (PointList{{10, 100}, {15, 70}, {20, 50}}));
  f.insert(12, 120);  // dominated by (10, 100): folded away
  EXPECT_EQ(f.size(), 3u);
  f.insert(5, 200);  // new best-II corner
  EXPECT_EQ(f.points(), (PointList{{5, 200}, {10, 100}, {15, 70}, {20, 50}}));
  f.insert(4, 60);  // dominates everything but (20, 50)
  EXPECT_EQ(f.points(), (PointList{{4, 60}, {20, 50}}));
}

TEST(ParetoFrontier, WeaklyDominatedInsertIsANoOp) {
  ParetoFrontier f;
  f.insert(10, 100);
  f.insert(10, 100);  // exact duplicate
  f.insert(10, 101);
  f.insert(11, 100);
  EXPECT_EQ(f.points(), (PointList{{10, 100}}));
}

TEST(ParetoFrontier, DominatesStrictlyNeedsOneStrictCoordinate) {
  ParetoFrontier f;
  EXPECT_FALSE(f.dominates_strictly(1, 1));  // empty front dominates nothing
  f.insert(10, 100);
  f.insert(20, 50);
  // A point equal to a frontier point is NOT strictly dominated: the
  // subtree could still contribute that exact design, which non_inferior
  // keeps (ties are kept).
  EXPECT_FALSE(f.dominates_strictly(10, 100));
  EXPECT_FALSE(f.dominates_strictly(20, 50));
  EXPECT_TRUE(f.dominates_strictly(10, 101));   // same II, worse delay
  EXPECT_TRUE(f.dominates_strictly(11, 100));   // worse II, same delay
  EXPECT_TRUE(f.dominates_strictly(25, 60));    // inside the staircase
  EXPECT_FALSE(f.dominates_strictly(9, 300));   // better II than any point
  EXPECT_FALSE(f.dominates_strictly(15, 60));   // between corners, not covered
}

/// Ready-to-search session on the AR filter; experiment 1 is the paper's
/// single-cycle Figure-7 setup, experiment 2 the multi-cycle Figure-8 one.
ChopSession ar_session(int exp, int nparts) {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  std::vector<chip::ChipInstance> chips;
  for (int c = 0; c < nparts; ++c) {
    chips.push_back({numbered("chip", c), chip::mosis_package_84()});
  }
  Partitioning pt(ar.graph, std::move(chips));
  const auto cuts =
      nparts == 1 ? std::vector<std::vector<dfg::NodeId>>{ar.all_operations()}
                  : (nparts == 2 ? dfg::ar_two_way_cut(ar)
                                 : dfg::ar_three_way_cut(ar));
  for (int p = 0; p < nparts; ++p) {
    pt.add_partition(numbered("P", p + 1),
                     cuts[static_cast<std::size_t>(p)], p);
  }
  ChopConfig config;
  if (exp == 1) {
    config.style.clocking = bad::ClockingStyle::SingleCycle;
    config.clocks = {300.0, 10, 1};
    config.constraints = {30000.0, 30000.0};
  } else {
    config.style.clocking = bad::ClockingStyle::MultiCycle;
    config.clocks = {300.0, 1, 1};
    config.constraints = {20000.0, 20000.0};
  }
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

/// Runs the enumeration with a private evaluator so no run warms another
/// run's memo cache.
SearchResult run_search(const ChopSession& session, bool bound_pruning,
                        int threads, bool record_all = false,
                        std::size_t max_trials = 0,
                        obs::SearchObserver* observer = nullptr) {
  CandidateEvaluator evaluator;
  SearchOptions opt;
  opt.heuristic = Heuristic::Enumeration;
  opt.bound_pruning = bound_pruning;
  opt.threads = threads;
  opt.record_all = record_all;
  opt.max_trials = max_trials;
  opt.evaluator = &evaluator;
  opt.observer = observer;
  return session.search(opt);
}

/// The headline guarantee: identical `designs` vectors, element by element.
void expect_same_designs(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.designs.size(), b.designs.size());
  for (std::size_t i = 0; i < a.designs.size(); ++i) {
    SCOPED_TRACE("design " + std::to_string(i));
    const GlobalDesign& x = a.designs[i];
    const GlobalDesign& y = b.designs[i];
    EXPECT_EQ(x.choice, y.choice);
    EXPECT_EQ(x.integration.feasible, y.integration.feasible);
    EXPECT_EQ(x.integration.ii_main, y.integration.ii_main);
    EXPECT_EQ(x.integration.system_delay_main, y.integration.system_delay_main);
    EXPECT_EQ(x.integration.clock_ns(), y.integration.clock_ns());
    EXPECT_EQ(x.integration.performance_ns.likely(),
              y.integration.performance_ns.likely());
    EXPECT_EQ(x.integration.delay_ns.likely(), y.integration.delay_ns.likely());
  }
}

std::size_t eligible_product(const ChopSession& session) {
  std::size_t product = 1;
  for (const auto& list : session.predictions().eligible) {
    product *= list.size();
  }
  return product;
}

TEST(BoundPruning, Fig7DesignSetIdenticalToExhaustive) {
  for (int nparts : {2, 3}) {
    SCOPED_TRACE("nparts=" + std::to_string(nparts));
    ChopSession session = ar_session(1, nparts);
    session.predict_partitions();
    const SearchResult exhaustive = run_search(session, false, 1);
    const SearchResult bounded = run_search(session, true, 1);
    expect_same_designs(exhaustive, bounded);
    ASSERT_FALSE(bounded.designs.empty());
    EXPECT_EQ(exhaustive.trials, eligible_product(session));
    EXPECT_EQ(exhaustive.pruned_subtrees, 0u);
    EXPECT_EQ(exhaustive.bound_skipped_leaves, 0u);
    // Every leaf is either visited or accounted to a cut subtree.
    EXPECT_EQ(bounded.trials + bounded.bound_skipped_leaves,
              eligible_product(session));
    EXPECT_GT(bounded.pruned_subtrees, 0u);
    EXPECT_LT(bounded.trials, exhaustive.trials);
    // The seed probes are real integrations, reported separately.
    EXPECT_GT(bounded.probe_integrations, 0u);
    EXPECT_EQ(exhaustive.probe_integrations, 0u);
  }
}

TEST(BoundPruning, Fig8DesignSetIdenticalToExhaustive) {
  for (int nparts : {2, 3}) {
    SCOPED_TRACE("nparts=" + std::to_string(nparts));
    ChopSession session = ar_session(2, nparts);
    session.predict_partitions();
    const SearchResult exhaustive = run_search(session, false, 1);
    const SearchResult bounded = run_search(session, true, 1);
    expect_same_designs(exhaustive, bounded);
    EXPECT_EQ(bounded.trials + bounded.bound_skipped_leaves,
              eligible_product(session));
    EXPECT_LE(bounded.trials, exhaustive.trials);
  }
}

TEST(BoundPruning, RawListsDesignSetIdenticalToExhaustive) {
  // prune=false searches the raw (not level-1-pruned) lists; the bound
  // pruner must still return the identical design set there.
  ChopSession session = ar_session(1, 2);
  session.predict_partitions();
  CandidateEvaluator evaluator;
  SearchOptions opt;
  opt.heuristic = Heuristic::Enumeration;
  opt.prune = false;
  opt.evaluator = &evaluator;
  opt.bound_pruning = false;
  const SearchResult exhaustive = session.search(opt);
  opt.bound_pruning = true;
  const SearchResult bounded = session.search(opt);
  ASSERT_FALSE(exhaustive.truncated);
  expect_same_designs(exhaustive, bounded);
  EXPECT_LT(bounded.trials, exhaustive.trials);
}

void expect_identical_bounded(const SearchResult& serial,
                              const SearchResult& parallel, int threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_EQ(serial.trials, parallel.trials);
  EXPECT_EQ(serial.feasible_raw, parallel.feasible_raw);
  EXPECT_EQ(serial.truncated, parallel.truncated);
  EXPECT_EQ(serial.pruned_subtrees, parallel.pruned_subtrees);
  EXPECT_EQ(serial.bound_skipped_leaves, parallel.bound_skipped_leaves);
  EXPECT_EQ(serial.probe_integrations, parallel.probe_integrations);
  expect_same_designs(serial, parallel);
  ASSERT_EQ(serial.recorder.total(), parallel.recorder.total());
  EXPECT_EQ(serial.recorder.unique(), parallel.recorder.unique());
  EXPECT_EQ(serial.recorder.feasible_count(),
            parallel.recorder.feasible_count());
  const auto& pa = serial.recorder.points();
  const auto& pb = parallel.recorder.points();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].ii_main, pb[i].ii_main) << "point " << i;
    EXPECT_EQ(pa[i].delay_main, pb[i].delay_main) << "point " << i;
    EXPECT_EQ(pa[i].area_likely, pb[i].area_likely) << "point " << i;
    EXPECT_EQ(pa[i].feasible, pb[i].feasible) << "point " << i;
  }
}

TEST(BoundPruning, BoundedRunIdenticalAcrossThreadCounts) {
  ChopSession session = ar_session(1, 3);
  session.predict_partitions();
  CaptureObserver serial_obs;
  const SearchResult serial =
      run_search(session, true, 1, /*record_all=*/true, 0, &serial_obs);
  EXPECT_EQ(serial_obs.events.size(), serial.trials);
  for (int threads : {2, 4, 8}) {
    CaptureObserver parallel_obs;
    const SearchResult parallel = run_search(session, true, threads,
                                             /*record_all=*/true, 0,
                                             &parallel_obs);
    expect_identical_bounded(serial, parallel, threads);
    ASSERT_EQ(serial_obs.events.size(), parallel_obs.events.size());
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
    }
  }
}

TEST(BoundPruning, Fig8BoundedRunIdenticalAcrossThreadCounts) {
  ChopSession session = ar_session(2, 3);
  session.predict_partitions();
  const SearchResult serial =
      run_search(session, true, 1, /*record_all=*/true);
  for (int threads : {2, 4, 8}) {
    expect_identical_bounded(
        serial, run_search(session, true, threads, /*record_all=*/true),
        threads);
  }
}

/// The SearchOptions flag (what the CLI's --no-bound-pruning sets) must
/// select the exhaustive path: every leaf visited, zero pruner activity.
TEST(BoundPruning, DisableMechanismsAllSelectTheExhaustivePath) {
  ChopSession session = ar_session(1, 2);
  session.predict_partitions();
  const std::size_t product = eligible_product(session);

  const SearchResult via_flag = run_search(session, false, 1);
  EXPECT_EQ(via_flag.trials, product);
  EXPECT_EQ(via_flag.pruned_subtrees, 0u);
  EXPECT_EQ(via_flag.bound_skipped_leaves, 0u);
  EXPECT_EQ(via_flag.probe_integrations, 0u);

  // Control: with nothing disabling it, the pruner does engage and finds
  // the same design set.
  const SearchResult bounded = run_search(session, true, 1);
  EXPECT_GT(bounded.pruned_subtrees, 0u);
  EXPECT_LT(bounded.trials, product);
  expect_same_designs(via_flag, bounded);
}

TEST(BoundPruning, TruncationDeterministicAcrossThreadCounts) {
  ChopSession session = ar_session(1, 3);
  session.predict_partitions();
  const std::size_t cap = 23;  // not on any unit boundary
  const SearchResult serial =
      run_search(session, true, 1, /*record_all=*/true, cap);
  EXPECT_EQ(serial.trials, cap);
  EXPECT_TRUE(serial.truncated);
  for (int threads : {2, 4, 8}) {
    expect_identical_bounded(
        serial, run_search(session, true, threads, /*record_all=*/true, cap),
        threads);
  }
}

}  // namespace
}  // namespace chop::core
