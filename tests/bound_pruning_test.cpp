// Equivalence tests for the branch-and-bound enumeration search: with
// bound pruning on, the returned non-inferior design set must be
// byte-identical to the exhaustive walk's while visiting (often far)
// fewer leaves, and bounded runs must stay deterministic across thread
// counts — designs, counters, recorder contents, and observer callback
// sequence. Also unit-tests the incumbent ParetoFrontier the pruner
// queries, and checks the longest-path delay bound on fuzz scenarios:
// it never exceeds any leaf's integrated delay at any prefix, and under a
// delay budget drawn from the scenario's own leaves the bounded walk
// still returns the exhaustive design set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "chip/mosis_packages.hpp"
#include "core/eval/bound_state.hpp"
#include "core/eval/candidate_evaluator.hpp"
#include "core/eval/eval_delta.hpp"
#include "core/integration.hpp"
#include "core/recorder.hpp"
#include "core/search.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "io/spec_format.hpp"
#include "library/experiment_library.hpp"
#include "testing/scenario.hpp"
#include "util/numbered.hpp"
#include "util/rng.hpp"

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
  // Keep-all, so that the bounded walk visits more leaves than the cap.
  const auto capped = [&](int threads) {
    CandidateEvaluator evaluator;
    SearchOptions opt;
    opt.heuristic = Heuristic::Enumeration;
    opt.prune = false;
    opt.threads = threads;
    opt.record_all = true;
    opt.max_trials = cap;
    opt.evaluator = &evaluator;
    return session.search(opt);
  };
  const SearchResult serial = capped(1);
  EXPECT_EQ(serial.trials, cap);
  EXPECT_TRUE(serial.truncated);
  for (int threads : {2, 4, 8}) {
    expect_identical_bounded(serial, capped(threads), threads);
  }
}

/// A fuzz scenario with 2-4 partitions on 2-3 chips, memory reads and
/// writes on one or two blocks, and pipelined styles allowed.
io::Project path_scenario(std::uint64_t index) {
  testing::ScenarioKnobs k = testing::sample_knobs(
      testing::scenario_seed(testing::parse_seed("path-bound"), index));
  k.partitions = 2 + static_cast<int>(index % 3);
  k.depth = std::max(k.depth, k.partitions);
  k.operations = std::max(k.operations, 2 * k.partitions);
  k.chips = 2 + static_cast<int>(index % 2);
  k.memory_blocks = 1 + static_cast<int>(index % 2);
  k.mem_reads = 2;
  k.mem_writes = 1;
  k.allow_pipelining = true;
  return testing::build_scenario(k);
}

/// Leaves an exhaustive walk of a scenario's raw lists may take; larger
/// spaces are skipped to keep the suite fast.
constexpr std::size_t kMaxLeaves = 6000;

/// Calls `visit(index, session)` on each of the first 40 path scenarios
/// whose raw lists span at most kMaxLeaves leaves, after prediction.
template <typename Visit>
void for_each_walkable_scenario(Visit visit) {
  for (std::uint64_t index = 0; index < 40; ++index) {
    const io::Project project = path_scenario(index);
    ChopSession session(project.library, project.make_partitioning(),
                        project.config);
    session.predict_partitions();
    std::size_t leaves = 1;  // 0 once a list is empty or past kMaxLeaves
    for (const auto& list : session.predictions().raw) {
      leaves = leaves == 0 || list.size() > kMaxLeaves / leaves
                   ? 0
                   : leaves * list.size();
    }
    if (leaves == 0) continue;
    SCOPED_TRACE("scenario " + std::to_string(index));
    visit(index, session);
  }
}

/// Calls `visit(selection, result)` on every leaf of `lists` whose
/// integration got past the structure stage (the pin budgets, the
/// transfer fit and the urgency schedule): only then is the adjusted
/// clock set.
template <typename Visit>
void for_each_scheduled_leaf(
    const EvalContext& ctx,
    const std::vector<std::vector<bad::DesignPrediction>>& lists,
    Visit visit) {
  std::vector<std::size_t> digits(lists.size(), 0);
  std::vector<const bad::DesignPrediction*> selection(lists.size());
  for (std::size_t p = 0; p < lists.size(); ++p) selection[p] = &lists[p][0];
  for (;;) {
    const IntegrationResult r =
        integrate(ctx, selection, combination_ii(selection));
    if (r.adjusted_clock_ns.likely() > 0.0) visit(selection, r);
    std::size_t p = 0;
    for (; p < lists.size(); ++p) {
      if (++digits[p] < lists[p].size()) {
        selection[p] = &lists[p][digits[p]];
        break;
      }
      digits[p] = 0;
      selection[p] = &lists[p][0];
    }
    if (p == lists.size()) return;
  }
}

using Selection = std::vector<const bad::DesignPrediction*>;

TEST(PathBound, NeverExceedsTheIntegratedDelayAtAnyPrefix) {
  std::size_t scenarios = 0;
  std::size_t leaves = 0;
  std::size_t tight = 0;
  for_each_walkable_scenario([&](std::uint64_t, const ChopSession& session) {
    ++scenarios;
    const auto& lists = session.predictions().raw;
    const EvalContext ctx = session.make_eval_context();
    const BoundTables tables(ctx, lists);
    std::size_t violations = 0;
    for_each_scheduled_leaf(ctx, lists, [&](const Selection& selection,
                                            const IntegrationResult& r) {
      ++leaves;
      // Every prefix of the walk's commit order, from nothing committed
      // to the whole leaf.
      PrefixState prefix(ctx.partitioning());
      Cycles bound = tables.delay_bound(prefix, selection.size());
      if (bound > r.system_delay_main) ++violations;
      for (std::size_t p = selection.size(); p-- > 0;) {
        ASSERT_TRUE(prefix.push(p, *selection[p]));
        bound = tables.delay_bound(prefix, p);
        if (bound > r.system_delay_main) ++violations;
      }
      if (bound == r.system_delay_main) ++tight;
    });
    EXPECT_EQ(violations, 0u);
  });
  EXPECT_GE(scenarios, 20u);
  EXPECT_GT(leaves, 10000u);
  // The bound is exact wherever sharing delays no task (about a quarter
  // of these leaves), so a bound that is admissible only because it is
  // loose fails here.
  EXPECT_GT(tight, leaves / 10);
}

SearchResult search_scenario(const ChopSession& session, bool prune,
                             bool bound_pruning) {
  CandidateEvaluator evaluator;
  SearchOptions opt;
  opt.heuristic = Heuristic::Enumeration;
  opt.prune = prune;
  opt.bound_pruning = bound_pruning;
  opt.evaluator = &evaluator;
  return session.search(opt);
}

TEST(PathBound, BoundedEqualsExhaustiveUnderABindingDelayBudget) {
  std::size_t scenarios = 0;
  std::size_t binding = 0;  ///< Scenarios whose budget fails some leaves.
  for_each_walkable_scenario([&](std::uint64_t index, ChopSession& session) {
    // The delay budget falls between the smallest and the largest delay
    // of the scenario's own leaves.
    const EvalContext ctx = session.make_eval_context();
    std::vector<StatVal> delays;
    Ns lo = std::numeric_limits<Ns>::max();
    Ns hi = 0.0;
    for_each_scheduled_leaf(
        ctx, session.predictions().raw,
        [&](const Selection&, const IntegrationResult& r) {
          delays.push_back(r.delay_ns);
          lo = std::min(lo, r.delay_ns.likely());
          hi = std::max(hi, r.delay_ns.likely());
        });
    if (!(lo < hi)) return;
    ++scenarios;
    Rng rng(index);
    DesignConstraints constraints = session.config().constraints;
    constraints.delay_ns = lo + (hi - lo) * rng.uniform01();
    const auto fails = std::count_if(
        delays.begin(), delays.end(), [&](const StatVal& delay) {
          return !ctx.criteria().delay_ok(delay, constraints.delay_ns);
        });
    if (fails > 0 && static_cast<std::size_t>(fails) < delays.size()) {
      ++binding;
    }
    session.apply(EvalDelta::set_constraints(constraints));
    session.predict_partitions();

    for (const bool prune : {true, false}) {
      SCOPED_TRACE(prune ? "pruned" : "keep-all");
      const SearchResult exhaustive = search_scenario(session, prune, false);
      const SearchResult bounded = search_scenario(session, prune, true);
      expect_same_designs(exhaustive, bounded);
      EXPECT_EQ(bounded.trials + bounded.bound_skipped_leaves,
                exhaustive.trials);
    }
  });
  EXPECT_GE(scenarios, 15u);
  EXPECT_GE(binding, scenarios / 2);
}

}  // namespace
}  // namespace chop::core
