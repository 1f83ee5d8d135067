// Tests for the evaluation-engine layer: EvalContext fingerprints,
// CandidateEvaluator memoization correctness (cached results equal fresh
// ones — across the iterative heuristic and a partition-generation run), and
// the bounded-residency eviction guarantee.
#include "core/eval/candidate_evaluator.hpp"

#include <gtest/gtest.h>

#include "chip/mosis_packages.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "gen/generate.hpp"
#include "library/experiment_library.hpp"
#include "obs/metrics.hpp"

namespace chop::core {
namespace {

using bad::DesignPrediction;
using bad::DesignStyle;

const lib::ComponentLibrary& library() {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  return lib;
}

DesignPrediction pred(DesignStyle style, Cycles ii, Cycles latency,
                      double area) {
  DesignPrediction p;
  p.style = style;
  p.module_set_label = std::string("t");
  p.fu_alloc[dfg::OpKind::Mul] = 1;
  p.stages = latency;
  p.ii_dp = ii;
  p.ii_main = ii;
  p.latency_main = latency;
  p.register_bits = 32;
  p.total_area = StatVal(area * 0.9, area, area * 1.1);
  p.clock_overhead_ns = 4.0;
  return p;
}

/// One-chip AR-filter partitioning with its owning storage.
struct World {
  dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Partitioning pt;
  World() : pt(ar.graph, {{"c0", chip::mosis_package_84()}}) {
    pt.add_partition("P1", ar.all_operations(), 0);
    pt.validate();
  }
  EvalContext context(Pins extra_pins = 0) const {
    return EvalContext(pt, create_transfer_tasks(pt), {300.0, 10, 1},
                       {30000.0, 30000.0}, {}, extra_pins);
  }
};

void expect_equal_results(const IntegrationResult& a,
                          const IntegrationResult& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.ii_main, b.ii_main);
  EXPECT_EQ(a.system_delay_main, b.system_delay_main);
  EXPECT_EQ(a.clock_ns(), b.clock_ns());
  EXPECT_EQ(a.performance_ns.likely(), b.performance_ns.likely());
  EXPECT_EQ(a.system_power_mw.likely(), b.system_power_mw.likely());
  ASSERT_EQ(a.chip_area.size(), b.chip_area.size());
  for (std::size_t c = 0; c < a.chip_area.size(); ++c) {
    EXPECT_EQ(a.chip_area[c].likely(), b.chip_area[c].likely());
  }
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t t = 0; t < a.transfers.size(); ++t) {
    EXPECT_EQ(a.transfers[t].buffer_bits, b.transfers[t].buffer_bits);
    EXPECT_EQ(a.transfers[t].pins, b.transfers[t].pins);
    EXPECT_EQ(a.transfers[t].wait_cycles, b.transfers[t].wait_cycles);
  }
}

TEST(EvalContext, FingerprintIsStableAndSensitive) {
  World w;
  const EvalContext a = w.context();
  const EvalContext b = w.context();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // Any config difference must change the problem identity.
  EXPECT_NE(a.fingerprint(), w.context(/*extra_pins=*/8).fingerprint());
  const EvalContext tighter(w.pt, create_transfer_tasks(w.pt), {300.0, 10, 1},
                            {20000.0, 30000.0}, {});
  EXPECT_NE(a.fingerprint(), tighter.fingerprint());
  const EvalContext other_clock(w.pt, create_transfer_tasks(w.pt),
                                {250.0, 10, 1}, {30000.0, 30000.0}, {});
  EXPECT_NE(a.fingerprint(), other_clock.fingerprint());
}

TEST(CandidateEvaluator, MemoizedResultEqualsFreshIntegration) {
  World w;
  const EvalContext ctx = w.context();
  const DesignPrediction a = pred(DesignStyle::Nonpipelined, 40, 40, 1000.0);

  CandidateEvaluator evaluator;
  const auto first = evaluator.evaluate(ctx, {&a}, 40);
  const auto second = evaluator.evaluate(ctx, {&a}, 40);
  EXPECT_EQ(first.get(), second.get());  // cache hit returns the same object
  const CandidateEvaluator::Stats stats = evaluator.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  expect_equal_results(*second, integrate(ctx, {&a}, 40));

  // A different II or a different prediction is a different candidate.
  evaluator.evaluate(ctx, {&a}, 50);
  const DesignPrediction b = pred(DesignStyle::Nonpipelined, 40, 40, 2000.0);
  evaluator.evaluate(ctx, {&b}, 40);
  EXPECT_EQ(evaluator.stats().misses, 3u);

  // An equal-content context (fresh object) still hits.
  const EvalContext ctx2 = w.context();
  evaluator.evaluate(ctx2, {&a}, 40);
  EXPECT_EQ(evaluator.stats().hits, 2u);
}

TEST(CandidateEvaluator, EvictionBoundHolds) {
  World w;
  const EvalContext ctx = w.context();
  constexpr std::size_t kCap = 16;  // multiple of the shard count: exact bound
  CandidateEvaluator evaluator(kCap);
  std::vector<DesignPrediction> preds;
  for (int i = 0; i < 48; ++i) {
    preds.push_back(
        pred(DesignStyle::Nonpipelined, 40, 40, 1000.0 + 10.0 * i));
  }
  for (const DesignPrediction& p : preds) {
    evaluator.evaluate(ctx, {&p}, 40);
    EXPECT_LE(evaluator.size(), kCap);
  }
  const CandidateEvaluator::Stats stats = evaluator.stats();
  EXPECT_EQ(stats.misses, preds.size());
  EXPECT_GE(stats.evictions, preds.size() - kCap);
  // An evicted candidate is recomputed, not corrupted.
  expect_equal_results(*evaluator.evaluate(ctx, {&preds[0]}, 40),
                       integrate(ctx, {&preds[0]}, 40));
}

TEST(CandidateEvaluator, ZeroCapacityNeverCaches) {
  World w;
  const EvalContext ctx = w.context();
  const DesignPrediction a = pred(DesignStyle::Nonpipelined, 40, 40, 1000.0);
  CandidateEvaluator evaluator(0);
  evaluator.evaluate(ctx, {&a}, 40);
  evaluator.evaluate(ctx, {&a}, 40);
  EXPECT_EQ(evaluator.size(), 0u);
  EXPECT_EQ(evaluator.stats().hits, 0u);
  EXPECT_EQ(evaluator.stats().misses, 2u);
  EXPECT_EQ(evaluator.stats().evictions, 0u);
}

ChopSession two_part_session() {
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Partitioning pt(ar.graph, {{"c0", chip::mosis_package_84()},
                             {"c1", chip::mosis_package_84()}});
  const auto cuts = dfg::ar_two_way_cut(ar);
  pt.add_partition("P1", cuts[0], 0);
  pt.add_partition("P2", cuts[1], 1);
  ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  return ChopSession(library(), std::move(pt), config);
}

void expect_same_designs(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.feasible_raw, b.feasible_raw);
  EXPECT_EQ(a.probe_integrations, b.probe_integrations);
  ASSERT_EQ(a.designs.size(), b.designs.size());
  for (std::size_t i = 0; i < a.designs.size(); ++i) {
    EXPECT_EQ(a.designs[i].choice, b.designs[i].choice);
    expect_equal_results(a.designs[i].integration, b.designs[i].integration);
  }
}

TEST(CandidateEvaluator, IterativeSearchCachedRunEqualsFreshRun) {
  ChopSession session = two_part_session();
  session.predict_partitions();
  SearchOptions opt;
  opt.heuristic = Heuristic::Iterative;

  const auto hits_before = obs::MetricsRegistry::global()
                               .snapshot()
                               .counters["eval.cache_hits"];
  // First run populates the session evaluator; the second replays from
  // cache; the third forces fresh integrations via a zero-capacity cache.
  const SearchResult first = session.search(opt);
  const SearchResult cached = session.search(opt);
  CandidateEvaluator no_cache(0);
  opt.evaluator = &no_cache;
  const SearchResult fresh = session.search(opt);
  expect_same_designs(first, cached);
  expect_same_designs(cached, fresh);
  EXPECT_GT(session.evaluator().stats().hits, 0u);
  const auto hits_after = obs::MetricsRegistry::global()
                              .snapshot()
                              .counters["eval.cache_hits"];
  EXPECT_GT(hits_after, hits_before);
}

TEST(CandidateEvaluator, AutoPartitionCachedRunEqualsFreshRun) {
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  std::vector<chip::ChipInstance> chips{{"c0", chip::mosis_package_84()},
                                        {"c1", chip::mosis_package_84()}};
  ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};

  gen::GenerateOptions cached_options;  // the run's shared evaluator
  cached_options.num_starts = 2;
  cached_options.budget = 6;
  const gen::GenerateResult cached = gen::generate_partitions(
      ar.graph, library(), chips, {}, config, cached_options);

  gen::GenerateOptions fresh_options = cached_options;
  CandidateEvaluator no_cache(0);  // recompute every integration
  fresh_options.search.evaluator = &no_cache;
  const gen::GenerateResult fresh = gen::generate_partitions(
      ar.graph, library(), chips, {}, config, fresh_options);

  EXPECT_EQ(cached.members, fresh.members);
  EXPECT_EQ(cached.evaluations, fresh.evaluations);
  EXPECT_EQ(cached.log, fresh.log);
  expect_same_designs(cached.search, fresh.search);
}

TEST(SearchMetrics, ProbeIntegrationsCounted) {
  ChopSession session = two_part_session();
  session.predict_partitions();
  const auto before = obs::MetricsRegistry::global()
                          .snapshot()
                          .counters["search.probe_integrations"];
  SearchOptions opt;
  opt.heuristic = Heuristic::Iterative;
  const SearchResult r = session.search(opt);
  const auto after = obs::MetricsRegistry::global()
                         .snapshot()
                         .counters["search.probe_integrations"];
  EXPECT_EQ(after - before, r.probe_integrations);
}

}  // namespace
}  // namespace chop::core
