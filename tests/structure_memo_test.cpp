// Oracle tests for IntegrationMemo, the enumeration's memo of integrate()'s
// structure stage: on random scenarios (memory blocks, power budgets,
// pipelined styles) every memoized verdict, and every feasible full
// result, equals the bare integrate() bit for bit; a keep-all search that
// integrates through the memo reports exactly what one through the
// session's CandidateEvaluator reports, also at four threads; and a
// keep-all walk longer than the evaluator's capacity leaves the evaluator
// untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "chip/mosis_packages.hpp"
#include "core/eval/candidate_evaluator.hpp"
#include "core/integration.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "library/experiment_library.hpp"
#include "obs/observer.hpp"
#include "testing/scenario.hpp"
#include "util/numbered.hpp"
#include "util/rng.hpp"

namespace chop::core {
namespace {

using Selection = std::vector<const bad::DesignPrediction*>;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same(const StatVal& a, const StatVal& b, const std::string& what) {
  EXPECT_EQ(bits(a.lo()), bits(b.lo())) << what;
  EXPECT_EQ(bits(a.likely()), bits(b.likely())) << what;
  EXPECT_EQ(bits(a.hi()), bits(b.hi())) << what;
}

void expect_same(const std::vector<StatVal>& a, const std::vector<StatVal>& b,
                 const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_same(a[i], b[i], what + "[" + std::to_string(i) + "]");
  }
}

/// Every field of two integration results, doubles bit for bit.
void expect_same_result(const IntegrationResult& a,
                        const IntegrationResult& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.ii_main, b.ii_main);
  EXPECT_EQ(a.system_delay_main, b.system_delay_main);
  expect_same(a.adjusted_clock_ns, b.adjusted_clock_ns, "adjusted_clock_ns");
  expect_same(a.performance_ns, b.performance_ns, "performance_ns");
  expect_same(a.delay_ns, b.delay_ns, "delay_ns");
  expect_same(a.chip_area, b.chip_area, "chip_area");
  EXPECT_EQ(a.violated_chips, b.violated_chips);
  expect_same(a.chip_power_mw, b.chip_power_mw, "chip_power_mw");
  expect_same(a.system_power_mw, b.system_power_mw, "system_power_mw");
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    const TransferPlan& x = a.transfers[i];
    const TransferPlan& y = b.transfers[i];
    SCOPED_TRACE("transfer " + x.task.name);
    EXPECT_EQ(x.task.name, y.task.name);
    EXPECT_EQ(x.task.kind, y.task.kind);
    EXPECT_EQ(x.task.src_partition, y.task.src_partition);
    EXPECT_EQ(x.task.dst_partition, y.task.dst_partition);
    EXPECT_EQ(x.task.memory_block, y.task.memory_block);
    EXPECT_EQ(x.task.bits, y.task.bits);
    EXPECT_EQ(x.task.chips, y.task.chips);
    EXPECT_EQ(x.pins, y.pins);
    EXPECT_EQ(x.transfer_cycles, y.transfer_cycles);
    EXPECT_EQ(x.wait_cycles, y.wait_cycles);
    EXPECT_EQ(x.buffer_bits, y.buffer_bits);
    EXPECT_EQ(x.controller.inputs, y.controller.inputs);
    EXPECT_EQ(x.controller.outputs, y.controller.outputs);
    EXPECT_EQ(x.controller.product_terms, y.controller.product_terms);
    expect_same(x.controller.area, y.controller.area, "controller.area");
    EXPECT_EQ(bits(x.controller.delay), bits(y.controller.delay));
    expect_same(x.module_area, y.module_area, "module_area");
    expect_same(x.module_power_mw, y.module_power_mw, "module_power_mw");
  }
}

/// Scenario `seed` of the fuzzer's distribution, steered so that memory
/// blocks, power budgets and pipelined styles all occur.
io::Project scenario(std::uint64_t seed) {
  testing::ScenarioKnobs k = testing::sample_knobs(seed);
  k.chips = std::max(k.chips, 2);
  k.partitions = std::max(k.partitions, 2);
  k.allow_pipelining = true;
  if (seed % 2 == 0) {
    k.memory_blocks = 2;
    k.mem_reads = 2;
    k.mem_writes = 1;
  }
  if (seed % 3 == 0) {
    // Tight enough to bind: these designs draw about 40-200 mW.
    k.system_power_mw = 120;
    k.chip_power_mw = seed % 2 == 0 ? 60 : 0;
  }
  return testing::build_scenario(k);
}

TEST(EvalStructureMemo, VerdictsAndResultsMatchBareIntegrate) {
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  std::size_t hits = 0;
  std::vector<std::string> reasons;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("scenario " + std::to_string(seed));
    const io::Project project = scenario(seed);
    ChopSession session = project.make_session();
    session.predict_partitions();
    const auto& raw = session.predictions().raw;
    bool empty = false;
    for (const auto& list : raw) empty = empty || list.empty();
    if (empty) continue;
    const EvalContext ctx = session.make_eval_context();
    IntegrationMemo memo(ctx);

    // A small pool of selections drawn again and again, so keys repeat;
    // the II is the combination's, or a little above or below it.
    Rng rng(seed);
    std::vector<Selection> pool(24);
    for (Selection& s : pool) {
      for (const auto& list : raw) s.push_back(&list[rng.bounded(list.size())]);
    }
    for (int n = 0; n < 300; ++n) {
      const Selection& s = pool[rng.bounded(pool.size())];
      const Cycles base = combination_ii(s);
      const Cycles offsets[] = {0, 0, 0, 1, 7, -1};
      const Cycles ii = std::max<Cycles>(1, base + offsets[rng.bounded(6)]);

      const std::size_t before = memo.size();
      IntegrationResult full;
      const LeafVerdict v = memo.integrate(s, ii, &full);
      if (memo.size() == before) ++hits;
      const IntegrationResult bare = integrate(ctx, s, ii);
      ASSERT_EQ(v.feasible, bare.feasible);
      EXPECT_EQ(v.delay_main, bare.system_delay_main);
      EXPECT_EQ(bits(v.clock_ns), bits(bare.clock_ns()));
      EXPECT_EQ(std::string(v.reason), bare.reason);
      if (v.feasible) {
        ++feasible;
        expect_same_result(full, bare);
      } else {
        ++infeasible;
        if (std::find(reasons.begin(), reasons.end(), bare.reason) ==
            reasons.end()) {
          reasons.push_back(bare.reason);
        }
      }
    }
  }
  // The draw must exercise both verdicts, cache hits and several
  // failures, power budgets among them.
  EXPECT_GT(feasible, 100u);
  EXPECT_GT(infeasible, 100u);
  EXPECT_GT(hits, 1000u);
  EXPECT_GE(reasons.size(), 6u);
  EXPECT_TRUE(std::any_of(reasons.begin(), reasons.end(), [](const auto& r) {
    return r.find("system power") != std::string::npos;
  }));
  EXPECT_TRUE(std::any_of(reasons.begin(), reasons.end(), [](const auto& r) {
    return r.find("chip power") != std::string::npos;
  }));
}

/// A one-chip AR-filter context with hand-made predictions of any latency.
struct OneChip {
  dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Partitioning pt{ar.graph, {{"c0", chip::mosis_package_84()}}};
  OneChip() { pt.add_partition("P1", ar.all_operations(), 0); }
  EvalContext context() const {
    return EvalContext(pt, create_transfer_tasks(pt), {300.0, 10, 1},
                       {3.0e6, 3.0e6}, {});
  }
};

bad::DesignPrediction with_latency(Cycles latency) {
  bad::DesignPrediction p;
  p.style = bad::DesignStyle::Nonpipelined;
  p.stages = latency;
  p.ii_dp = p.ii_main = 1;
  p.latency_main = latency;
  p.total_area = StatVal(900.0, 1000.0, 1100.0);
  p.clock_overhead_ns = 4.0;
  return p;
}

TEST(EvalStructureMemo, HoldsAtMostMaxEntriesAndStaysExact) {
  const OneChip world;
  const EvalContext ctx = world.context();
  IntegrationMemo memo(ctx);
  const std::size_t keys = IntegrationMemo::kMaxEntries + 40;
  for (std::size_t n = 0; n < keys; ++n) {
    const bad::DesignPrediction p =
        with_latency(static_cast<Cycles>(1 + n));
    const Selection s{&p};
    IntegrationResult full;
    const LeafVerdict v = memo.integrate(s, 3000, &full);
    EXPECT_LE(memo.size(), IntegrationMemo::kMaxEntries);
    const IntegrationResult bare = integrate(ctx, s, 3000);
    ASSERT_EQ(v.feasible, bare.feasible) << n;
    EXPECT_EQ(v.delay_main, bare.system_delay_main) << n;
    if (v.feasible) expect_same_result(full, bare);
  }
  EXPECT_EQ(memo.size(), IntegrationMemo::kMaxEntries);
}

/// Two pipelines on two chips streaming from memory block 0, which sits
/// on chip 0 with one port: pipeA reads it locally, pipeB across pins.
ChopSession shared_port_session() {
  static const dfg::Graph graph = [] {
    dfg::Graph g("shared_port");
    for (int pipe = 0; pipe < 2; ++pipe) {
      const auto x = g.add_input(numbered("x", pipe), 16);
      const auto rd = g.add_mem_read(0, 16, dfg::kNoNode, numbered("rd", pipe));
      const auto mul = g.add_op(dfg::OpKind::Mul, 16, {rd, x});
      g.add_output(numbered("y", pipe), mul);
    }
    g.validate();
    return g;
  }();
  static const lib::ComponentLibrary library = lib::dac91_experiment_library();
  chip::MemorySubsystem memory;
  memory.blocks.push_back({"stream", 16, 1024, 1, 300.0, 8000.0, 3});
  memory.chip_of_block = {0};
  Partitioning pt(graph,
                  {{"c0", chip::mosis_package_84()},
                   {"c1", chip::mosis_package_84()}},
                  memory);
  pt.add_partition("pipeA", {1, 2}, 0);
  pt.add_partition("pipeB", {5, 6}, 1);
  ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {90000.0, 120000.0};
  return ChopSession(library, std::move(pt), config);
}

TEST(EvalStructureMemo, LocalMemoryDemandIsPartOfTheKey) {
  // Two pipeA predictions alike but for pipeA's local port demand: with
  // the demand, pipeA's run holds the only port pipeB's remote read
  // needs. The memo must not answer the second from the first.
  ChopSession session = shared_port_session();
  session.predict_partitions();
  const EvalContext ctx = session.make_eval_context();
  const auto& raw = session.predictions().raw;
  ASSERT_FALSE(raw[0].empty());
  ASSERT_FALSE(raw[1].empty());
  const bad::DesignPrediction& demanding = raw[0].front();
  ASSERT_FALSE(demanding.memory_accesses.empty());
  bad::DesignPrediction idle = demanding;
  idle.memory_accesses.clear();
  const Selection with_demand{&demanding, &raw[1].front()};
  const Selection without_demand{&idle, &raw[1].front()};
  const Cycles ii = combination_ii(with_demand);

  const IntegrationResult a = integrate(ctx, with_demand, ii);
  const IntegrationResult b = integrate(ctx, without_demand, ii);
  ASSERT_TRUE(a.reason != b.reason ||
              a.system_delay_main != b.system_delay_main);
  IntegrationMemo memo(ctx);
  for (const Selection* s : {&with_demand, &without_demand, &with_demand}) {
    const IntegrationResult bare = s == &with_demand ? a : b;
    const LeafVerdict v = memo.integrate(*s, ii);
    EXPECT_EQ(v.feasible, bare.feasible);
    EXPECT_EQ(v.delay_main, bare.system_delay_main);
    EXPECT_EQ(std::string(v.reason), bare.reason);
  }
  EXPECT_EQ(memo.size(), 2u);
}

/// Records the observer's callback sequence.
struct CaptureObserver : obs::SearchObserver {
  struct Event {
    std::size_t trials;
    std::size_t feasible;
    long long best_ii;
    long long best_delay;
    bool trial_feasible;
    std::string reason;
    bool operator==(const Event&) const = default;
  };
  std::vector<Event> events;
  void on_trial(const obs::SearchProgress& p) override {
    events.push_back({p.trials, p.feasible, p.best_ii, p.best_delay,
                      p.trial_feasible, p.reason});
  }
};

struct SearchRun {
  SearchResult result;
  std::vector<CaptureObserver::Event> events;
};

SearchRun keep_all(const ChopSession& session, CandidateEvaluator& evaluator,
             int threads, std::size_t max_trials) {
  CaptureObserver observer;
  SearchOptions options;
  options.prune = false;
  options.record_all = true;
  options.max_trials = max_trials;
  options.threads = threads;
  options.observer = &observer;
  options.evaluator = &evaluator;
  SearchRun run{session.search(options), {}};
  run.events = std::move(observer.events);
  return run;
}

void expect_same_run(const SearchRun& a, const SearchRun& b) {
  EXPECT_EQ(a.result.trials, b.result.trials);
  EXPECT_EQ(a.result.feasible_raw, b.result.feasible_raw);
  EXPECT_EQ(a.result.probe_integrations, b.result.probe_integrations);
  EXPECT_EQ(a.result.pruned_subtrees, b.result.pruned_subtrees);
  EXPECT_EQ(a.result.bound_skipped_leaves, b.result.bound_skipped_leaves);
  EXPECT_EQ(a.result.truncated, b.result.truncated);
  ASSERT_EQ(a.result.designs.size(), b.result.designs.size());
  for (std::size_t i = 0; i < a.result.designs.size(); ++i) {
    SCOPED_TRACE("design " + std::to_string(i));
    EXPECT_EQ(a.result.designs[i].choice, b.result.designs[i].choice);
    expect_same_result(a.result.designs[i].integration,
                       b.result.designs[i].integration);
  }
  const auto& pa = a.result.recorder.points();
  const auto& pb = b.result.recorder.points();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].ii_main, pb[i].ii_main) << "point " << i;
    ASSERT_EQ(pa[i].delay_main, pb[i].delay_main) << "point " << i;
    ASSERT_EQ(bits(pa[i].area_likely), bits(pb[i].area_likely)) << i;
    ASSERT_EQ(bits(pa[i].clock_ns), bits(pb[i].clock_ns)) << "point " << i;
    ASSERT_EQ(pa[i].feasible, pb[i].feasible) << "point " << i;
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    ASSERT_EQ(a.events[i], b.events[i]) << "event " << i;
  }
}

/// The paper's 2-way AR-filter cut on two 84-pin chips. Its keep-all space
/// has 219,024 leaves, more than a default evaluator holds.
ChopSession two_way_ar() {
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  static const lib::ComponentLibrary library = lib::dac91_experiment_library();
  Partitioning pt(ar.graph, {{"c0", chip::mosis_package_84()},
                             {"c1", chip::mosis_package_84()}});
  const auto cuts = dfg::ar_two_way_cut(ar);
  pt.add_partition("P1", cuts[0], 0);
  pt.add_partition("P2", cuts[1], 1);
  ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  return ChopSession(library, std::move(pt), config);
}

TEST(EvalStructureMemo, KeepAllThroughMemoMatchesEvaluator) {
  // Capped at 20,000 leaves, the walk fits in a default evaluator, which
  // it then consults; a zero-capacity evaluator sends it through the memo.
  ChopSession session = two_way_ar();
  session.predict_partitions();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    CandidateEvaluator cached;
    CandidateEvaluator none(0);
    const SearchRun through_evaluator =
        keep_all(session, cached, threads, 20000);
    const SearchRun through_memo = keep_all(session, none, threads, 20000);
    EXPECT_GT(cached.stats().misses, 0u);
    EXPECT_EQ(none.stats().misses, 0u);
    EXPECT_GT(through_evaluator.result.feasible_raw, 0u);
    expect_same_run(through_evaluator, through_memo);
  }
}

TEST(EvalStructureMemo, KeepAllThroughMemoMatchesEvaluatorOnScenarios) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("scenario " + std::to_string(seed));
    const io::Project project = scenario(seed);
    ChopSession session = project.make_session();
    session.predict_partitions();
    CandidateEvaluator cached;
    CandidateEvaluator none(0);
    expect_same_run(keep_all(session, cached, 4, 5000),
                    keep_all(session, none, 4, 5000));
  }
}

TEST(EvalStructureMemo, LongKeepAllSweepLeavesSessionEvaluatorUntouched) {
  ChopSession session = two_way_ar();
  session.predict_partitions();
  SearchOptions options;
  options.prune = false;
  options.threads = 4;
  const SearchResult result = session.search(options);
  EXPECT_GT(result.trials, 0u);
  EXPECT_FALSE(result.designs.empty());
  EXPECT_EQ(session.evaluator().size(), 0u);
  EXPECT_EQ(session.evaluator().stats().misses, 0u);
  EXPECT_EQ(session.evaluator().stats().hits, 0u);
}

}  // namespace
}  // namespace chop::core
