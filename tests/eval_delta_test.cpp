// Tests for the incremental evaluation pipeline: EvalDelta application,
// which partitions the next predict pass reuses, and the contract that
// apply() → predict_partitions() → search() is byte-identical (through the
// serve rendering, counters included) to a cold session built at the same
// state.
#include "core/eval/eval_delta.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chip/mosis_packages.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "library/experiment_library.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "util/error.hpp"

namespace chop::core {
namespace {

const lib::ComponentLibrary& library() {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  return lib;
}

ChopSession make_session(int nparts,
                         chip::ChipPackage pkg = chip::mosis_package_84()) {
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  std::vector<chip::ChipInstance> chips;
  for (int c = 0; c < nparts; ++c) {
    chips.push_back({"chip" + std::to_string(c), pkg});
  }
  Partitioning pt(ar.graph, std::move(chips));
  const auto cuts =
      nparts == 1
          ? std::vector<std::vector<dfg::NodeId>>{ar.all_operations()}
          : (nparts == 2 ? dfg::ar_two_way_cut(ar) : dfg::ar_three_way_cut(ar));
  for (int p = 0; p < nparts; ++p) {
    pt.add_partition("P" + std::to_string(p + 1),
                     cuts[static_cast<std::size_t>(p)], p);
  }
  ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  return ChopSession(library(), std::move(pt), config);
}

/// The AR filter with two memory blocks, both off the shelf, on two chips.
ChopSession make_memory_session() {
  static const dfg::BenchmarkGraph arm = dfg::ar_lattice_filter_with_memory();
  chip::MemorySubsystem memory;
  memory.blocks.push_back({"coeff", 16, 64, 1, 300.0, 4000.0, 3});
  memory.blocks.push_back({"spill", 16, 256, 1, 300.0, 6000.0, 3});
  memory.chip_of_block = {chip::kOffTheShelfChip, chip::kOffTheShelfChip};
  Partitioning pt(arm.graph,
                  {{"c0", chip::mosis_package_84()},
                   {"c1", chip::mosis_package_84()}},
                  memory);
  pt.add_partition("P1", arm.layer_span(0, 3), 0);
  pt.add_partition("P2", arm.layer_span(4, arm.layers.size() - 1), 1);
  ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 60000.0};
  return ChopSession(library(), std::move(pt), config);
}

SearchResult predict_and_search(ChopSession& s, const SearchOptions& opt) {
  s.predict_partitions();
  return s.search(opt);
}

std::string rendered(const SearchResult& r) {
  return serve::render_search_result(r).dump();
}

std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// A node that can legally migrate to the next partition, or kNoNode.
dfg::NodeId find_movable(const Partitioning& pt, int* dest_out) {
  const auto& partitions = pt.partitions();
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    if (partitions[p].members.size() < 2) continue;
    const int dest = static_cast<int>((p + 1) % partitions.size());
    for (const dfg::NodeId op : partitions[p].members) {
      Partitioning probe = pt;
      try {
        probe.move_operation(op, dest);
        probe.validate();
      } catch (const Error&) {
        continue;
      }
      *dest_out = dest;
      return op;
    }
  }
  return dfg::kNoNode;
}

// ---- staleness, decided at predict time ----

TEST(EvalDelta, NoopDeltaReportsNoopAndSkipsAllWork) {
  ChopSession s = make_session(2);
  const SearchOptions opt;
  const SearchResult base = predict_and_search(s, opt);

  // Re-stating the current constraints changes no prediction input.
  s.apply(EvalDelta::set_constraints(s.config().constraints));
  EXPECT_THROW((void)s.search(opt), Error)
      << "every apply() invalidates the stored predictions";

  const std::uint64_t attempts = counter("integration.attempts");
  const std::uint64_t recomputed = counter("eval.delta_predict_recomputed");
  EXPECT_EQ(s.predict_partitions().reused, 2u);
  const SearchResult again = s.search(opt);
  EXPECT_EQ(counter("integration.attempts"), attempts)
      << "a no-op revision must not integrate anything";
  EXPECT_EQ(counter("eval.delta_predict_recomputed"), recomputed)
      << "a no-op revision must not re-run BAD";
  EXPECT_EQ(rendered(base), rendered(again));
}

TEST(EvalDelta, ConstraintChangeIsConstraintsOnly) {
  ChopSession s = make_session(2);
  const SearchOptions opt;
  const SearchResult base = predict_and_search(s, opt);
  DesignConstraints c = s.config().constraints;
  c.performance_ns = 27000.0;
  s.apply(EvalDelta::set_constraints(c));
  EXPECT_THROW((void)s.search(opt), Error);
  // The performance budget caps the pipelined II BAD sweeps (10 -> 9
  // datapath cycles here), so both raw lists are rebuilt.
  EXPECT_EQ(s.predict_partitions().reused, 0u);
  EXPECT_NE(rendered(base), rendered(s.search(opt)));
}

TEST(EvalDelta, ClockChangeDirtiesEveryPartition) {
  ChopSession s = make_session(3);
  s.predict_partitions();
  bad::ClockSpec clocks = s.config().clocks;
  clocks.main_clock = 330.0;
  s.apply(EvalDelta::set_clocking(s.config().style, clocks));
  EXPECT_EQ(s.predict_partitions().reused, 0u);
}

TEST(EvalDelta, MoveDirtiesOnlyTheTouchedPartitions) {
  ChopSession s = make_session(3);
  s.predict_partitions();
  int dest = 0;
  const dfg::NodeId op = find_movable(s.partitioning(), &dest);
  ASSERT_NE(op, dfg::kNoNode);
  s.apply(EvalDelta::move_operation(op, dest));
  EXPECT_EQ(s.predict_partitions().reused, 1u)
      << "a migration touches exactly source and destination";
}

TEST(EvalDelta, MemoryMoveDirtiesNoPredictionList) {
  ChopSession s = make_memory_session();
  s.predict_partitions();
  s.apply(EvalDelta::set_memory_placement(0, 0));
  EXPECT_EQ(s.partitioning().memory().placement(0), 0);
  EXPECT_EQ(s.predict_partitions().reused, 2u)
      << "BAD never reads where a memory block sits";
}

TEST(EvalDelta, InvalidTargetsThrow) {
  ChopSession s = make_session(2);
  EXPECT_THROW(
      s.apply(EvalDelta::replace_chip_package(9, chip::mosis_package_64())),
      Error);
  EXPECT_THROW(s.apply(EvalDelta::move_operation(dfg::NodeId{99999}, 0)),
               Error);
  EXPECT_THROW(s.apply(EvalDelta::move_operation(dfg::NodeId{0}, 7)), Error);
}

// ---- the equality oracle: incremental must be byte-identical to cold ----

TEST(EvalDelta, EachDeltaKindMatchesColdResearch) {
  struct Case {
    std::string name;
    EvalDelta delta;
    bool memory = false;  ///< Run on make_memory_session().
  };
  ChopSession probe = make_session(2);
  DesignConstraints tighter = probe.config().constraints;
  tighter.performance_ns = 27000.0;
  // A delay-only tighten keeps the raw lists and re-prunes them.
  DesignConstraints tighter_delay = probe.config().constraints;
  tighter_delay.delay_ns = 9000.0;
  bad::ClockSpec slower = probe.config().clocks;
  slower.main_clock = 330.0;
  const std::vector<Case> cases = {
      {"replace_package",
       EvalDelta::replace_chip_package(0, chip::mosis_package_64())},
      {"set_clocking", EvalDelta::set_clocking(probe.config().style, slower)},
      {"set_constraints", EvalDelta::set_constraints(tighter)},
      {"set_delay", EvalDelta::set_constraints(tighter_delay)},
      {"set_memory_placement", EvalDelta::set_memory_placement(0, 0), true},
  };
  for (const Case& c : cases) {
    const auto fresh = [&c] {
      return c.memory ? make_memory_session() : make_session(2);
    };
    ChopSession warm = fresh();
    const SearchOptions opt;
    (void)predict_and_search(warm, opt);
    warm.apply(c.delta);
    const SearchResult incremental = predict_and_search(warm, opt);

    ChopSession cold = fresh();
    cold.apply(c.delta);
    cold.predict_partitions();
    const SearchResult reference = cold.search(opt);
    EXPECT_EQ(rendered(incremental), rendered(reference)) << c.name;
  }
}

TEST(EvalDelta, StackedDeltasAcrossRevisionsMatchCold) {
  ChopSession warm = make_session(2);
  const SearchOptions opt;
  (void)predict_and_search(warm, opt);

  DesignConstraints tighter = warm.config().constraints;
  tighter.performance_ns = 27000.0;
  const EvalDelta first = EvalDelta::set_constraints(tighter);
  const EvalDelta second =
      EvalDelta::replace_chip_package(0, chip::mosis_package_64());

  warm.apply(first);
  (void)predict_and_search(warm, opt);
  warm.apply(second);
  const SearchResult incremental = predict_and_search(warm, opt);

  ChopSession cold = make_session(2);
  cold.apply(first);
  cold.apply(second);
  cold.predict_partitions();
  const SearchResult reference = cold.search(opt);
  EXPECT_EQ(rendered(incremental), rendered(reference));
}

TEST(EvalDelta, RoundTripRestoresTheBaseResult) {
  ChopSession s = make_session(2);
  const SearchOptions opt;
  const SearchResult base = predict_and_search(s, opt);

  DesignConstraints tighter = s.config().constraints;
  tighter.performance_ns = 27000.0;
  s.apply(EvalDelta::set_constraints(tighter));
  (void)predict_and_search(s, opt);
  s.apply(EvalDelta::set_constraints({30000.0, 30000.0}));

  const std::uint64_t attempts = counter("integration.attempts");
  const SearchResult restored = predict_and_search(s, opt);
  EXPECT_EQ(rendered(base), rendered(restored));
  EXPECT_EQ(counter("integration.attempts"), attempts)
      << "reverting to an already-evaluated state must hit the caches";
}

// ---- cache reuse across revisions ----

TEST(EvalDelta, ConstraintsOnlyDeltaReusesRawPredictions) {
  ChopSession s = make_session(2);
  const SearchOptions opt;
  (void)predict_and_search(s, opt);

  // Tighten the delay budget, not performance: the performance budget
  // feeds the pipelined-II enumeration cap, so tightening it legitimately
  // re-runs BAD. A delay change leaves the prediction environment intact.
  DesignConstraints tighter = s.config().constraints;
  tighter.delay_ns = 27000.0;
  s.apply(EvalDelta::set_constraints(tighter));
  const std::uint64_t reused = counter("eval.delta_predict_reused");
  (void)predict_and_search(s, opt);
  EXPECT_EQ(counter("eval.delta_predict_reused"), reused + 2)
      << "a delay budget change must not re-run BAD";
}

TEST(EvalDelta, ClockDeltaRecomputesEveryPrediction) {
  ChopSession s = make_session(2);
  const SearchOptions opt;
  (void)predict_and_search(s, opt);

  bad::ClockSpec slower = s.config().clocks;
  slower.main_clock = 330.0;
  s.apply(EvalDelta::set_clocking(s.config().style, slower));
  const std::uint64_t recomputed = counter("eval.delta_predict_recomputed");
  (void)predict_and_search(s, opt);
  EXPECT_EQ(counter("eval.delta_predict_recomputed"), recomputed + 2)
      << "an all-dirty delta degenerates to the cold prediction path";
}

}  // namespace
}  // namespace chop::core
