// End-to-end tests of the ChopSession facade: the full Figure-1 loop on
// the paper's workload, regression-pinning the reproduced experiment
// shapes, and the designer guideline output of §3.1.
#include "core/session.hpp"

#include <gtest/gtest.h>

#include "chip/mosis_packages.hpp"
#include "dfg/benchmarks.hpp"
#include "library/experiment_library.hpp"
#include "util/numbered.hpp"

namespace chop::core {
namespace {

const lib::ComponentLibrary& library() {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  return lib;
}

ChopSession make_session(int nparts, bad::ClockingStyle clocking,
                         chip::ChipPackage pkg = chip::mosis_package_84()) {
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  std::vector<chip::ChipInstance> chips;
  for (int c = 0; c < nparts; ++c) {
    chips.push_back({numbered("chip", c), pkg});
  }
  Partitioning pt(ar.graph, std::move(chips));
  const auto cuts =
      nparts == 1
          ? std::vector<std::vector<dfg::NodeId>>{ar.all_operations()}
          : (nparts == 2 ? dfg::ar_two_way_cut(ar) : dfg::ar_three_way_cut(ar));
  for (int p = 0; p < nparts; ++p) {
    pt.add_partition(numbered("P", p + 1),
                     cuts[static_cast<std::size_t>(p)], p);
  }
  ChopConfig config;
  config.style.clocking = clocking;
  if (clocking == bad::ClockingStyle::SingleCycle) {
    config.clocks = {300.0, 10, 1};
    config.constraints = {30000.0, 30000.0};
  } else {
    config.clocks = {300.0, 1, 1};
    config.constraints = {20000.0, 20000.0};
  }
  return ChopSession(library(), std::move(pt), config);
}

TEST(Session, SearchRequiresPredictions) {
  ChopSession s = make_session(1, bad::ClockingStyle::SingleCycle);
  EXPECT_THROW(s.search(SearchOptions{}), Error);
}

TEST(Session, PredictionStatsPopulated) {
  ChopSession s = make_session(2, bad::ClockingStyle::SingleCycle);
  const PredictionStats stats = s.predict_partitions();
  EXPECT_GT(stats.total, 100u);
  EXPECT_GT(stats.feasible, 0u);
  EXPECT_LT(stats.feasible, stats.total);
  EXPECT_EQ(s.predictions().raw.size(), 2u);
  EXPECT_EQ(s.predictions().eligible.size(), 2u);
}

// ---- experiment-1 regression: the Table 4 shape ----

TEST(Session, Experiment1SinglePartitionFeasible) {
  ChopSession s = make_session(1, bad::ClockingStyle::SingleCycle);
  s.predict_partitions();
  SearchOptions opt;
  opt.heuristic = Heuristic::Iterative;
  const SearchResult r = s.search(opt);
  ASSERT_FALSE(r.designs.empty());
  // Reproduced shape: II ~60-80 main cycles (paper: 60), clock slightly
  // above the 300 ns input (paper: 312).
  EXPECT_GE(r.designs.front().integration.ii_main, 50);
  EXPECT_LE(r.designs.front().integration.ii_main, 80);
  EXPECT_GT(r.designs.front().integration.clock_ns(), 300.0);
  EXPECT_LT(r.designs.front().integration.clock_ns(), 320.0);
}

TEST(Session, Experiment1PartitioningDoublesPerformance) {
  ChopSession s1 = make_session(1, bad::ClockingStyle::SingleCycle);
  s1.predict_partitions();
  ChopSession s2 = make_session(2, bad::ClockingStyle::SingleCycle);
  s2.predict_partitions();
  SearchOptions opt;
  opt.heuristic = Heuristic::Enumeration;
  const SearchResult r1 = s1.search(opt);
  const SearchResult r2 = s2.search(opt);
  ASSERT_FALSE(r1.designs.empty());
  ASSERT_FALSE(r2.designs.empty());
  // "two times higher performance can be obtained easily by doubling the
  // available chip area."
  EXPECT_LE(r2.designs.front().integration.ii_main * 2,
            r1.designs.front().integration.ii_main + 10);
}

TEST(Session, Experiment1PinCountAffectsDelayNotFeasibility) {
  ChopSession s84 = make_session(2, bad::ClockingStyle::SingleCycle,
                                 chip::mosis_package_84());
  s84.predict_partitions();
  ChopSession s64 = make_session(2, bad::ClockingStyle::SingleCycle,
                                 chip::mosis_package_64());
  s64.predict_partitions();
  SearchOptions opt;
  opt.heuristic = Heuristic::Iterative;
  const SearchResult r84 = s84.search(opt);
  const SearchResult r64 = s64.search(opt);
  ASSERT_FALSE(r84.designs.empty());
  ASSERT_FALSE(r64.designs.empty());
  EXPECT_EQ(r84.designs.front().integration.ii_main,
            r64.designs.front().integration.ii_main);
  EXPECT_GE(r64.designs.front().integration.system_delay_main,
            r84.designs.front().integration.system_delay_main);
}

// ---- experiment-2 regression: the Table 6 shape ----

TEST(Session, Experiment2MultiCycleBeatsSingleCycleThroughput) {
  ChopSession sc = make_session(2, bad::ClockingStyle::SingleCycle);
  sc.predict_partitions();
  ChopSession mc = make_session(2, bad::ClockingStyle::MultiCycle);
  mc.predict_partitions();
  SearchOptions opt;
  opt.heuristic = Heuristic::Enumeration;
  const SearchResult rs = sc.search(opt);
  const SearchResult rm = mc.search(opt);
  ASSERT_FALSE(rs.designs.empty());
  ASSERT_FALSE(rm.designs.empty());
  // "a multi-cycle-operation architecture allows a more efficient use of a
  // faster clock ... resulting in higher performance designs":
  // absolute II (ns) improves even though the adjusted clock is longer.
  const auto& is = rs.designs.front().integration;
  const auto& im = rm.designs.front().integration;
  EXPECT_LT(im.performance_ns.likely(), is.performance_ns.likely());
  EXPECT_GT(im.clock_ns(), is.clock_ns());
}

TEST(Session, HeuristicsAgreeOnBestIi) {
  for (auto clocking :
       {bad::ClockingStyle::SingleCycle, bad::ClockingStyle::MultiCycle}) {
    ChopSession s = make_session(2, clocking);
    s.predict_partitions();
    SearchOptions e;
    e.heuristic = Heuristic::Enumeration;
    SearchOptions i;
    i.heuristic = Heuristic::Iterative;
    const SearchResult re = s.search(e);
    const SearchResult ri = s.search(i);
    ASSERT_FALSE(re.designs.empty());
    ASSERT_FALSE(ri.designs.empty());
    EXPECT_EQ(re.designs.front().integration.ii_main,
              ri.designs.front().integration.ii_main);
  }
}

TEST(Session, GuidelineRendersSection31Style) {
  ChopSession s = make_session(2, bad::ClockingStyle::SingleCycle);
  s.predict_partitions();
  SearchOptions opt;
  opt.heuristic = Heuristic::Iterative;
  const SearchResult r = s.search(opt);
  ASSERT_FALSE(r.designs.empty());
  const std::string g = s.guideline(r.designs.front());
  EXPECT_NE(g.find("design style with"), std::string::npos);
  EXPECT_NE(g.find("module library of"), std::string::npos);
  EXPECT_NE(g.find("bits of registers"), std::string::npos);
  EXPECT_NE(g.find("1-bit 2-to-1 multiplexers"), std::string::npos);
  EXPECT_NE(g.find("data transfer module"), std::string::npos);
}

TEST(Session, ConstraintChangeInvalidatesPredictions) {
  ChopSession s = make_session(1, bad::ClockingStyle::SingleCycle);
  s.predict_partitions();
  s.apply(EvalDelta::set_constraints({40000.0, 40000.0}));
  EXPECT_THROW(s.search(SearchOptions{}), Error);  // must re-predict
  s.predict_partitions();
  EXPECT_NO_THROW(s.search(SearchOptions{}));
}

TEST(Session, LooserConstraintsNeverShrinkEligibleSet) {
  ChopSession tight = make_session(1, bad::ClockingStyle::SingleCycle);
  const PredictionStats t = tight.predict_partitions();
  ChopSession loose = make_session(1, bad::ClockingStyle::SingleCycle);
  loose.apply(EvalDelta::set_constraints({60000.0, 60000.0}));
  const PredictionStats l = loose.predict_partitions();
  EXPECT_GE(l.feasible, t.feasible);
  // The raw total may grow too: a looser performance budget widens the
  // enumerated pipelined II range.
  EXPECT_GE(l.total, t.total);
}

TEST(Session, TransferTasksAvailable) {
  ChopSession s = make_session(2, bad::ClockingStyle::SingleCycle);
  EXPECT_GE(s.transfer_tasks().size(), 3u);
}

}  // namespace
}  // namespace chop::core
