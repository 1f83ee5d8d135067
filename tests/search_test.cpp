// Tests for level-1 pruning and the two global search heuristics,
// including the pruning-soundness property (the pruned search finds the
// same best feasible designs as the raw one) and recorder behaviour.
#include "core/search.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "bad/predictor.hpp"
#include "chip/mosis_packages.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "library/experiment_library.hpp"

namespace chop::core {
namespace {

using bad::DesignPrediction;
using bad::DesignStyle;

DesignPrediction pred(DesignStyle style, Cycles ii, Cycles latency,
                      double area) {
  DesignPrediction p;
  p.style = style;
  p.module_set_label = "t";
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

TEST(PruneLevel1, DropsAreaInfeasible) {
  const bad::ClockSpec clocks{300.0, 10, 1};
  const DesignConstraints constraints{30000.0, 30000.0};
  const FeasibilityCriteria criteria;
  std::vector<DesignPrediction> preds{
      pred(DesignStyle::Nonpipelined, 30, 30, 50000.0),
      pred(DesignStyle::Nonpipelined, 30, 30, 200000.0),  // too big
  };
  const auto kept =
      prune_level1(preds, Level1Test(87000.0, clocks, constraints, criteria));
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].total_area.likely(), 50000.0);
}

TEST(PruneLevel1, DropsPerformanceAndDelayInfeasible) {
  const bad::ClockSpec clocks{300.0, 10, 1};
  const DesignConstraints constraints{30000.0, 30000.0};
  const FeasibilityCriteria criteria;
  std::vector<DesignPrediction> preds{
      pred(DesignStyle::Nonpipelined, 30, 30, 1000.0),
      pred(DesignStyle::Nonpipelined, 120, 120, 900.0),  // 120 x 304 > 30000
      pred(DesignStyle::Pipelined, 30, 150, 800.0),      // latency too long
  };
  const auto kept =
      prune_level1(preds, Level1Test(87000.0, clocks, constraints, criteria));
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].ii_main, 30);
}

TEST(PruneLevel1, RemovesInferiorWithinStyle) {
  const bad::ClockSpec clocks{300.0, 10, 1};
  const DesignConstraints constraints{30000.0, 30000.0};
  const FeasibilityCriteria criteria;
  std::vector<DesignPrediction> preds{
      pred(DesignStyle::Nonpipelined, 30, 30, 1000.0),
      pred(DesignStyle::Nonpipelined, 30, 30, 2000.0),  // dominated
      pred(DesignStyle::Pipelined, 30, 40, 2000.0),     // other style: kept
  };
  const auto kept =
      prune_level1(preds, Level1Test(87000.0, clocks, constraints, criteria));
  EXPECT_EQ(kept.size(), 2u);
}

/// Builds a ready-to-search session on the AR filter (experiment-1 style).
ChopSession exp1_session(int nparts, Heuristic /*unused*/ = Heuristic::Enumeration) {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  std::vector<chip::ChipInstance> chips;
  for (int c = 0; c < nparts; ++c) {
    chips.push_back({"chip" + std::to_string(c), chip::mosis_package_84()});
  }
  Partitioning pt(ar.graph, std::move(chips));
  const auto cuts = nparts == 1
                        ? std::vector<std::vector<dfg::NodeId>>{
                              ar.all_operations()}
                        : (nparts == 2 ? dfg::ar_two_way_cut(ar)
                                       : dfg::ar_three_way_cut(ar));
  for (int p = 0; p < nparts; ++p) {
    pt.add_partition("P" + std::to_string(p + 1), cuts[static_cast<std::size_t>(p)], p);
  }
  ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  return ChopSession(lib, std::move(pt), config);
}

TEST(SearchEnumeration, TrialsEqualProductOfEligibleLists) {
  ChopSession session = exp1_session(2);
  session.predict_partitions();
  const auto& pred = session.predictions();
  std::size_t product = 1;
  for (const auto& list : pred.eligible) product *= list.size();
  SearchOptions opt;
  opt.heuristic = Heuristic::Enumeration;
  // Exhaustive mode: branch-and-bound would visit fewer leaves, and this
  // test is precisely about the full product.
  opt.bound_pruning = false;
  const SearchResult r = session.search(opt);
  EXPECT_EQ(r.trials, product);
  EXPECT_FALSE(r.designs.empty());
}

TEST(SearchIterative, FewerTrialsThanEnumeration) {
  ChopSession session = exp1_session(3);
  session.predict_partitions();
  SearchOptions e;
  e.heuristic = Heuristic::Enumeration;
  // Compare against the paper's exhaustive enumeration trial counts.
  e.bound_pruning = false;
  SearchOptions i;
  i.heuristic = Heuristic::Iterative;
  const SearchResult re = session.search(e);
  const SearchResult ri = session.search(i);
  EXPECT_LT(ri.trials, re.trials);
  ASSERT_FALSE(re.designs.empty());
  ASSERT_FALSE(ri.designs.empty());
  // Both heuristics find the same best initiation interval here.
  EXPECT_EQ(re.designs.front().integration.ii_main,
            ri.designs.front().integration.ii_main);
}

TEST(Search, DesignsAreNonInferiorAndSorted) {
  ChopSession session = exp1_session(2);
  session.predict_partitions();
  SearchOptions opt;
  opt.heuristic = Heuristic::Enumeration;
  const SearchResult r = session.search(opt);
  for (std::size_t i = 1; i < r.designs.size(); ++i) {
    EXPECT_GT(r.designs[i].integration.ii_main,
              r.designs[i - 1].integration.ii_main);
    EXPECT_LT(r.designs[i].integration.system_delay_main,
              r.designs[i - 1].integration.system_delay_main);
  }
}

TEST(Search, PruningSoundness) {
  // The pruned search must find a best design no worse than the raw
  // (unpruned) search: level-1 pruning only discards designs that cannot
  // participate in any feasible global implementation.
  ChopSession session = exp1_session(2);
  session.predict_partitions();
  SearchOptions pruned;
  pruned.heuristic = Heuristic::Enumeration;
  pruned.prune = true;
  // This test reasons about level-1 pruning alone; exhaustive trial
  // counts keep the comparison meaningful.
  pruned.bound_pruning = false;
  SearchOptions raw;
  raw.heuristic = Heuristic::Enumeration;
  raw.prune = false;
  raw.bound_pruning = false;
  raw.max_trials = 2'000'000;
  const SearchResult rp = session.search(pruned);
  const SearchResult rr = session.search(raw);
  ASSERT_FALSE(rp.designs.empty());
  ASSERT_FALSE(rr.designs.empty());
  ASSERT_FALSE(rr.truncated);
  EXPECT_EQ(rp.designs.front().integration.ii_main,
            rr.designs.front().integration.ii_main);
  EXPECT_GE(rr.trials, rp.trials);
}

TEST(Search, RecorderCountsEveryTrial) {
  ChopSession session = exp1_session(2);
  session.predict_partitions();
  SearchOptions opt;
  opt.heuristic = Heuristic::Enumeration;
  opt.record_all = true;
  const SearchResult r = session.search(opt);
  EXPECT_EQ(r.recorder.total(), r.trials);
  EXPECT_GT(r.recorder.unique(), 0u);
  EXPECT_LE(r.recorder.unique(), r.recorder.total());
  EXPECT_EQ(r.recorder.feasible_count(), r.feasible_raw);
}

TEST(Search, MaxTrialsTruncates) {
  ChopSession session = exp1_session(2);
  session.predict_partitions();
  SearchOptions opt;
  opt.heuristic = Heuristic::Enumeration;
  opt.max_trials = 3;
  const SearchResult r = session.search(opt);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.trials, 3u);
}

TEST(Search, EmptyEligibleListMeansNoDesigns) {
  ChopSession session = exp1_session(1);
  session.apply(EvalDelta::set_constraints({1.0, 1.0}));  // nothing meets 1 ns
  session.predict_partitions();
  for (Heuristic h : {Heuristic::Enumeration, Heuristic::Iterative}) {
    SearchOptions opt;
    opt.heuristic = h;
    const SearchResult r = session.search(opt);
    EXPECT_TRUE(r.designs.empty());
    EXPECT_EQ(r.trials, 0u);
  }
}

TEST(Recorder, CsvAndScatterRender) {
  DesignSpaceRecorder rec;
  rec.record({60, 67, 50000.0, 312.0, true});
  rec.record({30, 57, 60000.0, 310.0, false});
  rec.record({30, 57, 60000.0, 310.0, false});  // duplicate point
  EXPECT_EQ(rec.total(), 3u);
  EXPECT_EQ(rec.unique(), 2u);
  EXPECT_EQ(rec.feasible_count(), 1u);
  std::ostringstream os;
  rec.to_csv().write(os);
  EXPECT_NE(os.str().find("ii_main_cycles"), std::string::npos);
  const std::string scatter = rec.ascii_scatter(32, 8);
  EXPECT_NE(scatter.find('*'), std::string::npos);
  EXPECT_NE(scatter.find('.'), std::string::npos);
}

TEST(Recorder, EmptyScatter) {
  DesignSpaceRecorder rec;
  EXPECT_NE(rec.ascii_scatter().find("no design points"), std::string::npos);
}

}  // namespace
}  // namespace chop::core
