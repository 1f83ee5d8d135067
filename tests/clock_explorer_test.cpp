// Tests for the clock/style exploration advisor.
#include "core/clock_explorer.hpp"

#include <gtest/gtest.h>

#include "chip/mosis_packages.hpp"
#include "dfg/benchmarks.hpp"
#include "library/experiment_library.hpp"

namespace chop::core {
namespace {

const lib::ComponentLibrary& library() {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  return lib;
}

ChopSession ar_session() {
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

TEST(ClockCandidate, LabelIsReadable) {
  ClockCandidate c;
  c.style.clocking = bad::ClockingStyle::MultiCycle;
  c.clocks = {250.0, 2, 1};
  EXPECT_EQ(c.label(), "multi-cycle 250ns x2/x1");
  c.style.allow_pipelining = false;
  EXPECT_NE(c.label().find("nopipe"), std::string::npos);
}

TEST(ClockExplorer, DefaultCandidatesCoverBothExperiments) {
  const auto candidates = default_clock_candidates(300.0);
  ASSERT_GE(candidates.size(), 4u);
  bool has_exp1 = false, has_exp2 = false;
  for (const ClockCandidate& c : candidates) {
    if (c.style.clocking == bad::ClockingStyle::SingleCycle &&
        c.clocks.datapath_multiplier == 10) {
      has_exp1 = true;
    }
    if (c.style.clocking == bad::ClockingStyle::MultiCycle &&
        c.clocks.datapath_multiplier == 1) {
      has_exp2 = true;
    }
  }
  EXPECT_TRUE(has_exp1);
  EXPECT_TRUE(has_exp2);
}

TEST(ClockExplorer, SweepsAllCandidates) {
  ChopSession session = ar_session();
  const auto candidates = default_clock_candidates(300.0);
  const ClockExplorationResult r = explore_clocks(session, candidates);
  EXPECT_EQ(r.points.size(), candidates.size());
  ASSERT_NE(r.best(), nullptr);
  // The session is left on the winning candidate, ready for search.
  EXPECT_EQ(session.config().clocks.datapath_multiplier,
            r.best()->candidate.clocks.datapath_multiplier);
  EXPECT_NO_THROW(session.search({}));
}

TEST(ClockExplorer, MultiCycleWinsOnAbsolutePerformance) {
  // The paper's §3.2 claim: the faster effective datapath clock of the
  // multi-cycle style yields better absolute performance.
  ChopSession session = ar_session();
  const ClockExplorationResult r =
      explore_clocks(session, default_clock_candidates(300.0));
  ASSERT_NE(r.best(), nullptr);
  EXPECT_EQ(r.best()->candidate.style.clocking,
            bad::ClockingStyle::MultiCycle);
}

TEST(ClockExplorer, FasterDatapathClockMoreDesignPossibilities) {
  // §3.2: "The faster the data path clock, the more design possibilities
  // exist for a given set of design constraints." Comparable points: the
  // coarse experiment-1 clocking vs the fine multi-cycle clockings (the
  // single-cycle style at intermediate multipliers also loses module
  // *eligibility*, which cuts the other way and is tested separately in
  // bad_models_test).
  ChopSession session = ar_session();
  std::vector<ClockCandidate> candidates(3);
  candidates[0].style.clocking = bad::ClockingStyle::SingleCycle;
  candidates[0].clocks = {300.0, 10, 1};  // coarse: 3000 ns datapath steps
  candidates[1].style.clocking = bad::ClockingStyle::MultiCycle;
  candidates[1].clocks = {300.0, 2, 1};   // finer: 600 ns steps
  candidates[2].style.clocking = bad::ClockingStyle::MultiCycle;
  candidates[2].clocks = {300.0, 1, 1};   // finest: 300 ns steps
  const ClockExplorationResult r = explore_clocks(session, candidates);
  ASSERT_EQ(r.points.size(), 3u);
  EXPECT_LT(r.points[0].predictions, r.points[1].predictions);
  EXPECT_LT(r.points[1].predictions, r.points[2].predictions);
}

TEST(ClockExplorer, RejectsEmptyCandidateList) {
  ChopSession session = ar_session();
  EXPECT_THROW(explore_clocks(session, {}), Error);
}

TEST(ClockExplorer, InfeasibleSweepReportsNoBest) {
  ChopSession session = ar_session();
  // Nothing meets 10 ns.
  session.apply(EvalDelta::set_constraints({10.0, 10.0}));
  const ClockExplorationResult r =
      explore_clocks(session, default_clock_candidates(300.0));
  EXPECT_EQ(r.best(), nullptr);
  for (const ClockPoint& p : r.points) EXPECT_FALSE(p.feasible);
}

TEST(Session, SetClockingInvalidatesPredictions) {
  ChopSession session = ar_session();
  session.predict_partitions();
  bad::ArchitectureStyle style;
  style.clocking = bad::ClockingStyle::MultiCycle;
  session.apply(EvalDelta::set_clocking(style, {300.0, 1, 1}));
  EXPECT_THROW(session.search({}), Error);
  session.predict_partitions();
  EXPECT_NO_THROW(session.search({}));
}

}  // namespace
}  // namespace chop::core
