// Tests for the BAD predictor driver: sweep coverage, prediction sanity,
// Pareto filtering, and behaviour across styles and clockings.
#include "bad/predictor.hpp"

#include <gtest/gtest.h>

#include <set>

#include "dfg/benchmarks.hpp"
#include "dfg/generator.hpp"
#include "dfg/subgraph.hpp"
#include "library/experiment_library.hpp"

namespace chop::bad {
namespace {

using dfg::OpKind;

PredictionRequest ar_request(const dfg::Graph& g,
                             const lib::ComponentLibrary& lib,
                             ClockingStyle clocking) {
  PredictionRequest req;
  req.graph = &g;
  req.library = &lib;
  req.style.clocking = clocking;
  req.clocks = clocking == ClockingStyle::SingleCycle
                   ? ClockSpec{300.0, 10, 1}
                   : ClockSpec{300.0, 1, 1};
  req.max_ii_dp = clocking == ClockingStyle::SingleCycle ? 10 : 66;
  return req;
}

TEST(Predictor, ProducesPredictionsForArFilter) {
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Predictor predictor;
  const auto preds = predictor.predict(
      ar_request(ar.graph, lib, ClockingStyle::SingleCycle));
  EXPECT_GT(preds.size(), 50u);
  for (const auto& p : preds) {
    EXPECT_GE(p.stages, 1);
    EXPECT_GE(p.ii_dp, 1);
    EXPECT_LE(p.ii_dp, p.stages);
    EXPECT_EQ(p.ii_main, p.ii_dp * 10);
    EXPECT_EQ(p.latency_main, p.stages * 10);
    EXPECT_GT(p.total_area.likely(), 0.0);
    EXPECT_LE(p.total_area.lo(), p.total_area.likely());
    EXPECT_LE(p.total_area.likely(), p.total_area.hi());
    EXPECT_GT(p.clock_overhead_ns, 0.0);
    EXPECT_FALSE(p.module_set_label.empty());
    EXPECT_FALSE(p.fu_alloc.empty());
  }
}

TEST(Predictor, SingleCycleExcludesOversizedModules) {
  // mul3 (7370 ns) cannot run single-cycle on a 3000 ns datapath clock.
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Predictor predictor;
  const auto preds = predictor.predict(
      ar_request(ar.graph, lib, ClockingStyle::SingleCycle));
  for (const auto& p : preds) {
    EXPECT_EQ(p.module_set_label.find("mul3"), std::string::npos);
  }
}

TEST(Predictor, MultiCycleAdmitsAllModuleSets) {
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Predictor predictor;
  const auto preds = predictor.predict(
      ar_request(ar.graph, lib, ClockingStyle::MultiCycle));
  std::set<std::string> sets;
  for (const auto& p : preds) sets.insert(p.module_set_label);
  EXPECT_EQ(sets.size(), 9u);  // all 3x3 module-set configurations
}

TEST(Predictor, PipelinedVariantsEnumerated) {
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Predictor predictor;
  const auto preds = predictor.predict(
      ar_request(ar.graph, lib, ClockingStyle::SingleCycle));
  int pipelined = 0, nonpipelined = 0;
  for (const auto& p : preds) {
    if (p.style == DesignStyle::Pipelined) {
      ++pipelined;
      EXPECT_LT(p.ii_dp, p.stages);
    } else {
      ++nonpipelined;
      EXPECT_EQ(p.ii_dp, p.stages);
    }
  }
  EXPECT_GT(pipelined, 0);
  EXPECT_GT(nonpipelined, 0);
}

TEST(Predictor, DisallowPipeliningHonored) {
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  PredictionRequest req = ar_request(ar.graph, lib, ClockingStyle::SingleCycle);
  req.style.allow_pipelining = false;
  Predictor predictor;
  for (const auto& p : predictor.predict(req)) {
    EXPECT_EQ(p.style, DesignStyle::Nonpipelined);
  }
}

TEST(Predictor, MaxIiCapRespected) {
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  PredictionRequest req = ar_request(ar.graph, lib, ClockingStyle::MultiCycle);
  req.max_ii_dp = 12;
  Predictor predictor;
  for (const auto& p : predictor.predict(req)) {
    if (p.style == DesignStyle::Pipelined) {
      EXPECT_LE(p.ii_dp, 12);
    }
  }
}

TEST(Predictor, MemoryAccessesRecorded) {
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph arm = dfg::ar_lattice_filter_with_memory();
  PredictionRequest req = ar_request(arm.graph, lib, ClockingStyle::MultiCycle);
  req.memory_ports = {{0, 1}, {1, 1}};
  req.memory_access_time = {300.0, 300.0};
  Predictor predictor;
  const auto preds = predictor.predict(req);
  ASSERT_FALSE(preds.empty());
  for (const auto& p : preds) {
    EXPECT_EQ(p.memory_accesses.at(0), 2);  // two coefficient reads
    EXPECT_EQ(p.memory_accesses.at(1), 1);  // one spill write
    EXPECT_EQ(p.total_memory_accesses(), 3);
  }
}

TEST(Predictor, RejectsMalformedRequests) {
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Predictor predictor;
  PredictionRequest req;
  EXPECT_THROW(predictor.predict(req), Error);  // no graph
  req.graph = &ar.graph;
  EXPECT_THROW(predictor.predict(req), Error);  // no library
  req.library = &lib;
  req.clocks.main_clock = -1;
  EXPECT_THROW(predictor.predict(req), Error);  // bad clock
}

TEST(Predictor, RejectsUncoveredGraph) {
  lib::ComponentLibrary adders_only;
  adders_only.add({"a", OpKind::Add, 16, 100.0, 30.0});
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Predictor predictor;
  EXPECT_THROW(
      predictor.predict(ar_request(ar.graph, adders_only,
                                   ClockingStyle::MultiCycle)),
      Error);
}

TEST(Predictor, RejectsBadOptions) {
  EXPECT_THROW(Predictor(PredictorOptions{{}}), Error);
  EXPECT_THROW(Predictor(PredictorOptions{{0}}), Error);
}

TEST(ParetoFilter, RemovesDominatedWithinStyle) {
  DesignPrediction cheap_slow;
  cheap_slow.style = DesignStyle::Nonpipelined;
  cheap_slow.ii_main = 80;
  cheap_slow.latency_main = 80;
  cheap_slow.total_area = StatVal(100.0);

  DesignPrediction fat_slow = cheap_slow;  // dominated: same speed, bigger
  fat_slow.total_area = StatVal(200.0);

  DesignPrediction fast = cheap_slow;  // incomparable: faster but bigger
  fast.ii_main = 40;
  fast.latency_main = 40;
  fast.total_area = StatVal(150.0);

  const auto kept = pareto_filter({cheap_slow, fat_slow, fast});
  EXPECT_EQ(kept.size(), 2u);
}

TEST(ParetoFilter, StylesAreIncomparable) {
  DesignPrediction pipe;
  pipe.style = DesignStyle::Pipelined;
  pipe.ii_main = 40;
  pipe.latency_main = 80;
  pipe.total_area = StatVal(100.0);

  DesignPrediction nonpipe;  // worse on every axis but nonpipelined
  nonpipe.style = DesignStyle::Nonpipelined;
  nonpipe.ii_main = 80;
  nonpipe.latency_main = 80;
  nonpipe.total_area = StatVal(100.0);

  EXPECT_FALSE(dominates(pipe, nonpipe));
  EXPECT_EQ(pareto_filter({pipe, nonpipe}).size(), 2u);
}

TEST(ParetoFilter, DropsExactTiesOnce) {
  DesignPrediction a;
  a.style = DesignStyle::Nonpipelined;
  a.ii_main = 10;
  a.latency_main = 10;
  a.total_area = StatVal(50.0);
  const auto kept = pareto_filter({a, a, a});
  EXPECT_EQ(kept.size(), 1u);
}

TEST(Prediction, SummaryMentionsDecisions) {
  DesignPrediction p;
  p.style = DesignStyle::Pipelined;
  p.module_set_label = "add2+mul3";
  p.fu_alloc[OpKind::Add] = 3;
  p.fu_alloc[OpKind::Mul] = 4;
  p.stages = 5;
  p.ii_main = 30;
  p.latency_main = 50;
  const std::string s = p.summary();
  EXPECT_NE(s.find("pipelined"), std::string::npos);
  EXPECT_NE(s.find("add2+mul3"), std::string::npos);
  EXPECT_NE(s.find("3xadd"), std::string::npos);
  EXPECT_NE(s.find("4xmul"), std::string::npos);
}

// Property: for every random workload, BAD output is internally coherent.
class PredictorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PredictorProperty, AllPredictionsCoherent) {
  Rng rng(GetParam());
  dfg::RandomDagSpec spec;
  spec.operations = 20;
  spec.depth = 5;
  const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  Predictor predictor;
  const auto preds = predictor.predict(
      ar_request(bg.graph, lib, ClockingStyle::MultiCycle));
  ASSERT_FALSE(preds.empty());
  for (const auto& p : preds) {
    EXPECT_LE(p.ii_main, p.latency_main);
    EXPECT_GT(p.register_bits, 0);
    const double parts = p.fu_area.likely() + p.register_area.likely() +
                         p.mux_area.likely() + p.controller_area.likely() +
                         p.wiring_area.likely();
    EXPECT_NEAR(p.total_area.likely(), parts, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictorProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace chop::bad
