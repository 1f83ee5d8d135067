// Tests for the BAD predictor driver: sweep coverage, prediction sanity,
// Pareto filtering, and behaviour across styles and clockings.
#include "bad/predictor.hpp"

#include <gtest/gtest.h>

#include <set>

#include "bad/controller_model.hpp"
#include "bad/datapath_model.hpp"
#include "bad/latency_model.hpp"
#include "bad/power_model.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/generator.hpp"
#include "dfg/subgraph.hpp"
#include "library/experiment_library.hpp"
#include "library/module_set.hpp"
#include "schedule_reference.hpp"

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

// ---- reference oracle: the whole prediction list against the old sweep ----

/// The predictor's sweep as straight loops over the reference scheduler:
/// levels, priorities and classes recomputed for every allocation and II,
/// and every per-design fact recomputed per design.
DesignPrediction reference_design(const PredictionRequest& req,
                                  const lib::ModuleSet& set,
                                  const std::map<OpKind, int>& alloc,
                                  std::span<const Cycles> latency,
                                  const sched::OpSchedule& schedule,
                                  DesignStyle style) {
  const dfg::Graph& g = *req.graph;
  const lib::TechnologyParams& tech = req.library->technology();
  DesignPrediction p;
  p.style = style;
  p.module_set_label = set.label();
  for (const auto& [kind, module] : set.choices()) {
    p.module_names[kind] = module->name;
  }
  p.fu_alloc = alloc;
  p.stages = std::max<Cycles>(1, schedule.length);
  p.ii_dp = style == DesignStyle::Pipelined ? schedule.initiation_interval
                                            : p.stages;
  p.ii_main = p.ii_dp * req.clocks.datapath_multiplier;
  p.latency_main = p.stages * req.clocks.datapath_multiplier;

  const DatapathEstimate dp =
      estimate_datapath(g, latency, schedule, alloc, *req.library);
  // The datapath estimate reads register demand from the production code;
  // pin it to the reference loop.
  EXPECT_EQ(dp.register_bits,
            sched::reference::register_demand(g, latency, schedule));
  p.register_bits = dp.register_bits;
  p.mux_count_likely = dp.mux_count.likely();
  double fu_area = 0.0;
  int fu_total = 0;
  for (const auto& [kind, count] : alloc) {
    fu_area += static_cast<double>(count) * set.module_for(kind).area;
    fu_total += count;
  }
  p.fu_area = StatVal(fu_area);
  p.register_area = dp.register_area;
  p.mux_area = dp.mux_area;
  Bits max_width = 1;
  for (const auto& [kind, module] : set.choices()) {
    max_width = std::max(max_width, module->width);
  }
  const int register_words = static_cast<int>(
      (p.register_bits + max_width - 1) / std::max<Bits>(1, max_width));
  const PlaEstimate pla =
      estimate_controller(p.stages, fu_total, register_words,
                          static_cast<int>(dp.mux_count.likely()), tech);
  p.controller_area = pla.area;
  const double placed = p.fu_area.likely() + p.register_area.likely() +
                        p.mux_area.likely() + p.controller_area.likely();
  p.wiring_area = tech.wiring_area_fraction * placed;
  p.total_area = p.fu_area + p.register_area + p.mux_area +
                 p.controller_area + p.wiring_area;
  const Ns wiring_delay =
      tech.wiring_delay_fraction.likely() * (dp.steering_delay + pla.delay);
  p.clock_overhead_ns = (dp.steering_delay + pla.delay + wiring_delay) /
                        static_cast<double>(req.clocks.datapath_multiplier);
  const AreaMil2 support_area = p.register_area.likely() +
                                p.mux_area.likely() +
                                p.controller_area.likely();
  p.power_mw = estimate_datapath_power(set, alloc,
                                       busy_cycles_by_kind(g, latency),
                                       p.ii_dp, support_area, tech);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const dfg::Node& n = g.node(static_cast<dfg::NodeId>(i));
    if (n.kind == OpKind::MemRead || n.kind == OpKind::MemWrite) {
      p.memory_accesses[n.memory_block]++;
    }
  }
  return p;
}

std::vector<DesignPrediction> reference_predict(const PredictionRequest& req) {
  const dfg::Graph& g = *req.graph;
  const std::vector<OpKind> kinds = lib::functional_kinds(g);
  const Ns overhead =
      req.library->register_bit().delay + 2.0 * req.library->mux_bit().delay;
  std::vector<DesignPrediction> out;
  for (const lib::ModuleSet& set :
       lib::enumerate_module_sets(*req.library, kinds)) {
    const auto latency_opt =
        operation_latencies(g, set, req.style.clocking, req.clocks, overhead,
                            req.memory_access_time);
    if (!latency_opt) continue;
    const std::vector<Cycles>& latency = *latency_opt;
    const auto allocs = sched::reference::sweep_allocations(
        g, kinds, PredictorOptions{}.unit_sweep);
    for (const auto& alloc : allocs) {
      sched::ResourceLimits limits;
      limits.fu = alloc;
      limits.memory_ports = req.memory_ports;
      const sched::OpSchedule nonpipe =
          sched::reference::schedule(g, latency, limits, 0);
      out.push_back(reference_design(req, set, alloc, latency, nonpipe,
                                     DesignStyle::Nonpipelined));
      const Cycles stages = out.back().stages;
      if (!req.style.allow_pipelining || stages <= 1) continue;
      const Cycles min_ii = std::max<Cycles>(
          1, sched::reference::min_initiation_interval(g, latency, limits));
      Cycles ii_cap = stages - 1;
      if (req.max_ii_dp > 0) ii_cap = std::min(ii_cap, req.max_ii_dp);
      for (Cycles ii = min_ii; ii <= ii_cap; ++ii) {
        const sched::OpSchedule pipe =
            sched::reference::schedule(g, latency, limits, ii);
        if (!pipe.feasible) continue;
        out.push_back(reference_design(req, set, alloc, latency, pipe,
                                       DesignStyle::Pipelined));
      }
    }
  }
  return out;
}

void expect_same_predictions(const std::vector<DesignPrediction>& want,
                             const std::vector<DesignPrediction>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const DesignPrediction& a = want[i];
    const DesignPrediction& b = got[i];
    SCOPED_TRACE("prediction " + std::to_string(i) + ": " + a.summary());
    EXPECT_EQ(b.style, a.style);
    EXPECT_EQ(b.module_set_label, a.module_set_label);
    EXPECT_EQ(b.module_names, a.module_names);
    EXPECT_EQ(b.fu_alloc, a.fu_alloc);
    EXPECT_EQ(b.stages, a.stages);
    EXPECT_EQ(b.ii_dp, a.ii_dp);
    EXPECT_EQ(b.ii_main, a.ii_main);
    EXPECT_EQ(b.latency_main, a.latency_main);
    EXPECT_EQ(b.register_bits, a.register_bits);
    EXPECT_EQ(b.mux_count_likely, a.mux_count_likely);
    EXPECT_EQ(b.fu_area, a.fu_area);
    EXPECT_EQ(b.register_area, a.register_area);
    EXPECT_EQ(b.mux_area, a.mux_area);
    EXPECT_EQ(b.controller_area, a.controller_area);
    EXPECT_EQ(b.wiring_area, a.wiring_area);
    EXPECT_EQ(b.total_area, a.total_area);
    EXPECT_EQ(b.clock_overhead_ns, a.clock_overhead_ns);
    EXPECT_EQ(b.power_mw, a.power_mw);
    EXPECT_EQ(b.memory_accesses, a.memory_accesses);
  }
}

TEST(PredictorOracle, MatchesReferenceSweep) {
  const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const dfg::BenchmarkGraph arm = dfg::ar_lattice_filter_with_memory();
  std::vector<PredictionRequest> requests;
  for (ClockingStyle clocking :
       {ClockingStyle::SingleCycle, ClockingStyle::MultiCycle}) {
    requests.push_back(ar_request(ar.graph, lib, clocking));
    PredictionRequest mem = ar_request(arm.graph, lib, clocking);
    mem.memory_ports = {{0, 1}, {1, 1}};
    mem.memory_access_time = {300.0, 700.0};
    requests.push_back(mem);
  }
  std::vector<sched::reference::RandomCase> cases;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    cases.push_back(sched::reference::random_case(seed));
  }
  for (std::size_t k = 0; k < cases.size(); ++k) {
    PredictionRequest req = ar_request(
        cases[k].bg.graph, lib,
        k % 2 == 0 ? ClockingStyle::MultiCycle : ClockingStyle::SingleCycle);
    req.memory_ports = cases[k].memory_ports;
    req.memory_access_time = {300.0, 650.0, 1000.0};
    req.max_ii_dp = 0;  // every II up to the stage count
    requests.push_back(req);
  }
  Predictor predictor;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    SCOPED_TRACE("request " + std::to_string(r));
    ASSERT_TRUE(requests[r].style.allow_pipelining);
    const auto want = reference_predict(requests[r]);
    ASSERT_TRUE(std::any_of(want.begin(), want.end(), [](const auto& p) {
      return p.style == DesignStyle::Pipelined;
    }));
    expect_same_predictions(want, predictor.predict(requests[r]));
  }
}

}  // namespace
}  // namespace chop::bad
