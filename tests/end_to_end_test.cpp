// End-to-end property tests: random workloads crossed with random (but
// repaired-valid) partitionings, run through the complete pipeline. Every
// feasible design CHOP reports must actually satisfy the constraints it
// was checked against — recomputed here from first principles.
#include <gtest/gtest.h>

#include "baseline/partition_builders.hpp"
#include "chip/mosis_packages.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/generator.hpp"
#include "library/experiment_library.hpp"
#include "library/module_set.hpp"
#include "util/numbered.hpp"

namespace chop {
namespace {

struct Instance {
  std::uint64_t seed;
  int operations;
  int depth;
  int chips;
};

class EndToEnd : public ::testing::TestWithParam<Instance> {
 protected:
  core::ChopSession build_session() {
    const Instance& p = GetParam();
    rng_ = Rng(p.seed);
    dfg::RandomDagSpec spec;
    spec.operations = p.operations;
    spec.depth = p.depth;
    spec.extra_inputs = 6;
    graph_ = dfg::random_dag(rng_, spec);

    auto parts = baseline::make_acyclic(
        graph_.graph,
        baseline::random_partition(graph_.all_operations(), p.chips, rng_));
    std::vector<chip::ChipInstance> chips;
    for (std::size_t c = 0; c < parts.size(); ++c) {
      chips.push_back({numbered("c", c), chip::mosis_package_84()});
    }
    core::Partitioning pt(graph_.graph, std::move(chips));
    for (std::size_t i = 0; i < parts.size(); ++i) {
      pt.add_partition(numbered("P", i + 1), parts[i],
                       static_cast<int>(i));
    }
    core::ChopConfig config;
    config.style.clocking = bad::ClockingStyle::SingleCycle;
    config.clocks = {300.0, 10, 1};
    config.constraints = {60000.0, 120000.0};
    static const lib::ComponentLibrary library =
        lib::dac91_experiment_library();
    return core::ChopSession(library, std::move(pt), config);
  }

  Rng rng_{0};
  dfg::BenchmarkGraph graph_;
};

TEST_P(EndToEnd, FeasibleDesignsSatisfyTheirConstraints) {
  core::ChopSession session = build_session();
  session.predict_partitions();
  for (core::Heuristic h :
       {core::Heuristic::Enumeration, core::Heuristic::Iterative}) {
    core::SearchOptions options;
    options.heuristic = h;
    const core::SearchResult result = session.search(options);
    const auto& constraints = session.config().constraints;
    const auto& criteria = session.config().criteria;
    for (const core::GlobalDesign& d : result.designs) {
      const core::IntegrationResult& r = d.integration;
      ASSERT_TRUE(r.feasible);
      // Performance at probability 1.0: upper bound within budget.
      EXPECT_LE(r.performance_ns.hi(), constraints.performance_ns);
      // Delay at 80%.
      EXPECT_GE(r.delay_ns.cdf(constraints.delay_ns),
                criteria.delay_prob - 1e-9);
      // Chip areas at probability 1.0.
      for (std::size_t c = 0; c < r.chip_area.size(); ++c) {
        EXPECT_LE(
            r.chip_area[c].hi(),
            session.partitioning().chips()[c].package.usable_area() + 1e-6);
      }
      // Data-clash rule: every pin-crossing transfer fits in the II.
      for (const core::TransferPlan& t : r.transfers) {
        if (t.task.crosses_pins()) {
          EXPECT_LE(t.transfer_cycles, r.ii_main);
          EXPECT_GE(t.pins, 1);
        }
      }
      // The system interval covers every selected implementation.
      EXPECT_GE(r.ii_main, 1);
      EXPECT_GE(r.system_delay_main, r.ii_main == 1 ? 1 : 0);
      // Guideline rendering never crashes on a real design.
      EXPECT_FALSE(session.guideline(d).empty());
    }
  }
}

TEST_P(EndToEnd, SearchIsDeterministic) {
  core::ChopSession a = build_session();
  core::ChopSession b = build_session();
  a.predict_partitions();
  b.predict_partitions();
  core::SearchOptions options;
  options.heuristic = core::Heuristic::Iterative;
  const core::SearchResult ra = a.search(options);
  const core::SearchResult rb = b.search(options);
  EXPECT_EQ(ra.trials, rb.trials);
  ASSERT_EQ(ra.designs.size(), rb.designs.size());
  for (std::size_t i = 0; i < ra.designs.size(); ++i) {
    EXPECT_EQ(ra.designs[i].integration.ii_main,
              rb.designs[i].integration.ii_main);
    EXPECT_EQ(ra.designs[i].choice, rb.designs[i].choice);
  }
}

TEST_P(EndToEnd, IterativeNeverBeatsEnumerationOnBestIi) {
  // Enumeration is exhaustive over the eligible lists; the iterative walk
  // can only match or be slower on the best initiation interval.
  core::ChopSession session = build_session();
  session.predict_partitions();
  core::SearchOptions e;
  e.heuristic = core::Heuristic::Enumeration;
  core::SearchOptions i;
  i.heuristic = core::Heuristic::Iterative;
  const core::SearchResult re = session.search(e);
  const core::SearchResult ri = session.search(i);
  if (!ri.designs.empty()) {
    ASSERT_FALSE(re.designs.empty());
    EXPECT_LE(re.designs.front().integration.ii_main,
              ri.designs.front().integration.ii_main);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, EndToEnd,
    ::testing::Values(Instance{501, 16, 4, 2}, Instance{502, 24, 6, 2},
                      Instance{503, 24, 4, 3}, Instance{504, 32, 8, 2},
                      Instance{505, 40, 5, 3}, Instance{506, 12, 3, 2},
                      Instance{507, 48, 8, 3}, Instance{508, 20, 10, 2}));

// ---- diffeq with the extended library ----

TEST(Diffeq, CountsAndDepth) {
  const dfg::BenchmarkGraph dq = dfg::diffeq();
  EXPECT_EQ(dq.graph.count_of_kind(dfg::OpKind::Mul), 6u);
  EXPECT_EQ(dq.graph.count_of_kind(dfg::OpKind::Add), 2u);
  EXPECT_EQ(dq.graph.count_of_kind(dfg::OpKind::Sub), 2u);
  EXPECT_EQ(dq.graph.count_of_kind(dfg::OpKind::Compare), 1u);
}

TEST(Diffeq, ExtendedLibraryCoversIt) {
  const lib::ComponentLibrary extended = lib::dac91_extended_library();
  const dfg::BenchmarkGraph dq = dfg::diffeq();
  EXPECT_TRUE(extended.covers(lib::functional_kinds(dq.graph)));
  // Plain Table 1 does not.
  EXPECT_FALSE(lib::dac91_experiment_library().covers(
      lib::functional_kinds(dq.graph)));
}

TEST(Diffeq, PartitionsAndRunsEndToEnd) {
  const dfg::BenchmarkGraph dq = dfg::diffeq();
  const lib::ComponentLibrary extended = lib::dac91_extended_library();
  core::Partitioning pt(dq.graph, {{"c0", chip::mosis_package_84()},
                                   {"c1", chip::mosis_package_84()}});
  pt.add_partition("front", dq.layer_span(0, 1), 0);
  pt.add_partition("back", dq.layer_span(2, 3), 1);
  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  core::ChopSession session(extended, std::move(pt), config);
  const core::PredictionStats stats = session.predict_partitions();
  // Module sets now span 3 adders x 3 muls x 2 subs (x 1 cmp) per side.
  EXPECT_GT(stats.total, 0u);
  const core::SearchResult r = session.search({});
  EXPECT_FALSE(r.designs.empty());
}

TEST(Diffeq, ModuleSetEnumerationSpansAllKinds) {
  const lib::ComponentLibrary extended = lib::dac91_extended_library();
  const dfg::BenchmarkGraph dq = dfg::diffeq();
  const auto kinds = lib::functional_kinds(dq.graph);
  // add(3) x mul(3) x sub(2) x cmp(1) = 18 module sets.
  EXPECT_EQ(lib::enumerate_module_sets(extended, kinds).size(), 18u);
}

}  // namespace
}  // namespace chop
