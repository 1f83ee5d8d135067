// Tests for system-integration prediction (§2.5-§2.6): rate-mismatch rule,
// pin bandwidth and the data-clash rule, buffer sizing, per-chip area
// accumulation, clock adjustment and the probabilistic feasibility checks.
#include "core/integration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "chip/mosis_packages.hpp"
#include "dfg/benchmarks.hpp"
#include "library/component_library.hpp"
#include "util/numbered.hpp"

namespace chop::core {
namespace {

using bad::DesignPrediction;
using bad::DesignStyle;

std::vector<chip::ChipInstance> chips(int n, chip::ChipPackage pkg =
                                                 chip::mosis_package_84()) {
  std::vector<chip::ChipInstance> out;
  for (int i = 0; i < n; ++i) {
    out.push_back({numbered("c", i), pkg});
  }
  return out;
}

/// Hand-built prediction with controlled characteristics.
DesignPrediction pred(DesignStyle style, Cycles ii, Cycles latency,
                      double area) {
  DesignPrediction p;
  p.style = style;
  p.module_set_label = "test";
  p.fu_alloc[dfg::OpKind::Mul] = 1;
  p.stages = latency;
  p.ii_dp = ii;
  p.ii_main = ii;
  p.latency_main = latency;
  p.register_bits = 64;
  p.total_area = StatVal(area * 0.9, area, area * 1.1);
  p.clock_overhead_ns = 5.0;
  return p;
}

struct Fixture {
  dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  bad::ClockSpec clocks{300.0, 10, 1};
  DesignConstraints constraints{30000.0, 30000.0};
  FeasibilityCriteria criteria;

  /// Bundles `pt` with its transfer tasks and this fixture's config.
  EvalContext context(const Partitioning& pt) const {
    return EvalContext(pt, create_transfer_tasks(pt), clocks, constraints,
                       criteria);
  }
};

TEST(Integration, FeasibleTwoChipDesign) {
  Fixture f;
  Partitioning pt(f.ar.graph, chips(2));
  const auto cuts = dfg::ar_two_way_cut(f.ar);
  pt.add_partition("P1", cuts[0], 0);
  pt.add_partition("P2", cuts[1], 1);
  pt.validate();

  const DesignPrediction a = pred(DesignStyle::Nonpipelined, 30, 30, 40000.0);
  const DesignPrediction b = pred(DesignStyle::Nonpipelined, 30, 30, 40000.0);
  const IntegrationResult r = integrate(f.context(pt), {&a, &b}, 30);
  ASSERT_TRUE(r.feasible) << r.reason;
  EXPECT_EQ(r.ii_main, 30);
  // System delay: both PUs plus the inter-chip and env transfers.
  EXPECT_GT(r.system_delay_main, 60);
  EXPECT_LT(r.system_delay_main, 90);
  // Clock stretched by partition overhead plus pin-mux charge.
  EXPECT_GT(r.clock_ns(), 300.0);
  EXPECT_LT(r.clock_ns(), 330.0);
  EXPECT_TRUE(r.violated_chips.empty());
}

TEST(Integration, RateMismatchRule) {
  const DesignPrediction p40 = pred(DesignStyle::Pipelined, 40, 80, 1000.0);
  const DesignPrediction p50 = pred(DesignStyle::Pipelined, 50, 80, 1000.0);
  const DesignPrediction np60 =
      pred(DesignStyle::Nonpipelined, 60, 60, 1000.0);
  EXPECT_FALSE(rates_compatible({&p40, &p50}));
  EXPECT_TRUE(rates_compatible({&p40, &p40}));
  EXPECT_TRUE(rates_compatible({&p40, &np60}));
  EXPECT_TRUE(rates_compatible({&np60, &np60}));
}

TEST(Integration, CombinationIiIsSlowestPartition) {
  const DesignPrediction fast = pred(DesignStyle::Nonpipelined, 20, 20, 1.0);
  const DesignPrediction slow = pred(DesignStyle::Nonpipelined, 70, 70, 1.0);
  EXPECT_EQ(combination_ii({&fast, &slow}), 70);
}

TEST(Integration, MismatchedSelectionRejected) {
  Fixture f;
  Partitioning pt(f.ar.graph, chips(2));
  const auto cuts = dfg::ar_two_way_cut(f.ar);
  pt.add_partition("P1", cuts[0], 0);
  pt.add_partition("P2", cuts[1], 1);
  const DesignPrediction a = pred(DesignStyle::Pipelined, 30, 60, 1000.0);
  const DesignPrediction b = pred(DesignStyle::Pipelined, 40, 60, 1000.0);
  const IntegrationResult r = integrate(f.context(pt), {&a, &b}, 40);
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.reason.find("mismatch"), std::string::npos);
}

TEST(Integration, PartitionSlowerThanSystemIiRejected) {
  Fixture f;
  Partitioning pt(f.ar.graph, chips(1));
  pt.add_partition("P1", f.ar.all_operations(), 0);
  const DesignPrediction a = pred(DesignStyle::Nonpipelined, 80, 80, 1000.0);
  const IntegrationResult r = integrate(f.context(pt), {&a}, 40);
  EXPECT_FALSE(r.feasible);
}

TEST(Integration, AreaViolationNamesChips) {
  Fixture f;
  Partitioning pt(f.ar.graph, chips(2));
  const auto cuts = dfg::ar_two_way_cut(f.ar);
  pt.add_partition("P1", cuts[0], 0);
  pt.add_partition("P2", cuts[1], 1);
  const DesignPrediction big =
      pred(DesignStyle::Nonpipelined, 30, 30, 120000.0);  // over 84-pin die
  const DesignPrediction ok = pred(DesignStyle::Nonpipelined, 30, 30, 1000.0);
  const IntegrationResult r = integrate(f.context(pt), {&big, &ok}, 30);
  EXPECT_FALSE(r.feasible);
  ASSERT_EQ(r.violated_chips.size(), 1u);
  EXPECT_EQ(r.violated_chips[0], 0);
}

TEST(Integration, DataClashRuleRejectsSlowTransfers) {
  // A tiny II makes the 9-value input transfer longer than the interval.
  Fixture f;
  Partitioning pt(f.ar.graph, chips(1));
  pt.add_partition("P1", f.ar.all_operations(), 0);
  const DesignPrediction a = pred(DesignStyle::Pipelined, 2, 30, 1000.0);
  const IntegrationResult r = integrate(f.context(pt), {&a}, 2);
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.reason.find("initiation interval"), std::string::npos);
}

TEST(Integration, BufferFormulaMatchesPaper) {
  Fixture f;
  Partitioning pt(f.ar.graph, chips(2));
  const auto cuts = dfg::ar_two_way_cut(f.ar);
  pt.add_partition("P1", cuts[0], 0);
  pt.add_partition("P2", cuts[1], 1);
  const DesignPrediction a = pred(DesignStyle::Nonpipelined, 30, 30, 1000.0);
  const IntegrationResult r = integrate(f.context(pt), {&a, &a}, 30);
  ASSERT_TRUE(r.feasible) << r.reason;
  for (const TransferPlan& plan : r.transfers) {
    if (!plan.task.crosses_pins()) continue;
    const double d = static_cast<double>(plan.task.bits);
    const double w = static_cast<double>(plan.wait_cycles);
    const double x = static_cast<double>(plan.transfer_cycles);
    const double l = 30.0;
    const Bits expected =
        static_cast<Bits>(std::ceil(d * (std::ceil(w / l) + x / l)));
    EXPECT_EQ(plan.buffer_bits, expected) << plan.task.name;
    EXPECT_GE(plan.pins, 1);
    EXPECT_LE(plan.transfer_cycles, 30);
    EXPECT_GT(plan.controller.product_terms, 0);
    EXPECT_GT(plan.module_area.likely(), 0.0);
  }
}

TEST(Integration, TransferPowerChargesSupportLogic) {
  // A transfer module draws pad power at duty X/l plus support-logic power
  // proportional to its own area.
  Fixture f;
  Partitioning pt(f.ar.graph, chips(2));
  const auto cuts = dfg::ar_two_way_cut(f.ar);
  pt.add_partition("P1", cuts[0], 0);
  pt.add_partition("P2", cuts[1], 1);
  const DesignPrediction a = pred(DesignStyle::Nonpipelined, 30, 30, 1000.0);
  const IntegrationResult r = integrate(f.context(pt), {&a, &a}, 30);
  ASSERT_TRUE(r.feasible) << r.reason;
  const lib::TechnologyParams tech;
  const auto crossing =
      std::find_if(r.transfers.begin(), r.transfers.end(),
                   [](const TransferPlan& p) { return p.task.crosses_pins(); });
  ASSERT_NE(crossing, r.transfers.end());
  const TransferPlan& plan = *crossing;
  const double duty =
      std::min(1.0, static_cast<double>(plan.transfer_cycles) / 30.0);
  const double pads = static_cast<double>(plan.pins) * tech.pad_power_mw * duty;
  const double support =
      plan.module_area.likely() * tech.support_power_per_area_mw;
  EXPECT_GT(support, 0.0);
  EXPECT_EQ(plan.module_power_mw.likely(), pads + support) << plan.task.name;
  EXPECT_EQ(plan.module_power_mw.lo(), 0.85 * (pads + support));
  EXPECT_EQ(plan.module_power_mw.hi(), 1.2 * (pads + support));
}

TEST(Integration, FewerPinsLongerTransfers) {
  // The paper: "Using 64 rather than 84 pin chip packaging causes a slight
  // increase in the system delay ... mainly due to longer data transfer
  // times of inputs and outputs." Use a wide graph so the effect shows.
  dfg::Graph g("wide");
  std::vector<dfg::NodeId> sums;
  for (int i = 0; i < 12; ++i) {
    const auto x = g.add_input(numbered("x", i), 16);
    const auto y = g.add_input(numbered("y", i), 16);
    const auto s = g.add_op(dfg::OpKind::Add, 16, {x, y});
    g.add_output(numbered("o", i), s);
    sums.push_back(s);
  }
  g.validate();

  auto delay_with = [&](chip::ChipPackage pkg) {
    Partitioning pt(g, chips(1, pkg));
    pt.add_partition("P1", sums, 0);
    const DesignPrediction a =
        pred(DesignStyle::Nonpipelined, 30, 30, 1000.0);
    const DesignConstraints loose{60000.0, 60000.0};
    const EvalContext ctx(pt, create_transfer_tasks(pt),
                          bad::ClockSpec{300.0, 10, 1}, loose,
                          FeasibilityCriteria{});
    const IntegrationResult r = integrate(ctx, {&a}, 30);
    EXPECT_TRUE(r.feasible) << r.reason;
    return r.system_delay_main;
  };
  EXPECT_GT(delay_with(chip::mosis_package_64()),
            delay_with(chip::mosis_package_84()));
}

TEST(Integration, OnChipMemoryAreaCharged) {
  Fixture f;
  chip::MemorySubsystem mem;
  mem.blocks.push_back({"M_A", 16, 256, 1, 300.0, 9000.0, 3});
  mem.chip_of_block = {0};
  Partitioning pt(f.ar.graph, chips(1), mem);
  pt.add_partition("P1", f.ar.all_operations(), 0);
  const DesignPrediction a = pred(DesignStyle::Nonpipelined, 40, 40, 1000.0);
  const IntegrationResult r = integrate(f.context(pt), {&a}, 40);
  ASSERT_TRUE(r.feasible) << r.reason;
  EXPECT_GE(r.chip_area[0].likely(), 9000.0 + 1000.0);
}

TEST(Integration, PerformanceConstraintUsesAdjustedClock) {
  Fixture f;
  Partitioning pt(f.ar.graph, chips(1));
  pt.add_partition("P1", f.ar.all_operations(), 0);
  const DesignPrediction a = pred(DesignStyle::Nonpipelined, 90, 90, 1000.0);
  // 90 cycles x ~305 ns > 27000: tighten the budget to force a perf fail.
  f.constraints = DesignConstraints{27000.0, 90000.0};
  const IntegrationResult r = integrate(f.context(pt), {&a}, 90);
  EXPECT_FALSE(r.feasible);
  EXPECT_NE(r.reason.find("performance"), std::string::npos);
}

TEST(Integration, DelayCheckedAtEightyPercent) {
  Fixture f;
  Partitioning pt(f.ar.graph, chips(1));
  pt.add_partition("P1", f.ar.all_operations(), 0);
  const DesignPrediction a = pred(DesignStyle::Nonpipelined, 60, 60, 1000.0);
  const IntegrationResult ok = integrate(f.context(pt), {&a}, 60);
  ASSERT_TRUE(ok.feasible) << ok.reason;
  // Shrink the delay budget to just below the likely value: the 80%
  // criterion must reject it.
  f.constraints.delay_ns = ok.delay_ns.likely() - 1.0;
  const IntegrationResult no = integrate(f.context(pt), {&a}, 60);
  EXPECT_FALSE(no.feasible);
}

TEST(Integration, ValidatesArguments) {
  Fixture f;
  Partitioning pt(f.ar.graph, chips(1));
  pt.add_partition("P1", f.ar.all_operations(), 0);
  const DesignPrediction a = pred(DesignStyle::Nonpipelined, 30, 30, 1.0);
  const EvalContext ctx = f.context(pt);
  EXPECT_THROW(integrate(ctx, {}, 30), Error);
  EXPECT_THROW(integrate(ctx, {&a}, 0), Error);
}

}  // namespace
}  // namespace chop::core
