// Tests for resource-constrained list scheduling and Sehwa-style modulo
// (pipeline) scheduling, including property sweeps over random graphs.
#include "schedule/op_schedule.hpp"

#include <gtest/gtest.h>

#include <map>

#include "bad/predictor.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/generator.hpp"
#include "library/module_set.hpp"
#include "schedule_reference.hpp"

namespace chop::sched {
namespace {

using dfg::OpKind;

/// Checks every precedence edge: consumer starts after producer finishes.
void expect_precedence_respected(const dfg::Graph& g,
                                 std::span<const Cycles> lat,
                                 const OpSchedule& s) {
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const dfg::Edge& edge = g.edge(static_cast<dfg::EdgeId>(e));
    const auto src = static_cast<std::size_t>(edge.src);
    const auto dst = static_cast<std::size_t>(edge.dst);
    EXPECT_GE(s.start[dst], s.start[src] + lat[src])
        << "edge " << edge.src << "->" << edge.dst;
  }
}

/// Checks per-cycle (and per-phase when ii > 0) resource usage.
void expect_resources_respected(const dfg::Graph& g,
                                std::span<const Cycles> lat,
                                const OpSchedule& s,
                                const ResourceLimits& limits, Cycles ii) {
  std::map<OpKind, std::map<Cycles, int>> usage;
  std::map<OpKind, std::map<Cycles, int>> phase_usage;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const dfg::Node& n = g.node(static_cast<dfg::NodeId>(i));
    if (!dfg::needs_functional_unit(n.kind) || lat[i] == 0) continue;
    for (Cycles c = s.start[i]; c < s.start[i] + lat[i]; ++c) {
      usage[n.kind][c]++;
    }
    if (ii > 0) {
      const Cycles span = std::min(lat[i], ii);
      for (Cycles j = 0; j < span; ++j) {
        phase_usage[n.kind][(s.start[i] + j) % ii]++;
      }
    }
  }
  for (const auto& [kind, per_cycle] : usage) {
    auto it = limits.fu.find(kind);
    if (it == limits.fu.end()) continue;
    for (const auto& [cycle, used] : per_cycle) {
      EXPECT_LE(used, it->second)
          << dfg::to_string(kind) << " oversubscribed at cycle " << cycle;
    }
  }
  for (const auto& [kind, per_phase] : phase_usage) {
    auto it = limits.fu.find(kind);
    if (it == limits.fu.end()) continue;
    for (const auto& [phase, used] : per_phase) {
      EXPECT_LE(used, it->second)
          << dfg::to_string(kind) << " modulo-oversubscribed, phase " << phase;
    }
  }
}

TEST(ListSchedule, SerialSingleUnit) {
  const dfg::BenchmarkGraph fir = dfg::fir16();
  const auto lat = dfg::unit_latencies(fir.graph);
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = 1;
  limits.fu[OpKind::Add] = 1;
  const OpSchedule s = list_schedule(fir.graph, lat, limits);
  ASSERT_TRUE(s.feasible);
  // 31 unit-latency ops on one mul + one add: length at least 16 (muls
  // serialized) and at most 31 (everything serialized).
  EXPECT_GE(s.length, 16);
  EXPECT_LE(s.length, 31);
  expect_precedence_respected(fir.graph, lat, s);
  expect_resources_respected(fir.graph, lat, s, limits, 0);
}

TEST(ListSchedule, UnlimitedResourcesReachAsapLength) {
  const dfg::BenchmarkGraph fir = dfg::fir16();
  const auto lat = dfg::unit_latencies(fir.graph);
  const OpSchedule s = list_schedule(fir.graph, lat, ResourceLimits{});
  EXPECT_EQ(s.length, 5);  // the critical path
}

TEST(ListSchedule, MoreUnitsNeverLengthen) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto lat = dfg::unit_latencies(ar.graph);
  Cycles prev = 1 << 20;
  for (int units = 1; units <= 8; ++units) {
    ResourceLimits limits;
    limits.fu[OpKind::Mul] = units;
    limits.fu[OpKind::Add] = units;
    const OpSchedule s = list_schedule(ar.graph, lat, limits);
    EXPECT_LE(s.length, prev) << units << " units lengthened the schedule";
    prev = s.length;
  }
}

TEST(ListSchedule, MultiCycleLatencyBlocksUnit) {
  // One multiplier with 10-cycle muls: two independent muls serialize.
  dfg::Graph g("mm");
  const auto a = g.add_input("a", 16);
  const auto b = g.add_input("b", 16);
  const auto m1 = g.add_op(OpKind::Mul, 16, {a, b});
  const auto m2 = g.add_op(OpKind::Mul, 16, {a, b});
  g.add_output("y1", m1);
  g.add_output("y2", m2);
  std::vector<Cycles> lat(g.node_count(), 0);
  lat[static_cast<std::size_t>(m1)] = 10;
  lat[static_cast<std::size_t>(m2)] = 10;
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = 1;
  const OpSchedule s = list_schedule(g, lat, limits);
  EXPECT_EQ(s.length, 20);
}

TEST(ListSchedule, MemoryPortContention) {
  dfg::Graph g("mem");
  const auto r1 = g.add_mem_read(0, 16, dfg::kNoNode, "r1");
  const auto r2 = g.add_mem_read(0, 16, dfg::kNoNode, "r2");
  const auto s1 = g.add_op(OpKind::Add, 16, {r1, r2});
  g.add_output("y", s1);
  std::vector<Cycles> lat(g.node_count(), 0);
  lat[static_cast<std::size_t>(r1)] = 1;
  lat[static_cast<std::size_t>(r2)] = 1;
  lat[static_cast<std::size_t>(s1)] = 1;
  ResourceLimits one_port;
  one_port.memory_ports[0] = 1;
  one_port.fu[OpKind::Add] = 1;
  EXPECT_EQ(list_schedule(g, lat, one_port).length, 3);
  ResourceLimits two_ports;
  two_ports.memory_ports[0] = 2;
  two_ports.fu[OpKind::Add] = 1;
  EXPECT_EQ(list_schedule(g, lat, two_ports).length, 2);
}

TEST(MinInitiationInterval, ResourceBound) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto lat = dfg::unit_latencies(ar.graph);
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = 4;
  limits.fu[OpKind::Add] = 3;
  // 16 muls / 4 = 4; 12 adds / 3 = 4.
  EXPECT_EQ(min_initiation_interval(ar.graph, lat, limits), 4);
  limits.fu[OpKind::Mul] = 3;
  EXPECT_EQ(min_initiation_interval(ar.graph, lat, limits), 6);
}

TEST(PipelineSchedule, AchievesMinIiOnArFilter) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto lat = dfg::unit_latencies(ar.graph);
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = 4;
  limits.fu[OpKind::Add] = 3;
  const Cycles ii = min_initiation_interval(ar.graph, lat, limits);
  const OpSchedule s = pipeline_schedule(ar.graph, lat, limits, ii);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.initiation_interval, ii);
  expect_precedence_respected(ar.graph, lat, s);
  expect_resources_respected(ar.graph, lat, s, limits, ii);
}

TEST(PipelineSchedule, InfeasibleBelowResourceBound) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto lat = dfg::unit_latencies(ar.graph);
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = 2;
  limits.fu[OpKind::Add] = 2;
  // min II = 8; ask for 4.
  const OpSchedule s = pipeline_schedule(ar.graph, lat, limits, 4);
  EXPECT_FALSE(s.feasible);
}

TEST(PipelineSchedule, RejectsNonpositiveIi) {
  const dfg::BenchmarkGraph fir = dfg::fir16();
  const auto lat = dfg::unit_latencies(fir.graph);
  EXPECT_THROW(pipeline_schedule(fir.graph, lat, ResourceLimits{}, 0), Error);
}

TEST(ListSchedule, RejectsWrongLatencySize) {
  const dfg::BenchmarkGraph fir = dfg::fir16();
  std::vector<Cycles> lat(3, 1);
  EXPECT_THROW(list_schedule(fir.graph, lat, ResourceLimits{}), Error);
}

// ---- property sweep over random graphs ----

struct SchedCase {
  int ops;
  int depth;
  int mul_units;
  int add_units;
  std::uint64_t seed;
};

class ScheduleProperty : public ::testing::TestWithParam<SchedCase> {};

TEST_P(ScheduleProperty, ListScheduleValid) {
  const SchedCase& p = GetParam();
  Rng rng(p.seed);
  dfg::RandomDagSpec spec;
  spec.operations = p.ops;
  spec.depth = p.depth;
  const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
  const auto lat = dfg::unit_latencies(bg.graph);
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = p.mul_units;
  limits.fu[OpKind::Add] = p.add_units;
  const OpSchedule s = list_schedule(bg.graph, lat, limits);
  ASSERT_TRUE(s.feasible);
  EXPECT_GE(s.length, static_cast<Cycles>(p.depth));
  expect_precedence_respected(bg.graph, lat, s);
  expect_resources_respected(bg.graph, lat, s, limits, 0);
}

TEST_P(ScheduleProperty, PipelineScheduleValidAtFeasibleIi) {
  const SchedCase& p = GetParam();
  Rng rng(p.seed);
  dfg::RandomDagSpec spec;
  spec.operations = p.ops;
  spec.depth = p.depth;
  const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
  const auto lat = dfg::unit_latencies(bg.graph);
  ResourceLimits limits;
  limits.fu[OpKind::Mul] = p.mul_units;
  limits.fu[OpKind::Add] = p.add_units;
  const Cycles min_ii = min_initiation_interval(bg.graph, lat, limits);
  for (Cycles ii = min_ii; ii <= min_ii + 2; ++ii) {
    const OpSchedule s = pipeline_schedule(bg.graph, lat, limits, ii);
    if (!s.feasible) continue;  // greedy modulo scheduling may miss min II
    expect_precedence_respected(bg.graph, lat, s);
    expect_resources_respected(bg.graph, lat, s, limits, ii);
  }
  // Far above the bound the schedule must exist.
  const OpSchedule relaxed = pipeline_schedule(
      bg.graph, lat, limits, min_ii + static_cast<Cycles>(p.ops));
  EXPECT_TRUE(relaxed.feasible);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduleProperty,
    ::testing::Values(SchedCase{8, 2, 1, 1, 11}, SchedCase{16, 4, 2, 2, 12},
                      SchedCase{24, 6, 2, 3, 13}, SchedCase{32, 4, 4, 2, 14},
                      SchedCase{48, 8, 3, 3, 15}, SchedCase{64, 8, 4, 4, 16},
                      SchedCase{20, 10, 1, 2, 17},
                      SchedCase{40, 5, 8, 8, 18}));

// ---- reference oracle: the plan-based scheduler against the old loops ----

::testing::AssertionResult same_schedule(const OpSchedule& want,
                                         const OpSchedule& got) {
  if (got.feasible != want.feasible || got.length != want.length ||
      got.initiation_interval != want.initiation_interval ||
      got.start != want.start) {
    return ::testing::AssertionFailure()
           << "feasible " << got.feasible << " vs " << want.feasible
           << ", length " << got.length << " vs " << want.length << ", II "
           << got.initiation_interval << " vs " << want.initiation_interval;
  }
  return ::testing::AssertionSuccess();
}

TEST(ScheduleOracle, MatchesReferenceOnRandomDags) {
  int schedules = 0;
  int infeasible = 0;
  int longer_than_ii = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const reference::RandomCase c = reference::random_case(seed);
    const dfg::Graph& g = c.bg.graph;
    const SchedulePlan plan(g, c.latency);
    const Cycles longest =
        *std::max_element(c.latency.begin(), c.latency.end());
    auto allocs = reference::sweep_allocations(
        g, lib::functional_kinds(g), bad::kUnitSweep);
    allocs.emplace_back();  // every class unlimited
    for (const auto& alloc : allocs) {
      ResourceLimits limits;
      limits.fu = alloc;
      limits.memory_ports = c.memory_ports;
      const OpSchedule want = reference::schedule(g, c.latency, limits, 0);
      ASSERT_TRUE(same_schedule(want, plan.list_schedule(limits)))
          << "seed " << seed << " nonpipelined";
      ASSERT_TRUE(same_schedule(want, list_schedule(g, c.latency, limits)))
          << "seed " << seed << " one-shot nonpipelined";
      ++schedules;
      const Cycles min_ii =
          reference::min_initiation_interval(g, c.latency, limits);
      ASSERT_EQ(plan.min_initiation_interval(limits), min_ii) << "seed " << seed;
      const Cycles stages = std::max<Cycles>(1, want.length);
      for (Cycles ii = min_ii; ii <= stages - 1; ++ii) {
        const OpSchedule pipe = reference::schedule(g, c.latency, limits, ii);
        ASSERT_TRUE(same_schedule(pipe, plan.pipeline_schedule(limits, ii)))
            << "seed " << seed << " II " << ii;
        ++schedules;
        if (!pipe.feasible) ++infeasible;
        if (longest > ii) ++longer_than_ii;
      }
    }
  }
  // The sweep reaches the cases the slot search treats specially.
  EXPECT_GT(schedules, 10000);
  EXPECT_GT(infeasible, 100);
  EXPECT_GT(longer_than_ii, 100);
}

TEST(ScheduleOracle, ZeroUnitClassFailsLikeReference) {
  // A class with zero units can place no op that takes time: both
  // schedulers give up at the same node, with the same partial schedule.
  int infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const reference::RandomCase c = reference::random_case(seed);
    const dfg::Graph& g = c.bg.graph;
    const SchedulePlan plan(g, c.latency);
    for (const bool memory : {false, true}) {
      ResourceLimits limits;
      limits.fu[OpKind::Add] = 2;
      if (memory) {
        limits.memory_ports[0] = 0;
      } else {
        limits.fu[OpKind::Mul] = 0;
      }
      for (Cycles ii = 0; ii <= 3; ++ii) {
        const OpSchedule want = reference::schedule(g, c.latency, limits, ii);
        const OpSchedule got = ii == 0 ? plan.list_schedule(limits)
                                       : plan.pipeline_schedule(limits, ii);
        ASSERT_TRUE(same_schedule(want, got)) << "seed " << seed << " II " << ii;
        if (!want.feasible) ++infeasible;
      }
    }
  }
  EXPECT_GT(infeasible, 50);
}

TEST(SchedulePlan, RejectsMalformedInputs) {
  const dfg::BenchmarkGraph fir = dfg::fir16();
  std::vector<Cycles> lat(3, 1);
  EXPECT_THROW(SchedulePlan(fir.graph, lat), Error);
  auto unit = dfg::unit_latencies(fir.graph);
  auto negative = unit;
  negative.back() = -1;
  EXPECT_THROW(SchedulePlan(fir.graph, negative), Error);
  EXPECT_THROW(SchedulePlan(fir.graph, unit).pipeline_schedule({}, 0), Error);
  ResourceLimits zero_units;
  zero_units.fu[OpKind::Mul] = 0;
  EXPECT_THROW(SchedulePlan(fir.graph, unit).min_initiation_interval(zero_units),
               Error);
}

}  // namespace
}  // namespace chop::sched
