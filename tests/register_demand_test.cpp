// Tests for register-demand estimation from schedules, including the
// pipelined modulo-folding behaviour.
#include "schedule/register_demand.hpp"

#include <gtest/gtest.h>

#include "dfg/analysis.hpp"
#include "dfg/benchmarks.hpp"
#include "schedule_reference.hpp"
#include "util/numbered.hpp"

namespace chop::sched {
namespace {

using dfg::OpKind;

TEST(RegisterDemand, ChainHoldsOneValuePerBoundary) {
  // in -> a -> b -> c -> out, all 16-bit: at any boundary exactly one
  // intermediate value is alive (the output value is held one cycle).
  dfg::Graph g("chain");
  dfg::NodeId prev = g.add_input("in", 16);
  for (int i = 0; i < 3; ++i) {
    prev = g.add_op(i % 2 ? OpKind::Mul : OpKind::Add, 16, {prev, prev});
  }
  g.add_output("y", prev);
  const auto lat = dfg::unit_latencies(g);
  const OpSchedule s = list_schedule(g, lat, ResourceLimits{});
  EXPECT_EQ(register_demand(g, lat, s), 16);
}

TEST(RegisterDemand, InputsAreExcluded) {
  // A single op consuming two inputs: no intermediate values are alive
  // across boundaries except the op result in its handoff cycle.
  dfg::Graph g("io");
  const auto a = g.add_input("a", 16);
  const auto b = g.add_input("b", 16);
  const auto m = g.add_op(OpKind::Mul, 16, {a, b});
  g.add_output("y", m);
  const auto lat = dfg::unit_latencies(g);
  const OpSchedule s = list_schedule(g, lat, ResourceLimits{});
  EXPECT_EQ(register_demand(g, lat, s), 16);  // the output handoff only
}

TEST(RegisterDemand, ParallelValuesAccumulate) {
  // Four independent muls feeding a 3-add tree: after the mul step all
  // four products are alive.
  dfg::Graph g("par");
  std::vector<dfg::NodeId> prods;
  for (int i = 0; i < 4; ++i) {
    const auto x = g.add_input(numbered("x", i), 16);
    prods.push_back(g.add_op(OpKind::Mul, 16, {x, x}));
  }
  const auto s1 = g.add_op(OpKind::Add, 16, {prods[0], prods[1]});
  const auto s2 = g.add_op(OpKind::Add, 16, {prods[2], prods[3]});
  const auto s3 = g.add_op(OpKind::Add, 16, {s1, s2});
  g.add_output("y", s3);
  const auto lat = dfg::unit_latencies(g);
  const OpSchedule sched = list_schedule(g, lat, ResourceLimits{});
  EXPECT_GE(register_demand(g, lat, sched), 64);
}

TEST(RegisterDemand, LongLifetimeDominates) {
  // A value produced early and consumed late stays alive throughout.
  dfg::Graph g("long");
  const auto in = g.add_input("in", 32);
  const auto early = g.add_op(OpKind::Mul, 32, {in, in}, "early");
  dfg::NodeId chain = g.add_op(OpKind::Add, 32, {in, in});
  for (int i = 0; i < 4; ++i) chain = g.add_op(OpKind::Add, 32, {chain, chain});
  const auto last = g.add_op(OpKind::Add, 32, {early, chain});
  g.add_output("y", last);
  const auto lat = dfg::unit_latencies(g);
  ResourceLimits limits;
  limits.fu[OpKind::Add] = 1;
  limits.fu[OpKind::Mul] = 1;
  const OpSchedule s = list_schedule(g, lat, limits);
  // `early` is alive from cycle 1 to the last add: every boundary carries
  // at least its 32 bits.
  EXPECT_GE(register_demand(g, lat, s), 32);
}

TEST(RegisterDemand, PipelinedFoldingStacksIterations) {
  // Serial chain of 4 ops pipelined at II=1: all intermediate values of 4
  // concurrent iterations are alive at the single phase -> demand roughly
  // 4x the nonpipelined single-boundary demand.
  dfg::Graph g("pipe");
  dfg::NodeId prev = g.add_input("in", 16);
  std::vector<dfg::NodeId> ops;
  for (int i = 0; i < 4; ++i) {
    prev = g.add_op(OpKind::Add, 16, {prev, prev});
    ops.push_back(prev);
  }
  g.add_output("y", prev);
  const auto lat = dfg::unit_latencies(g);
  const OpSchedule nonpipe = list_schedule(g, lat, ResourceLimits{});
  const Bits base = register_demand(g, lat, nonpipe);
  ResourceLimits four_adders;
  four_adders.fu[OpKind::Add] = 4;
  const OpSchedule pipe = pipeline_schedule(g, lat, four_adders, 1);
  ASSERT_TRUE(pipe.feasible);
  const Bits folded = register_demand(g, lat, pipe);
  EXPECT_GT(folded, base);
  EXPECT_EQ(folded, 64);  // 4 values x 16 bits at the lone phase
}

TEST(RegisterDemand, RejectsMismatchedInputs) {
  const dfg::BenchmarkGraph fir = dfg::fir16();
  const auto lat = dfg::unit_latencies(fir.graph);
  OpSchedule s;
  s.start.assign(3, 0);
  EXPECT_THROW(register_demand(fir.graph, lat, s), Error);
}

TEST(RegisterDemand, ArFilterSerialVsParallel) {
  // More parallel schedules retire values faster but hold more of them;
  // the estimate must stay in a sane band either way.
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto lat = dfg::unit_latencies(ar.graph);
  for (int units : {1, 2, 4}) {
    ResourceLimits limits;
    limits.fu[OpKind::Mul] = units;
    limits.fu[OpKind::Add] = units;
    const OpSchedule s = list_schedule(ar.graph, lat, limits);
    const Bits demand = register_demand(ar.graph, lat, s);
    EXPECT_GE(demand, 16);
    EXPECT_LE(demand, 16 * 28);
  }
}

TEST(RegisterDemand, MatchesReferenceOnRandomSchedules) {
  // The difference-array estimate against the per-cycle reference loop, on
  // nonpipelined schedules and every feasible pipelined II up to the
  // stage count.
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const reference::RandomCase c = reference::random_case(seed);
    const dfg::Graph& g = c.bg.graph;
    const SchedulePlan plan(g, c.latency);
    for (int units : {1, 2, -1}) {
      ResourceLimits limits;
      if (units > 0) {
        limits.fu[OpKind::Add] = units;
        limits.fu[OpKind::Mul] = units;
      }
      limits.memory_ports = c.memory_ports;
      const OpSchedule nonpipe = plan.list_schedule(limits);
      ASSERT_EQ(register_demand(g, c.latency, nonpipe),
                reference::register_demand(g, c.latency, nonpipe))
          << "seed " << seed << " units " << units;
      ++compared;
      for (Cycles ii = plan.min_initiation_interval(limits);
           ii < nonpipe.length; ++ii) {
        const OpSchedule pipe = plan.pipeline_schedule(limits, ii);
        if (!pipe.feasible) continue;
        ASSERT_EQ(register_demand(g, c.latency, pipe),
                  reference::register_demand(g, c.latency, pipe))
            << "seed " << seed << " units " << units << " II " << ii;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 2000);
}

}  // namespace
}  // namespace chop::sched
