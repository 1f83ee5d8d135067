// Control constructs through the pipeline: Select nodes (the data-flow
// rendering of if/else, §2.2's "data flow graph (with added control
// constructs)") consume no functional unit — they synthesize to steering
// multiplexers — but must flow through scheduling, datapath estimation,
// partitioning and integration like any other operation.
#include <gtest/gtest.h>

#include "bad/predictor.hpp"
#include "chip/mosis_packages.hpp"
#include "core/session.hpp"
#include "dfg/analysis.hpp"
#include "library/experiment_library.hpp"

namespace chop {
namespace {

using dfg::OpKind;

/// max(|a*b|, c) flavoured kernel: products, a compare, and two selects.
struct SelectFixture {
  dfg::Graph graph{"select_kernel"};
  std::vector<dfg::NodeId> ops;

  SelectFixture() {
    const auto a = graph.add_input("a", 16);
    const auto b = graph.add_input("b", 16);
    const auto c = graph.add_input("c", 16);
    const auto m1 = graph.add_op(OpKind::Mul, 16, {a, b}, "m1");
    const auto m2 = graph.add_op(OpKind::Mul, 16, {b, c}, "m2");
    const auto cmp = graph.add_op(OpKind::Compare, 1, {m1, m2}, "cmp");
    const auto sel1 = graph.add_op(OpKind::Select, 16, {cmp, m1, m2}, "sel1");
    const auto add = graph.add_op(OpKind::Add, 16, {sel1, c}, "add");
    const auto sel2 = graph.add_op(OpKind::Select, 16, {cmp, add, sel1},
                                   "sel2");
    graph.add_output("y", sel2);
    graph.validate();
    ops = {m1, m2, cmp, sel1, add, sel2};
  }
};

const lib::ComponentLibrary& extended() {
  static const lib::ComponentLibrary lib = lib::dac91_extended_library();
  return lib;
}

TEST(SelectOps, ZeroLatencyInSchedules) {
  const SelectFixture f;
  const auto lat = dfg::unit_latencies(f.graph);
  for (dfg::NodeId id : f.graph.nodes_of_kind(OpKind::Select)) {
    EXPECT_EQ(lat[static_cast<std::size_t>(id)], 0);
  }
  // Depth counts only FU ops: mul -> cmp -> add = 3.
  EXPECT_EQ(dfg::operation_depth(f.graph), 3);
}

TEST(SelectOps, CountedAsSteeringMuxes) {
  const SelectFixture f;
  bad::PredictionRequest req;
  req.graph = &f.graph;
  req.library = &extended();
  req.env.style.clocking = bad::ClockingStyle::SingleCycle;
  req.env.clocks = {300.0, 10, 1};
  req.env.max_ii_dp = 10;
  const auto preds = bad::predict(req);
  ASSERT_FALSE(preds.empty());
  for (const auto& p : preds) {
    // At least the two 16-bit selects' worth of muxes beyond registers.
    EXPECT_GE(p.mux_count_likely, 32.0);
  }
}

TEST(SelectOps, PartitionableAndFeasible) {
  const SelectFixture f;
  core::Partitioning pt(f.graph, {{"c0", chip::mosis_package_84()},
                                  {"c1", chip::mosis_package_84()}});
  pt.add_partition("front", {f.ops[0], f.ops[1], f.ops[2]}, 0);
  pt.add_partition("back", {f.ops[3], f.ops[4], f.ops[5]}, 1);
  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  core::ChopSession session(extended(), std::move(pt), config);
  session.predict_partitions();
  const core::SearchResult r = session.search({});
  EXPECT_FALSE(r.designs.empty());
}

TEST(SelectOps, SelectsMustBeAssignedToPartitions) {
  const SelectFixture f;
  core::Partitioning pt(f.graph, {{"c0", chip::mosis_package_84()}});
  // Leave sel2 out: validation must reject the partitioning.
  pt.add_partition("p", {f.ops[0], f.ops[1], f.ops[2], f.ops[3], f.ops[4]},
                   0);
  EXPECT_THROW(pt.validate(), Error);
}

TEST(SelectOps, CrossPartitionSelectValueTransfers) {
  const SelectFixture f;
  core::Partitioning pt(f.graph, {{"c0", chip::mosis_package_84()},
                                  {"c1", chip::mosis_package_84()}});
  pt.add_partition("front", {f.ops[0], f.ops[1], f.ops[2], f.ops[3]}, 0);
  pt.add_partition("back", {f.ops[4], f.ops[5]}, 1);
  pt.validate();
  const auto transfers = core::create_transfer_tasks(pt);
  // sel1's value (16b) and cmp's bit cross the cut.
  Bits inter_bits = 0;
  for (const auto& t : transfers) {
    if (t.kind == core::DataTransfer::Kind::Interpartition) {
      inter_bits += t.bits;
    }
  }
  EXPECT_EQ(inter_bits, 17);
}

}  // namespace
}  // namespace chop
