// Tests for the benchmark behavioral specifications, including the paper's
// AR lattice filter (Figure 6) and its reference partitionings.
#include "dfg/benchmarks.hpp"

#include <gtest/gtest.h>

#include <set>

#include "dfg/analysis.hpp"
#include "dfg/dot.hpp"

namespace chop::dfg {
namespace {

TEST(ArLattice, PaperOperationCounts) {
  const BenchmarkGraph ar = ar_lattice_filter();
  EXPECT_EQ(ar.graph.count_of_kind(OpKind::Mul), 16u);
  EXPECT_EQ(ar.graph.count_of_kind(OpKind::Add), 12u);
  EXPECT_EQ(ar.graph.operation_count(), 28u);
}

TEST(ArLattice, LayersAlternateMulAdd) {
  const BenchmarkGraph ar = ar_lattice_filter();
  ASSERT_EQ(ar.layers.size(), 8u);
  for (std::size_t l = 0; l < ar.layers.size(); ++l) {
    const OpKind expected = (l % 2 == 0) ? OpKind::Mul : OpKind::Add;
    for (NodeId id : ar.layers[l]) {
      EXPECT_EQ(ar.graph.node(id).kind, expected) << "layer " << l;
    }
  }
}

TEST(ArLattice, LayersCoverAllOperations) {
  const BenchmarkGraph ar = ar_lattice_filter();
  std::set<NodeId> seen;
  for (const auto& layer : ar.layers) {
    for (NodeId id : layer) {
      EXPECT_TRUE(seen.insert(id).second) << "duplicate node in layers";
    }
  }
  EXPECT_EQ(seen.size(), ar.graph.operation_count());
}

TEST(ArLattice, CoefficientsAreConstants) {
  const BenchmarkGraph ar = ar_lattice_filter();
  int constants = 0, data_inputs = 0;
  for (std::size_t i = 0; i < ar.graph.node_count(); ++i) {
    const Node& n = ar.graph.node(static_cast<NodeId>(i));
    if (n.kind != OpKind::Input) continue;
    (n.constant ? constants : data_inputs)++;
  }
  EXPECT_EQ(constants, 16);   // four coefficients per section
  EXPECT_EQ(data_inputs, 9);  // carry seed + (x, s) per section
}

TEST(ArLattice, TwoWayCutSplitsInHalf) {
  const BenchmarkGraph ar = ar_lattice_filter();
  const auto cuts = ar_two_way_cut(ar);
  ASSERT_EQ(cuts.size(), 2u);
  EXPECT_EQ(cuts[0].size(), 14u);
  EXPECT_EQ(cuts[1].size(), 14u);
}

TEST(ArLattice, ThreeWayCutApproximatelyEqual) {
  const BenchmarkGraph ar = ar_lattice_filter();
  const auto cuts = ar_three_way_cut(ar);
  ASSERT_EQ(cuts.size(), 3u);
  std::size_t total = 0;
  for (const auto& c : cuts) {
    EXPECT_GE(c.size(), 7u);
    EXPECT_LE(c.size(), 11u);
    total += c.size();
  }
  EXPECT_EQ(total, 28u);
}

TEST(ArLattice, LayerSpanConcatenates) {
  const BenchmarkGraph ar = ar_lattice_filter();
  EXPECT_EQ(ar.layer_span(0, 1).size(), 7u);  // 4 muls + 3 adds
  EXPECT_EQ(ar.all_operations().size(), 28u);
  EXPECT_THROW(ar.layer_span(5, 99), Error);
  EXPECT_THROW(ar.layer_span(3, 2), Error);
}

TEST(EllipticWaveFilter, PaperishCounts) {
  const BenchmarkGraph ewf = elliptic_wave_filter();
  EXPECT_EQ(ewf.graph.count_of_kind(OpKind::Add), 26u);
  EXPECT_EQ(ewf.graph.count_of_kind(OpKind::Mul), 8u);
  EXPECT_NO_THROW(ewf.graph.validate());
}

TEST(EllipticWaveFilter, TwoParallelChains) {
  const BenchmarkGraph ewf = elliptic_wave_filter();
  // Two chains of four 4-op sections merged by two final adds: depth 18.
  EXPECT_EQ(operation_depth(ewf.graph), 18);
}

TEST(Fir16, Counts) {
  const BenchmarkGraph fir = fir16();
  EXPECT_EQ(fir.graph.count_of_kind(OpKind::Mul), 16u);
  EXPECT_EQ(fir.graph.count_of_kind(OpKind::Add), 15u);
  EXPECT_EQ(operation_depth(fir.graph), 5);
}

TEST(Fir16, SingleOutput) {
  const BenchmarkGraph fir = fir16();
  EXPECT_EQ(fir.graph.count_of_kind(OpKind::Output), 1u);
  EXPECT_EQ(fir.graph.total_output_bits(), 16);
}

TEST(ArLatticeWithMemory, AddsMemoryTraffic) {
  const BenchmarkGraph arm = ar_lattice_filter_with_memory();
  EXPECT_EQ(arm.graph.count_of_kind(OpKind::MemRead), 2u);
  EXPECT_EQ(arm.graph.count_of_kind(OpKind::MemWrite), 1u);
  EXPECT_EQ(arm.graph.count_of_kind(OpKind::Mul), 17u);
  EXPECT_NO_THROW(arm.graph.validate());
}

TEST(Benchmarks, CustomWidthPropagates) {
  const BenchmarkGraph ar = ar_lattice_filter(32);
  for (std::size_t i = 0; i < ar.graph.node_count(); ++i) {
    const Node& n = ar.graph.node(static_cast<NodeId>(i));
    if (n.kind != OpKind::Output) {
      EXPECT_EQ(n.width, 32);
    }
  }
}

TEST(Dot, RendersNodesAndPartitions) {
  const BenchmarkGraph fir = fir16();
  const std::string plain = to_dot(fir.graph);
  EXPECT_NE(plain.find("digraph"), std::string::npos);
  EXPECT_NE(plain.find("->"), std::string::npos);

  std::vector<int> parts(fir.graph.node_count(), -1);
  for (NodeId id : fir.layers[0]) parts[static_cast<std::size_t>(id)] = 0;
  const std::string colored = to_dot(fir.graph, parts);
  EXPECT_NE(colored.find("fillcolor"), std::string::npos);

  std::vector<int> wrong(3, 0);
  EXPECT_THROW(to_dot(fir.graph, wrong), Error);
}

}  // namespace
}  // namespace chop::dfg
