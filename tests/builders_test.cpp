// Tests for the comparison partition builders and the acyclicity repair
// that makes arbitrary cuts CHOP-valid.
#include "baseline/partition_builders.hpp"

#include <gtest/gtest.h>

#include <set>

#include "baseline/kernighan_lin.hpp"
#include "chip/mosis_packages.hpp"
#include "core/partitioning.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/generator.hpp"
#include "util/numbered.hpp"

namespace chop::baseline {
namespace {

/// True when `parts` forms an acyclic quotient over g — verified by
/// building a CHOP Partitioning (which validates exactly that).
bool chop_accepts(const dfg::Graph& g,
                  const std::vector<std::vector<dfg::NodeId>>& parts) {
  std::vector<chip::ChipInstance> chips;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    chips.push_back({numbered("c", i), chip::mosis_package_84()});
  }
  core::Partitioning pt(g, std::move(chips));
  for (std::size_t p = 0; p < parts.size(); ++p) {
    pt.add_partition(numbered("P", p), parts[p], static_cast<int>(p));
  }
  try {
    pt.validate();
    return true;
  } catch (const Error&) {
    return false;
  }
}

TEST(LevelOrderPartition, AlwaysAcyclic) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  for (int k : {1, 2, 3, 4, 7}) {
    const auto parts = level_order_partition(ar.graph, ar.all_operations(), k);
    EXPECT_EQ(parts.size(), static_cast<std::size_t>(k));
    EXPECT_TRUE(chop_accepts(ar.graph, parts)) << "k=" << k;
  }
}

TEST(LevelOrderPartition, BalancedSizes) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto parts = level_order_partition(ar.graph, ar.all_operations(), 4);
  for (const auto& p : parts) {
    EXPECT_EQ(p.size(), 7u);
  }
}

TEST(RandomPartition, CoversAllOpsNonEmpty) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Rng rng(3);
  const auto parts = random_partition(ar.all_operations(), 4, rng);
  EXPECT_EQ(parts.size(), 4u);
  std::set<dfg::NodeId> seen;
  for (const auto& p : parts) {
    EXPECT_FALSE(p.empty());
    for (dfg::NodeId id : p) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(seen.size(), 28u);
}

TEST(MakeAcyclic, RepairsRandomCuts) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    auto parts = random_partition(ar.all_operations(), 3, rng);
    const auto repaired = make_acyclic(ar.graph, std::move(parts));
    EXPECT_TRUE(chop_accepts(ar.graph, repaired)) << "trial " << trial;
  }
}

TEST(MakeAcyclic, LeavesValidCutsAlone) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto parts = dfg::ar_two_way_cut(ar);
  const auto repaired = make_acyclic(ar.graph, parts);
  ASSERT_EQ(repaired.size(), 2u);
  // Same membership (order within parts may differ).
  std::set<dfg::NodeId> a(parts[0].begin(), parts[0].end());
  std::set<dfg::NodeId> b(repaired[0].begin(), repaired[0].end());
  EXPECT_EQ(a, b);
}

TEST(MakeAcyclic, RepairsKlCuts) {
  // KL ignores direction, so its cuts often violate quotient acyclicity;
  // the repair must always make them CHOP-valid while covering all ops.
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Rng rng(29);
  const auto kl_parts = kl_partition(ar.graph, ar.all_operations(), 2, rng);
  const auto repaired = make_acyclic(ar.graph, kl_parts);
  EXPECT_TRUE(chop_accepts(ar.graph, repaired));
  std::size_t total = 0;
  for (const auto& p : repaired) total += p.size();
  EXPECT_EQ(total, 28u);
}

class RepairProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepairProperty, RandomGraphRandomCutsAlwaysRepairable) {
  Rng rng(GetParam());
  dfg::RandomDagSpec spec;
  spec.operations = 24;
  spec.depth = 6;
  const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
  auto parts = random_partition(bg.all_operations(), 3, rng);
  const auto repaired = make_acyclic(bg.graph, std::move(parts));
  EXPECT_TRUE(chop_accepts(bg.graph, repaired));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairProperty,
                         ::testing::Values(201u, 202u, 203u, 204u, 205u));

TEST(RepairedBuilders, KlCutsComeBackChopValid) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Rng rng(5);
  const auto parts = repaired_kl_partition(ar.graph, ar.all_operations(), 2,
                                           rng);
  EXPECT_TRUE(chop_accepts(ar.graph, parts));
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  EXPECT_EQ(total, 28u);
}

TEST(RepairedBuilders, RepairsDisconnectedImbalancedCuts) {
  // A disconnected wide-and-shallow graph with a deliberately imbalanced
  // random cut: repair must still produce a valid quotient covering every
  // op, even when make_acyclic merges parts (callers check the count).
  Rng rng(77);
  dfg::RandomDagSpec spec;
  spec.operations = 30;
  spec.depth = 2;  // shallow => many independent components
  spec.width = 10;
  const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
  for (int k : {2, 3, 5}) {
    Rng cut_rng(static_cast<std::uint64_t>(k) * 13);
    const auto parts = make_acyclic(
        bg.graph, random_partition(bg.all_operations(), k, cut_rng));
    EXPECT_LE(parts.size(), static_cast<std::size_t>(k));
    EXPECT_TRUE(chop_accepts(bg.graph, parts)) << "k=" << k;
    std::set<dfg::NodeId> seen;
    for (const auto& p : parts) {
      EXPECT_FALSE(p.empty());
      for (dfg::NodeId id : p) EXPECT_TRUE(seen.insert(id).second);
    }
    EXPECT_EQ(seen.size(), 30u);
  }
}

}  // namespace
}  // namespace chop::baseline
