// Tests for the automated designer-loop extensions: memory placement
// optimization and automatic constraint-driven partitioning through
// gen::generate_partitions at its default settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "chip/mosis_packages.hpp"
#include "core/memory_optimizer.hpp"
#include "dfg/benchmarks.hpp"
#include "gen/generate.hpp"
#include "library/experiment_library.hpp"
#include "util/numbered.hpp"

namespace chop::core {
namespace {

const lib::ComponentLibrary& library() {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  return lib;
}

ChopConfig exp1_config() {
  ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  return config;
}

// ---- memory placement optimization ----

ChopSession memory_session() {
  static const dfg::BenchmarkGraph arm = dfg::ar_lattice_filter_with_memory();
  chip::MemorySubsystem memory;
  memory.blocks.push_back({"coeff", 16, 64, 1, 300.0, 4000.0, 3});
  memory.blocks.push_back({"spill", 16, 256, 1, 300.0, 6000.0, 3});
  // Deliberately poor start: both blocks off-chip.
  memory.chip_of_block = {chip::kOffTheShelfChip, chip::kOffTheShelfChip};
  std::vector<chip::ChipInstance> chips{
      {"c0", chip::mosis_package_84()}, {"c1", chip::mosis_package_84()}};
  Partitioning pt(arm.graph, std::move(chips), memory);
  const auto cuts = dfg::ar_two_way_cut(dfg::ar_lattice_filter());
  // The memory variant appends its ops in an extra layer; rebuild cuts
  // from the variant's own layers: sections 1-2 / sections 3-4 + mem ops.
  Partitioning fresh(arm.graph,
                     {{"c0", chip::mosis_package_84()},
                      {"c1", chip::mosis_package_84()}},
                     pt.memory());
  (void)cuts;
  static const dfg::BenchmarkGraph& bg = arm;
  fresh.add_partition("P1", bg.layer_span(0, 3), 0);
  fresh.add_partition("P2", bg.layer_span(4, bg.layers.size() - 1), 1);
  ChopConfig config = exp1_config();
  config.constraints = {30000.0, 60000.0};
  return ChopSession(library(), std::move(fresh), config);
}

TEST(MemoryOptimizer, EvaluatesAllPlacements) {
  ChopSession session = memory_session();
  MemoryPlacementOptions options;
  const MemoryPlacementResult r = optimize_memory_placement(session, options);
  // 2 blocks x (2 chips + off-shelf) = 9 placements.
  EXPECT_EQ(r.evaluated, 9u);
  EXPECT_FALSE(r.truncated);
  ASSERT_EQ(r.placement.size(), 2u);
  // The winner is installed in the session.
  EXPECT_EQ(session.partitioning().memory().chip_of_block, r.placement);
}

TEST(MemoryOptimizer, NeverWorseThanStart) {
  ChopSession session = memory_session();
  session.predict_partitions();
  const SearchResult start = session.search({});
  const MemoryPlacementResult r = optimize_memory_placement(session);
  if (!start.designs.empty()) {
    ASSERT_FALSE(r.search.designs.empty());
    EXPECT_LE(r.search.designs.front().integration.ii_main,
              start.designs.front().integration.ii_main);
  }
}

TEST(MemoryOptimizer, RespectsOffTheShelfToggle) {
  ChopSession session = memory_session();
  MemoryPlacementOptions options;
  options.allow_off_the_shelf = false;
  const MemoryPlacementResult r = optimize_memory_placement(session, options);
  EXPECT_EQ(r.evaluated, 4u);  // 2 blocks x 2 chips
  for (int placement : r.placement) {
    EXPECT_NE(placement, chip::kOffTheShelfChip);
  }
}

TEST(MemoryOptimizer, CapTruncates) {
  ChopSession session = memory_session();
  MemoryPlacementOptions options;
  options.max_placements = 3;
  const MemoryPlacementResult r = optimize_memory_placement(session, options);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.evaluated, 3u);
}

TEST(MemoryOptimizer, NoBlocksIsANoOp) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Partitioning pt(ar.graph, {{"c0", chip::mosis_package_84()}});
  pt.add_partition("P1", ar.all_operations(), 0);
  ChopSession session(library(), std::move(pt), exp1_config());
  const MemoryPlacementResult r = optimize_memory_placement(session);
  EXPECT_EQ(r.evaluated, 1u);
  EXPECT_TRUE(r.placement.empty());
}

// ---- automatic partitioning ----

std::vector<chip::ChipInstance> mosis84_chips(int n) {
  std::vector<chip::ChipInstance> chips;
  for (int c = 0; c < n; ++c) {
    chips.push_back({numbered("c", c), chip::mosis_package_84()});
  }
  return chips;
}

bool has_line(const std::vector<std::string>& log, const std::string& text) {
  return std::any_of(log.begin(), log.end(), [&](const std::string& line) {
    return line.find(text) != std::string::npos;
  });
}

TEST(AutoPartition, FindsFeasibleTwoChipCut) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const gen::GenerateResult r = gen::generate_partitions(
      ar.graph, library(), mosis84_chips(2), {}, exp1_config());
  ASSERT_TRUE(r.feasible());
  ASSERT_EQ(r.members.size(), 2u);
  // All 28 operations covered, disjointly.
  std::set<dfg::NodeId> seen;
  for (const auto& part : r.members) {
    for (dfg::NodeId id : part) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(seen.size(), 28u);
  EXPECT_GE(r.evaluations, 1u);
  // Matches (or beats) the paper's manual 2-way result of II=30.
  ASSERT_FALSE(r.search.designs.empty());
  EXPECT_LE(r.search.designs.front().integration.ii_main, 30);
}

TEST(AutoPartition, SingleChipDegenerates) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const gen::GenerateResult r = gen::generate_partitions(
      ar.graph, library(), mosis84_chips(1), {}, exp1_config());
  ASSERT_EQ(r.members.size(), 1u);
  EXPECT_EQ(r.members[0].size(), 28u);
  EXPECT_TRUE(r.feasible());
  EXPECT_FALSE(has_line(r.log, "move"));  // no boundary to move across
}

TEST(AutoPartition, LogNarratesDecisions) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const gen::GenerateOptions options;
  const gen::GenerateResult r = gen::generate_partitions(
      ar.graph, library(), mosis84_chips(2), {}, exp1_config(), options);
  ASSERT_GE(r.log.size(), 2u);
  EXPECT_EQ(r.log.front().rfind("coarsened", 0), 0u) << r.log.front();
  for (int s = 0; s < options.num_starts; ++s) {
    EXPECT_TRUE(has_line(r.log, "start " + std::to_string(s) + ": seed ("))
        << "start " << s;
  }
  EXPECT_EQ(r.log.back().rfind("final:", 0), 0u) << r.log.back();
}

TEST(AutoPartition, IterationCapHonored) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  gen::GenerateOptions options;
  options.num_starts = 3;
  options.budget = 1;
  const gen::GenerateResult r = gen::generate_partitions(
      ar.graph, library(), mosis84_chips(2), {}, exp1_config(), options);
  // At most `budget` evaluations per start.
  EXPECT_LE(r.evaluations,
            static_cast<std::size_t>(options.num_starts) * options.budget);
  EXPECT_GE(r.evaluations, 1u);
}

TEST(AutoPartition, HandlesMemoryWorkload) {
  const dfg::BenchmarkGraph arm = dfg::ar_lattice_filter_with_memory();
  chip::MemorySubsystem memory;
  memory.blocks.push_back({"coeff", 16, 64, 1, 300.0, 4000.0, 3});
  memory.blocks.push_back({"spill", 16, 256, 1, 300.0, 6000.0, 3});
  memory.chip_of_block = {0, 1};
  ChopConfig config = exp1_config();
  config.constraints = {30000.0, 60000.0};
  const gen::GenerateResult r = gen::generate_partitions(
      arm.graph, library(), mosis84_chips(2), memory, config);
  // Memory ops must be covered too (33 operations total).
  std::size_t total = 0;
  for (const auto& part : r.members) total += part.size();
  EXPECT_EQ(total, arm.graph.operation_count() + 3);  // + 2 reads, 1 write
}

TEST(AutoPartition, RejectsBadOptions) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  gen::GenerateOptions options;
  options.num_starts = 0;
  EXPECT_THROW(gen::generate_partitions(ar.graph, library(), mosis84_chips(1),
                                        {}, exp1_config(), options),
               Error);
  EXPECT_THROW(
      gen::generate_partitions(ar.graph, library(), {}, {}, exp1_config()),
      Error);
}

}  // namespace
}  // namespace chop::core
