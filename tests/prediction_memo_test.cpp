// Oracle tests for core::PredictionMemo, the exact prediction memo that
// gen::generate_partitions() shares across its starts: a session served
// from the memo must predict and search exactly like a cold session, the
// key must cover every field of the prediction environment and the
// pruning inputs, the entry bound must hold under concurrent inserts, a
// session holding a memo hit must refuse work that needs raw lists, and
// generation must stay byte-identical across thread counts while the memo
// gets hits. (Suite names match the CI TSan regex
// `Eval|Generate`.)
#include "core/prediction_memo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chip/mosis_packages.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/generator.hpp"
#include "gen/generate.hpp"
#include "io/spec_format.hpp"
#include "library/experiment_library.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "testing/scenario.hpp"
#include "util/error.hpp"
#include "util/numbered.hpp"

namespace chop::core {
namespace {

std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const StatVal& a, const StatVal& b) {
  return same_bits(a.lo(), b.lo()) && same_bits(a.likely(), b.likely()) &&
         same_bits(a.hi(), b.hi());
}

/// Every field of two predictions, doubles compared bit for bit.
void expect_same_prediction(const bad::DesignPrediction& a,
                            const bad::DesignPrediction& b) {
  EXPECT_EQ(a.style, b.style);
  EXPECT_EQ(a.module_set_label, b.module_set_label);
  EXPECT_EQ(a.module_names, b.module_names);
  EXPECT_EQ(a.fu_alloc, b.fu_alloc);
  EXPECT_EQ(a.stages, b.stages);
  EXPECT_EQ(a.ii_dp, b.ii_dp);
  EXPECT_EQ(a.ii_main, b.ii_main);
  EXPECT_EQ(a.latency_main, b.latency_main);
  EXPECT_EQ(a.register_bits, b.register_bits);
  EXPECT_TRUE(same_bits(a.mux_count_likely, b.mux_count_likely));
  EXPECT_TRUE(same_bits(a.fu_area, b.fu_area));
  EXPECT_TRUE(same_bits(a.register_area, b.register_area));
  EXPECT_TRUE(same_bits(a.mux_area, b.mux_area));
  EXPECT_TRUE(same_bits(a.controller_area, b.controller_area));
  EXPECT_TRUE(same_bits(a.wiring_area, b.wiring_area));
  EXPECT_TRUE(same_bits(a.total_area, b.total_area));
  EXPECT_TRUE(same_bits(a.clock_overhead_ns, b.clock_overhead_ns));
  EXPECT_TRUE(same_bits(a.power_mw, b.power_mw));
  EXPECT_EQ(a.memory_accesses, b.memory_accesses);
}

void expect_same_eligible(const ChopSession& got, const ChopSession& want) {
  const auto& g = got.predictions().eligible;
  const auto& w = want.predictions().eligible;
  ASSERT_EQ(g.size(), w.size());
  for (std::size_t p = 0; p < g.size(); ++p) {
    ASSERT_EQ(g[p].size(), w[p].size()) << "partition " << p;
    for (std::size_t i = 0; i < g[p].size(); ++i) {
      SCOPED_TRACE("partition " + std::to_string(p) + " prediction " +
                   std::to_string(i));
      expect_same_prediction(g[p][i], w[p][i]);
    }
  }
}

std::string rendered(const SearchResult& r) {
  return serve::render_search_result(r).dump();
}

/// Scenario `seed` of the fuzzer's distribution with at least three
/// partitions, so single-operation moves leave most partitions untouched.
io::Project scenario(std::uint64_t seed) {
  testing::ScenarioKnobs k = testing::sample_knobs(seed);
  k.operations = std::max(k.operations, 10);
  k.depth = std::max(k.depth, 3);
  k.chips = std::max(k.chips, 2);
  k.partitions = std::max(k.partitions, 3);
  return testing::build_scenario(k);
}

/// `pt` with one operation moved to another partition; the `skip`-th
/// legal move in member order, or nullopt when there is none.
std::optional<Partitioning> moved(const Partitioning& pt, std::size_t skip) {
  const auto& partitions = pt.partitions();
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    if (partitions[p].members.size() < 2) continue;
    for (std::size_t d = 1; d < partitions.size(); ++d) {
      const int dest = static_cast<int>((p + d) % partitions.size());
      for (const dfg::NodeId op : partitions[p].members) {
        Partitioning probe = pt;
        try {
          probe.move_operation(op, dest);
          probe.validate();
        } catch (const Error&) {
          continue;
        }
        if (skip-- == 0) return probe;
      }
    }
  }
  return std::nullopt;
}

TEST(GeneratePredictionMemo, MemoSessionsMatchColdSessionsOnOverlappingCuts) {
  std::size_t hits = 0;
  std::size_t sessions = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("scenario " + std::to_string(seed));
    const io::Project project = scenario(seed);
    const Partitioning base = project.make_session().partitioning();
    // A walk of single-operation moves, then a return to the start: each
    // cut shares all but two partitions with the one before it.
    std::vector<Partitioning> cuts = {base};
    for (std::size_t step = 0; step < 4; ++step) {
      if (auto next = moved(cuts.back(), step)) cuts.push_back(*next);
    }
    if (auto side = moved(base, 1)) cuts.push_back(*side);
    cuts.push_back(base);

    PredictionMemo memo;
    for (const Partitioning& cut : cuts) {
      ChopSession warm(project.library, cut, project.config);
      warm.set_prediction_memo(&memo);
      ChopSession cold(project.library, cut, project.config);
      const std::uint64_t reused = counter("eval.delta_predict_reused");
      const PredictionStats got = warm.predict_partitions();
      EXPECT_EQ(counter("eval.delta_predict_reused") - reused, got.reused);
      const PredictionStats want = cold.predict_partitions();
      EXPECT_EQ(got.total, want.total);
      EXPECT_EQ(got.feasible, want.feasible);
      EXPECT_EQ(want.reused, 0u);
      expect_same_eligible(warm, cold);
      const SearchOptions options;
      EXPECT_EQ(rendered(warm.search(options)), rendered(cold.search(options)));
      hits += got.reused;
      ++sessions;
    }
    EXPECT_LE(memo.size(), PredictionMemo::kMaxEntries);
  }
  EXPECT_GT(sessions, 60u);
  EXPECT_GT(hits, sessions) << "the cuts must overlap for the memo to hit";
}

const lib::ComponentLibrary& library() {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  return lib;
}

ChopConfig ar_config() {
  ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  return config;
}

/// MOSIS-84 on a die `height` times as tall: the same pins, less logic area.
chip::ChipPackage short_die(double height) {
  chip::ChipPackage pkg = chip::mosis_package_84();
  pkg.name = "MOSIS-84-short";
  pkg.height_mil *= height;
  pkg.validate();
  return pkg;
}

/// The AR filter as one partition on one chip of package `pkg`.
ChopSession ar_session(const chip::ChipPackage& pkg) {
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Partitioning pt(ar.graph, {{"chip0", pkg}});
  pt.add_partition("P1", ar.all_operations(), 0);
  return ChopSession(library(), std::move(pt), ar_config());
}

TEST(GeneratePredictionMemo, UsableAreaIsPartOfTheKey) {
  // Same members, same raw inputs; only the chip's usable area differs.
  // A key without the pruning inputs would hand the small chip the large
  // chip's eligible list.
  PredictionMemo memo;
  ChopSession large = ar_session(chip::mosis_package_84());
  large.set_prediction_memo(&memo);
  large.predict_partitions();
  ChopSession small = ar_session(short_die(0.6));
  small.set_prediction_memo(&memo);
  const PredictionStats got = small.predict_partitions();

  ChopSession cold_small = ar_session(short_die(0.6));
  const PredictionStats want = cold_small.predict_partitions();
  ASSERT_NE(want.feasible, large.predictions().eligible_total())
      << "the packages must prune differently for this test to bite";
  EXPECT_EQ(got.reused, 0u);
  EXPECT_EQ(got.feasible, want.feasible);
  expect_same_eligible(small, cold_small);
  EXPECT_EQ(memo.size(), 2u);

  // A third session on the small chip is served from the small entry.
  ChopSession again = ar_session(short_die(0.6));
  again.set_prediction_memo(&memo);
  EXPECT_EQ(again.predict_partitions().reused, 1u);
  expect_same_eligible(again, cold_small);
  EXPECT_EQ(memo.size(), 2u);
}

/// The AR filter with memory on two chips, both blocks off the shelf,
/// under `config`; block 0 has `ports` ports and access time `access`.
ChopSession memory_session(const ChopConfig& config, int ports, Ns access) {
  static const dfg::BenchmarkGraph arm = dfg::ar_lattice_filter_with_memory();
  chip::MemorySubsystem memory;
  memory.blocks.push_back({"coeff", 16, 64, ports, access, 4000.0, 3});
  memory.blocks.push_back({"spill", 16, 256, 1, 300.0, 6000.0, 3});
  memory.chip_of_block = {chip::kOffTheShelfChip, chip::kOffTheShelfChip};
  Partitioning pt(arm.graph,
                  {{"c0", chip::mosis_package_84()},
                   {"c1", chip::mosis_package_84()}},
                  memory);
  pt.add_partition("P1", arm.layer_span(0, 3), 0);
  pt.add_partition("P2", arm.layer_span(4, arm.layers.size() - 1), 1);
  return ChopSession(library(), std::move(pt), config);
}

TEST(GeneratePredictionMemo, EveryPredictEnvFieldIsPartOfTheKey) {
  // Sessions that differ from the base in one field of the prediction
  // environment alone (the performance budget also moves the pipelined-II
  // cap). Each must miss the base's entries: a key that ignored the field
  // would serve it the base's lists.
  ChopConfig base;
  base.style.clocking = bad::ClockingStyle::SingleCycle;
  base.clocks = {300.0, 10, 1};
  base.constraints = {30000.0, 60000.0};
  constexpr int kPorts = 1;
  constexpr Ns kAccess = 300.0;
  struct Variant {
    std::string name;
    ChopConfig config;
    int ports = kPorts;
    Ns access = kAccess;
  };
  std::vector<Variant> variants;
  const auto vary = [&](std::string name, auto edit) {
    Variant v{std::move(name), base};
    edit(v);
    variants.push_back(std::move(v));
  };
  vary("clocking", [](Variant& v) {
    v.config.style.clocking = bad::ClockingStyle::MultiCycle;
  });
  vary("pipelining",
       [](Variant& v) { v.config.style.allow_pipelining = false; });
  // 290 ns keeps the pipelined-II cap at 30000 / 290 / 10 = 10 cycles.
  vary("main clock", [](Variant& v) { v.config.clocks.main_clock = 290.0; });
  vary("datapath multiplier",
       [](Variant& v) { v.config.clocks.datapath_multiplier = 5; });
  vary("transfer multiplier",
       [](Variant& v) { v.config.clocks.transfer_multiplier = 2; });
  vary("performance budget",
       [](Variant& v) { v.config.constraints.performance_ns = 15000.0; });
  vary("testability",
       [](Variant& v) { v.config.testability.scan_design = true; });
  vary("memory ports", [](Variant& v) { v.ports = 2; });
  vary("memory access time", [](Variant& v) { v.access = 6000.0; });

  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    PredictionMemo memo;
    ChopSession first = memory_session(base, kPorts, kAccess);
    first.set_prediction_memo(&memo);
    first.predict_partitions();
    const std::size_t base_entries = memo.size();
    ASSERT_EQ(base_entries, first.partitioning().partitions().size());

    ChopSession warm = memory_session(v.config, v.ports, v.access);
    warm.set_prediction_memo(&memo);
    ChopSession cold = memory_session(v.config, v.ports, v.access);
    const PredictionStats got = warm.predict_partitions();
    const PredictionStats want = cold.predict_partitions();
    EXPECT_EQ(got.reused, 0u);
    EXPECT_EQ(memo.size(), 2 * base_entries);
    EXPECT_EQ(got.total, want.total);
    EXPECT_EQ(got.feasible, want.feasible);
    expect_same_eligible(warm, cold);
    const SearchOptions options;
    EXPECT_EQ(rendered(warm.search(options)), rendered(cold.search(options)));
  }
}

RawInputs synthetic_key(int i) {
  RawInputs raw;
  raw.members = {i, i + 1};
  return raw;
}

TEST(GeneratePredictionMemo, EntryBoundHoldsOldestFirst) {
  PredictionMemo memo;
  const int n = static_cast<int>(PredictionMemo::kMaxEntries) + 10;
  for (int i = 0; i < n; ++i) {
    memo.insert(synthetic_key(i), {}, {{}, static_cast<std::size_t>(i)});
    EXPECT_LE(memo.size(), PredictionMemo::kMaxEntries);
  }
  EXPECT_EQ(memo.size(), PredictionMemo::kMaxEntries);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(memo.find(synthetic_key(i), {}), nullptr) << i;
  }
  for (int i = 10; i < n; ++i) {
    const auto hit = memo.find(synthetic_key(i), {});
    ASSERT_NE(hit, nullptr) << i;
    EXPECT_EQ(hit->raw_count, static_cast<std::size_t>(i));
  }
  // Same members with different pruning inputs is another key.
  EligibleInputs other;
  other.usable_area = 1.0;
  EXPECT_EQ(memo.find(synthetic_key(n - 1), other), nullptr);
}

TEST(GeneratePredictionMemo, ConcurrentDuplicateInsertsTakeOneSlot) {
  PredictionMemo memo;
  constexpr int kKeys = 40;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&memo, t] {
      for (int i = 0; i < kKeys; ++i) {
        if (memo.find(synthetic_key(i), {}) == nullptr) {
          memo.insert(synthetic_key(i), {}, {{}, static_cast<std::size_t>(t)});
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(memo.size(), static_cast<std::size_t>(kKeys));
}

TEST(GeneratePredictionMemo, MemoHitRejectsWorkThatNeedsRawLists) {
  PredictionMemo memo;
  ChopSession first = ar_session(chip::mosis_package_84());
  first.set_prediction_memo(&memo);
  first.predict_partitions();
  ChopSession served = ar_session(chip::mosis_package_84());
  served.set_prediction_memo(&memo);
  const PredictionStats stats = served.predict_partitions();
  ASSERT_EQ(stats.reused, 1u);
  EXPECT_TRUE(served.predictions().raw[0].empty());
  EXPECT_EQ(stats.total, first.predictions().raw_total());

  SearchOptions unpruned;
  unpruned.prune = false;
  unpruned.max_trials = 10;
  EXPECT_THROW(served.search(unpruned), Error);
  EXPECT_NO_THROW(first.search(unpruned));

  GlobalDesign raw_design;
  raw_design.choice = {0};
  raw_design.prune = false;
  EXPECT_THROW(served.guideline(raw_design), Error);
  EXPECT_NO_THROW(first.guideline(raw_design));

  // Pruned work reads only the eligible lists and matches the session
  // that ran BAD.
  const SearchResult want = first.search(SearchOptions{});
  const SearchResult got = served.search(SearchOptions{});
  EXPECT_EQ(rendered(got), rendered(want));
  ASSERT_FALSE(got.designs.empty());
  EXPECT_EQ(served.guideline(got.designs.front()),
            first.guideline(want.designs.front()));
}

}  // namespace
}  // namespace chop::core

namespace chop::gen {
namespace {

TEST(GeneratePredictionMemo, GenerationByteIdenticalAtOneAndFourThreads) {
  Rng rng(11);
  dfg::RandomDagSpec spec;
  spec.operations = 60;
  spec.depth = 8;
  spec.extra_inputs = 6;
  const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
  const lib::ComponentLibrary library = lib::dac91_experiment_library();
  std::vector<chip::ChipInstance> chips;
  for (int c = 0; c < 3; ++c) {
    chips.push_back({numbered("c", c), chip::mosis_package_84()});
  }
  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {60000.0, 120000.0};

  const auto run = [&](int threads) {
    GenerateOptions options;
    options.num_starts = 4;
    options.budget = 8;
    options.threads = threads;
    const std::uint64_t reused =
        obs::MetricsRegistry::global().counter("eval.delta_predict_reused")
            .value();
    const GenerateResult result = generate_partitions(
        bg.graph, library, chips, chip::MemorySubsystem{}, config, options);
    EXPECT_GT(obs::MetricsRegistry::global()
                  .counter("eval.delta_predict_reused")
                  .value(),
              reused)
        << threads << " threads";
    std::string bytes = serve::render_generate_result(result, bg.graph).dump();
    bytes += "\nevaluations " + std::to_string(result.evaluations) +
             " gated " + std::to_string(result.gated) + "\n";
    for (const std::string& line : result.log) bytes += line + "\n";
    return bytes;
  };
  const std::string serial = run(1);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(4), serial);
}

}  // namespace
}  // namespace chop::gen
