// Tests for the multilevel partition-generation engine (src/gen): the
// coarsener's structural invariants, the generate portfolio's behavior,
// and — load-bearing for the whole subsystem — the determinism contract:
// byte-identical results at any thread count, including under adversarial
// scheduling. (Suite names match the CI TSan regex `Generate|Coarsen`.)
#include "gen/generate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>

#include "baseline/partition_builders.hpp"
#include "chip/mosis_packages.hpp"
#include "core/eval/thread_pool.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/generator.hpp"
#include "gen/coarsen.hpp"
#include "library/experiment_library.hpp"
#include "obs/trace.hpp"
#include "util/numbered.hpp"

namespace chop::gen {
namespace {

dfg::BenchmarkGraph test_workload(std::uint64_t seed, int operations = 24,
                                  int depth = 6) {
  Rng rng(seed);
  dfg::RandomDagSpec spec;
  spec.operations = operations;
  spec.depth = depth;
  spec.extra_inputs = 6;
  return dfg::random_dag(rng, spec);
}

core::ChopConfig test_config() {
  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {60000.0, 120000.0};
  return config;
}

std::vector<chip::ChipInstance> test_chips(int k) {
  std::vector<chip::ChipInstance> chips;
  for (int c = 0; c < k; ++c) {
    chips.push_back({numbered("c", c), chip::mosis_package_84()});
  }
  return chips;
}

/// Full-content digest of a result; byte-equality across runs/threads is
/// the determinism contract.
std::string digest(const GenerateResult& r) {
  std::ostringstream os;
  os << r.starts_run << "|" << r.evaluations << "|"
     << r.gated << "|" << r.levels << "|" << r.coarsest_vertices << "|"
     << r.cancelled << "\n";
  for (const FrontierPoint& p : r.frontier) {
    os << p.ii << "," << p.delay << "," << p.area << "," << p.start << ":";
    for (const auto& part : p.members) {
      for (const dfg::NodeId id : part) os << id << " ";
      os << ";";
    }
    for (const std::size_t c : p.choice) os << c << " ";
    os << "\n";
  }
  for (const auto& part : r.members) {
    for (const dfg::NodeId id : part) os << id << " ";
    os << ";";
  }
  os << "\n";
  for (const std::string& line : r.log) os << line << "\n";
  return std::move(os).str();
}

// --- Coarsener invariants (satellite: coarsener tests) -----------------

TEST(Coarsen, MatchingIsValidPartitionOfVertices) {
  const dfg::BenchmarkGraph bg = test_workload(11, 32, 6);
  const CoarseGraph g =
      build_operation_graph(bg.graph, bg.all_operations());
  Rng rng(3);
  const std::vector<int> match = heavy_edge_matching(g, rng);
  ASSERT_EQ(match.size(), g.vertex_count());
  // Involution covering every vertex: groups of size one or two.
  for (std::size_t v = 0; v < match.size(); ++v) {
    const auto m = static_cast<std::size_t>(match[v]);
    ASSERT_LT(m, match.size());
    EXPECT_EQ(static_cast<std::size_t>(match[m]), v);
  }
  // Matched pairs must actually be neighbors.
  for (std::size_t v = 0; v < match.size(); ++v) {
    const auto m = static_cast<std::size_t>(match[v]);
    if (m == v) continue;
    bool adjacent = false;
    for (const auto& [u, w] : g.adjacency[v]) {
      (void)w;
      if (static_cast<std::size_t>(u) == m) adjacent = true;
    }
    EXPECT_TRUE(adjacent) << "matched non-neighbors " << v << "," << m;
  }
}

TEST(Coarsen, TransferWeightConservedLevelToLevel) {
  const dfg::BenchmarkGraph bg = test_workload(12, 48, 8);
  CoarsenOptions options;
  options.min_vertices = 4;
  const Hierarchy h = coarsen(bg.graph, bg.all_operations(), options);
  ASSERT_GE(h.level_count(), 1u);
  const Bits base_total =
      h.base.total_edge_bits() + h.base.total_internal_bits();
  int weight_total = std::accumulate(h.base.weight.begin(),
                                     h.base.weight.end(), 0);
  for (std::size_t l = 1; l <= h.level_count(); ++l) {
    const CoarseGraph& g = h.at(l);
    // Every bit of transfer traffic is either still an edge or folded
    // into some vertex's internal traffic — contraction never loses any.
    EXPECT_EQ(g.total_edge_bits() + g.total_internal_bits(), base_total)
        << "level " << l;
    EXPECT_EQ(std::accumulate(g.weight.begin(), g.weight.end(), 0),
              weight_total)
        << "level " << l;
    EXPECT_LT(g.vertex_count(), h.at(l - 1).vertex_count());
  }
}

TEST(Coarsen, ProjectionRoundTripsCutExactly) {
  const dfg::BenchmarkGraph bg = test_workload(13, 40, 5);
  CoarsenOptions options;
  options.min_vertices = 6;
  const Hierarchy h = coarsen(bg.graph, bg.all_operations(), options);
  ASSERT_GE(h.level_count(), 1u);
  const std::size_t top = h.level_count();
  // An arbitrary coarse 3-way cut...
  std::vector<int> coarse(h.coarsest().vertex_count());
  for (std::size_t v = 0; v < coarse.size(); ++v) {
    coarse[v] = static_cast<int>(v % 3);
  }
  // ...projects down with identical cut traffic at every level: cutting
  // between coarse vertices and cutting between their fine members is the
  // same set of spec values.
  const Bits coarse_cut = h.coarsest().cut_bits(coarse);
  std::vector<int> assignment = coarse;
  for (std::size_t l = top; l >= 1; --l) {
    assignment = h.project_one(l, assignment);
    EXPECT_EQ(h.at(l - 1).cut_bits(assignment), coarse_cut) << "level " << l;
  }
  EXPECT_EQ(assignment, h.project_to_base(top, coarse));
  // members_of inverts the assignment without losing an operation.
  const auto members = h.members_of(assignment, 3);
  std::set<dfg::NodeId> seen;
  for (const auto& part : members) {
    for (const dfg::NodeId id : part) EXPECT_TRUE(seen.insert(id).second);
  }
  EXPECT_EQ(seen.size(), h.ops.size());
}

TEST(Coarsen, DeterministicForSeed) {
  const dfg::BenchmarkGraph bg = test_workload(14, 32, 6);
  CoarsenOptions options;
  options.seed = 9;
  const Hierarchy a = coarsen(bg.graph, bg.all_operations(), options);
  const Hierarchy b = coarsen(bg.graph, bg.all_operations(), options);
  ASSERT_EQ(a.level_count(), b.level_count());
  for (std::size_t l = 0; l < a.level_count(); ++l) {
    EXPECT_EQ(a.levels[l].parent, b.levels[l].parent);
    EXPECT_EQ(a.levels[l].graph.adjacency, b.levels[l].graph.adjacency);
    EXPECT_EQ(a.levels[l].graph.weight, b.levels[l].graph.weight);
  }
}

// --- Portfolio behavior -------------------------------------------------

TEST(Generate, FindsFeasibleFrontierOnDiffeq) {
  // diffeq uses Sub/Compare ops, which only the extended library covers.
  const dfg::BenchmarkGraph bg = dfg::diffeq();
  static const lib::ComponentLibrary library =
      lib::dac91_extended_library();
  GenerateOptions options;
  options.num_starts = 3;
  const GenerateResult r = generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), options);
  EXPECT_TRUE(r.feasible());
  EXPECT_EQ(r.starts_run, 3u);
  EXPECT_GT(r.evaluations, 0u);
  ASSERT_FALSE(r.members.empty());
  // The result's search corresponds to the best cut and found designs.
  EXPECT_FALSE(r.search.designs.empty());
  // Frontier is sorted by (ii, delay, area) and non-dominated.
  for (std::size_t i = 1; i < r.frontier.size(); ++i) {
    const FrontierPoint& a = r.frontier[i - 1];
    const FrontierPoint& b = r.frontier[i];
    EXPECT_LE(a.ii, b.ii);
    const bool dominates = a.ii <= b.ii && a.delay <= b.delay &&
                           a.area <= b.area;
    EXPECT_FALSE(dominates) << "frontier point " << i << " dominated";
  }
}

TEST(Generate, DominatesOrEqualsLevelOrderBaseline) {
  const dfg::BenchmarkGraph bg = test_workload(21, 28, 7);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  const GenerateResult r = generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), {});
  ASSERT_TRUE(r.feasible());
  // Evaluate the plain level-order cut directly through the same pipeline.
  const auto baseline_members = baseline::level_order_partition(
      bg.graph, bg.graph.partitionable_operations(), 2);
  core::Partitioning pt(bg.graph, test_chips(2));
  for (std::size_t p = 0; p < baseline_members.size(); ++p) {
    pt.add_partition(numbered("P", p + 1), baseline_members[p],
                     static_cast<int>(p));
  }
  core::ChopSession session(library, std::move(pt), test_config());
  session.predict_partitions();
  core::SearchOptions search;
  search.heuristic = core::Heuristic::Iterative;
  const core::SearchResult baseline = session.search(search);
  // Start 0 evaluates exactly this cut first, so every baseline design is
  // dominated-or-equaled by the returned frontier.
  for (const core::GlobalDesign& d : baseline.designs) {
    bool covered = false;
    for (const FrontierPoint& p : r.frontier) {
      if (p.ii <= d.integration.ii_main &&
          p.delay <= d.integration.system_delay_main) {
        covered = true;
        break;
      }
    }
    EXPECT_TRUE(covered) << "baseline design II=" << d.integration.ii_main
                         << " delay=" << d.integration.system_delay_main
                         << " not covered by the generated frontier";
  }
}

TEST(Generate, BudgetCapsEvaluationsPerStart) {
  const dfg::BenchmarkGraph bg = test_workload(22, 32, 6);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  GenerateOptions options;
  options.num_starts = 2;
  options.budget = 3;
  const GenerateResult r = generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), options);
  // Per-start budget of 3.
  EXPECT_LE(r.evaluations, 2u * 3u);
}

TEST(Generate, CancelReturnsPartialResult) {
  const dfg::BenchmarkGraph bg = test_workload(23, 32, 6);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  std::atomic<bool> cancel{true};  // pre-cancelled: stops at first check
  GenerateOptions options;
  options.num_starts = 4;
  options.cancel = &cancel;
  const GenerateResult r = generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), options);
  EXPECT_TRUE(r.cancelled);
  ASSERT_FALSE(r.members.empty());  // still a valid (partial) answer
}

TEST(Generate, SharedEvaluatorGetsCrossStartHits) {
  const dfg::BenchmarkGraph bg = test_workload(24, 24, 6);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  core::CandidateEvaluator evaluator;
  GenerateOptions options;
  options.num_starts = 3;
  options.search.evaluator = &evaluator;
  const GenerateResult r = generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), options);
  ASSERT_TRUE(r.feasible());
  // Every start's searches run through the one evaluator, so an
  // integration one search already computed comes back as a hit in the
  // next search that needs it.
  EXPECT_GT(evaluator.stats().hits, 0u);
}

TEST(Generate, SeedSpanTimesEachStartsSeedCut) {
  struct Sink : obs::TraceSink {
    void event(const obs::TraceEvent& e) override {
      std::lock_guard<std::mutex> lock(mu);
      events.push_back(e);
    }
    std::mutex mu;
    std::vector<obs::TraceEvent> events;
  } sink;
  const dfg::BenchmarkGraph bg = test_workload(25, 24, 6);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  GenerateOptions options;
  options.num_starts = 3;
  options.budget = 2;
  obs::install_trace_sink(&sink);
  struct Uninstall {
    ~Uninstall() { obs::install_trace_sink(nullptr); }
  } uninstall;
  generate_partitions(bg.graph, library, test_chips(2), {}, test_config(),
                      options);

  std::vector<obs::TraceEvent> starts, seeds;
  for (const obs::TraceEvent& e : sink.events) {
    if (e.name == "gen.start") starts.push_back(e);
    if (e.name == "gen.seed") seeds.push_back(e);
  }
  ASSERT_EQ(starts.size(), 3u);
  ASSERT_EQ(seeds.size(), 3u);
  std::multiset<std::string> names;
  for (const obs::TraceEvent& seed : seeds) {
    names.insert(seed.args_json);
    // Each seed span lies inside one start span on its thread.
    EXPECT_EQ(std::count_if(starts.begin(), starts.end(),
                            [&](const obs::TraceEvent& s) {
                              return s.tid == seed.tid &&
                                     s.ts_us <= seed.ts_us &&
                                     seed.ts_us + seed.dur_us <=
                                         s.ts_us + s.dur_us;
                            }),
              1);
  }
  EXPECT_EQ(names, (std::multiset<std::string>{
                       "\"seed\":\"coarse level-order cut\"",
                       "\"seed\":\"kernighan-lin cut (lifted)\"",
                       "\"seed\":\"random coarse cut\""}));
}

TEST(Generate, LateStartsRefineToTheBaseGraph) {
  // Eight starts on a 60-op DAG. A version that stopped starts between
  // levels once an earlier start's (II, delay) frontier strictly dominated
  // them left start 5 with no frontier point; refined to the base graph,
  // start 5 finds II 60 at a smaller area than start 2's II-60 design.
  const dfg::BenchmarkGraph bg = test_workload(25, 60, 8);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  GenerateOptions options;
  options.num_starts = 8;
  options.budget = 12;
  const GenerateResult r = generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), options);
  EXPECT_TRUE(std::any_of(r.frontier.begin(), r.frontier.end(),
                          [](const FrontierPoint& p) { return p.start == 5; }));
  // The frontier that version returned, as (II, delay, area): every point
  // is still dominated-or-equaled.
  const struct {
    Cycles ii;
    Cycles delay;
    AreaMil2 area;
  } stopped_frontier[] = {
      {60, 142, 157193.7}, {70, 132, 156572.2},  {70, 148, 153336.4},
      {70, 152, 142526.95}, {80, 142, 143577.45}, {140, 203, 131136.7},
      {150, 202, 134219.5}, {150, 212, 130806.8}, {170, 231, 122789.3}};
  for (const auto& q : stopped_frontier) {
    EXPECT_TRUE(std::any_of(r.frontier.begin(), r.frontier.end(),
                            [&q](const FrontierPoint& p) {
                              return p.ii <= q.ii && p.delay <= q.delay &&
                                     p.area <= q.area + 0.01;
                            }))
        << "II=" << q.ii << " delay=" << q.delay << " area=" << q.area;
  }
}

// --- Determinism contract ----------------------------------------------

TEST(GenerateDeterminism, ByteIdenticalAcrossThreadCounts) {
  const dfg::BenchmarkGraph bg = test_workload(31, 28, 7);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  std::string reference;
  for (const int threads : {1, 2, 4, 8}) {
    GenerateOptions options;
    options.num_starts = 6;
    options.threads = threads;
    const GenerateResult r = generate_partitions(
        bg.graph, library, test_chips(3), {}, test_config(), options);
    const std::string d = digest(r);
    if (reference.empty()) {
      reference = d;
    } else {
      EXPECT_EQ(d, reference) << "threads=" << threads;
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(GenerateDeterminism, ByteIdenticalOnExternalPool) {
  const dfg::BenchmarkGraph bg = test_workload(32, 24, 6);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  GenerateOptions serial;
  serial.num_starts = 4;
  const std::string reference = digest(generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), serial));
  core::ThreadPool pool(4);
  GenerateOptions pooled = serial;
  pooled.pool = &pool;
  pooled.threads = 4;
  EXPECT_EQ(digest(generate_partitions(bg.graph, library, test_chips(2), {},
                                       test_config(), pooled)),
            reference);
}

TEST(GenerateDeterminism, ByteIdenticalUnderAdversarialScheduling) {
  const dfg::BenchmarkGraph bg = test_workload(33, 24, 6);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  GenerateOptions options;
  options.num_starts = 6;
  options.threads = 4;
  const GenerateResult fair = generate_partitions(
      bg.graph, library, test_chips(2), {}, test_config(), options);
  const std::string reference = digest(fair);
  for (const std::uint64_t seed : {0xfeedu, 0xbeefu, 0xcafeu, 0xf00du}) {
    core::ThreadPool::set_scheduler_chaos_for_testing(seed);
    const GenerateResult chaotic = generate_partitions(
        bg.graph, library, test_chips(2), {}, test_config(), options);
    core::ThreadPool::set_scheduler_chaos_for_testing(0);
    EXPECT_EQ(digest(chaotic), reference) << "chaos seed " << seed;
  }
}

TEST(GenerateDeterminism, ThrowingStartDrainsExternalPool) {
  const dfg::BenchmarkGraph bg = test_workload(34, 24, 6);
  static const lib::ComponentLibrary library =
      lib::dac91_experiment_library();
  // Park the pool's only worker, so every start stays queued until the
  // calling thread runs it.
  core::ThreadPool pool(1);
  std::promise<void> parked;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::vector<std::function<void()>> park;
  park.push_back([&parked, released] {
    parked.set_value();
    released.wait();
  });
  std::future<void> parking = std::move(pool.submit_batch(std::move(park))[0]);
  parked.get_future().wait();

  GenerateOptions options;
  options.num_starts = 8;
  options.pool = &pool;
  options.search.threads = 0;  // every start's first search throws
  EXPECT_THROW(generate_partitions(bg.graph, library, test_chips(2), {},
                                   test_config(), options),
               Error);
  // The unwinding portfolio drained its batch: no start is left queued to
  // run against the generation state that no longer exists.
  EXPECT_FALSE(pool.try_run_one());
  release.set_value();
  parking.get();
}

}  // namespace
}  // namespace chop::gen
