// Baseline comparison: constraint-driven cuts vs classical Kernighan-Lin
// min-cut partitioning (paper ref [4]), evaluated through CHOP's own
// predictors. The paper's related-work critique (§1.1): minimizing "sum of
// costs of values cut" does not directly optimize pin usage, area or
// performance of behavioral partitions — KL is cut-optimal but
// constraint-blind.
//
// We compare three 2-way cuts of the AR filter under experiment-1
// conditions: the paper's horizontal cut, a KL min-cut (repaired to be
// quotient-acyclic), and a random cut (repaired). Reported: cut width,
// feasibility, best II and delay.
#include <benchmark/benchmark.h>

#include "baseline/kernighan_lin.hpp"
#include "baseline/partition_builders.hpp"
#include "common.hpp"
#include "dfg/generator.hpp"
#include "dfg/subgraph.hpp"
#include "util/numbered.hpp"

namespace {

using namespace chop;

Bits cut_bits(const dfg::Graph& g,
              const std::vector<std::vector<dfg::NodeId>>& parts) {
  Bits total = 0;
  for (const auto& members : parts) {
    total += dfg::induced_subgraph(g, members).outgoing_bits;
  }
  return total;
}

void evaluate(const std::string& name,
              const std::vector<std::vector<dfg::NodeId>>& parts,
              const dfg::Graph& graph, TablePrinter& table) {
  std::vector<chip::ChipInstance> chips;
  for (std::size_t c = 0; c < parts.size(); ++c) {
    chips.push_back({numbered("c", c), chip::mosis_package_84()});
  }
  core::Partitioning pt(graph, std::move(chips));
  for (std::size_t p = 0; p < parts.size(); ++p) {
    pt.add_partition(numbered("P", p + 1), parts[p],
                     static_cast<int>(p));
  }
  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  core::ChopSession session(bench::experiment_library(), std::move(pt),
                            config);
  session.predict_partitions();
  core::SearchOptions options;
  options.heuristic = core::Heuristic::Enumeration;
  Timer timer;
  const core::SearchResult r = session.search(options);
  const double ms = timer.elapsed_ms();
  if (r.designs.empty()) {
    table.row(name, parts.size(), cut_bits(graph, parts), 0, "-", "-", ms);
  } else {
    const auto& d = r.designs.front().integration;
    table.row(name, parts.size(), cut_bits(graph, parts), r.designs.size(),
              d.ii_main, d.system_delay_main, ms);
  }
}

void print_table() {
  bench::print_header(
      "Baseline: constraint-driven cut vs Kernighan-Lin min-cut vs random",
      "paper §1.1: min-cut objectives do not directly optimize behavioral "
      "partition feasibility");
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  TablePrinter table({"Partitioner", "Parts", "Cut bits", "Feasible",
                      "Best II", "Best Delay", "Time (ms)"});

  evaluate("paper horizontal cut", dfg::ar_two_way_cut(ar), ar.graph, table);

  Rng rng(99);
  const auto kl = baseline::make_acyclic(
      ar.graph, baseline::kl_partition(ar.graph, ar.all_operations(), 2, rng));
  evaluate("kernighan-lin (repaired)", kl, ar.graph, table);

  const auto level = baseline::level_order_partition(
      ar.graph, ar.all_operations(), 2);
  evaluate("level-order", level, ar.graph, table);

  const auto random = baseline::make_acyclic(
      ar.graph, baseline::random_partition(ar.all_operations(), 2, rng));
  evaluate("random (repaired)", random, ar.graph, table);

  table.print(std::cout);
  std::cout << "\n";
}

void BM_kl_partition(benchmark::State& state) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        baseline::kl_partition(ar.graph, ar.all_operations(), 2, rng));
  }
}
BENCHMARK(BM_kl_partition);

// One KL bisection of the generate_1k family DAG (random_dag seed 7001:
// 1,000 ops, depth 20, width 16), the cut generation's start 1 seeds from.
void BM_kl_bisect_1k(benchmark::State& state) {
  Rng dag_rng(7001);
  dfg::RandomDagSpec spec;
  spec.operations = 1000;
  spec.depth = 20;
  spec.width = 16;
  spec.extra_inputs = 8;
  const dfg::BenchmarkGraph bg = dfg::random_dag(dag_rng, spec);
  const auto ops = bg.all_operations();
  for (auto _ : state) {
    Rng rng(5);
    benchmark::DoNotOptimize(baseline::kl_partition(bg.graph, ops, 2, rng));
  }
}
BENCHMARK(BM_kl_bisect_1k)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  chop::bench::ScopedMetricsDump metrics_dump("bench_baseline_kl");
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
