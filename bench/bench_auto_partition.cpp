// Ablation: automatic constraint-driven partitioning (gen's multilevel
// generation at its default settings) vs the paper's manual cuts vs
// structure-blind baselines, across workloads and chip counts. Measures
// solution quality (best II/delay) and search effort (predict+search
// evaluations) of the closed-loop advisor built on CHOP's feedback cycle.
#include <benchmark/benchmark.h>

#include "baseline/kernighan_lin.hpp"
#include "baseline/partition_builders.hpp"
#include "common.hpp"
#include "gen/generate.hpp"
#include "util/numbered.hpp"

namespace {

using namespace chop;

core::ChopConfig exp1_config() {
  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  return config;
}

std::vector<chip::ChipInstance> chips(int n) {
  std::vector<chip::ChipInstance> out;
  for (int i = 0; i < n; ++i) {
    out.push_back({numbered("c", i), chip::mosis_package_84()});
  }
  return out;
}

/// Tabulates the best design of `r` (or "-" when nothing is feasible).
void add_row(TablePrinter& table, const std::string& name, std::size_t parts,
             std::size_t evals, const core::SearchResult& r) {
  if (r.designs.empty()) {
    table.row(name, parts, evals, "-", "-");
  } else {
    table.row(name, parts, evals, r.designs.front().integration.ii_main,
              r.designs.front().integration.system_delay_main);
  }
}

void manual_row(TablePrinter& table, const std::string& name,
                const dfg::Graph& graph,
                const std::vector<std::vector<dfg::NodeId>>& cuts) {
  core::Partitioning pt(graph, chips(static_cast<int>(cuts.size())));
  for (std::size_t p = 0; p < cuts.size(); ++p) {
    pt.add_partition(numbered("P", p + 1), cuts[p],
                     static_cast<int>(p));
  }
  core::ChopSession session(bench::experiment_library(), std::move(pt),
                            exp1_config());
  session.predict_partitions();
  add_row(table, name, cuts.size(), 1, session.search({}));
}

void auto_row(TablePrinter& table, const std::string& name,
              const dfg::Graph& graph, int nparts,
              const core::ChopConfig& config,
              const gen::GenerateOptions& options = {}) {
  const gen::GenerateResult r = gen::generate_partitions(
      graph, bench::experiment_library(), chips(nparts), {}, config, options);
  add_row(table, name, static_cast<std::size_t>(nparts), r.evaluations,
          r.search);
}

void print_table() {
  bench::print_header(
      "Automatic partitioning vs manual and baseline cuts (experiment 1)",
      "the closed-loop advisor should match the paper's hand cuts; the "
      "elliptic wave filter (60k/90k budgets) has no manual reference");
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  TablePrinter table({"Partitioner", "Parts", "Evals", "Best II",
                      "Best Delay"});

  for (int nparts : {2, 3}) {
    const auto manual = nparts == 2 ? dfg::ar_two_way_cut(ar)
                                    : dfg::ar_three_way_cut(ar);
    manual_row(table, "AR: paper manual cut", ar.graph, manual);

    Rng rng(4242);
    const auto kl = baseline::make_acyclic(
        ar.graph,
        baseline::kl_partition(ar.graph, ar.all_operations(), nparts, rng));
    manual_row(table, "AR: kernighan-lin (repaired)", ar.graph, kl);

    auto_row(table, "AR: auto (generate)", ar.graph, nparts, exp1_config());
  }
  // At default settings the 3-chip cut stalls at II 50; a wider portfolio
  // reaches the paper's II 30.
  gen::GenerateOptions wide;
  wide.num_starts = 8;
  auto_row(table, "AR: auto (generate, 8 starts)", ar.graph, 3, exp1_config(),
           wide);

  const dfg::BenchmarkGraph ewf = dfg::elliptic_wave_filter();
  core::ChopConfig config = exp1_config();
  config.constraints = {60000.0, 90000.0};
  for (int nparts : {2, 3}) {
    auto_row(table, "EWF: auto (generate)", ewf.graph, nparts, config);
  }
  table.print(std::cout);
  std::cout << "\n";
}

void BM_auto_generate(benchmark::State& state) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const int nparts = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gen::generate_partitions(ar.graph, bench::experiment_library(),
                                 chips(nparts), {}, exp1_config()));
  }
}
BENCHMARK(BM_auto_generate)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  chop::bench::ScopedMetricsDump metrics_dump("bench_auto_partition");
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
