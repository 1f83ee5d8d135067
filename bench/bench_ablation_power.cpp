// Ablation: power-constrained partitioning — the paper's §5 extension
// ("needs to be extended to include power consumption constraints"),
// exercised end to end. Sweeping the system power budget over the
// experiment-1 AR filter shows the frontier the designer trades along:
// tight budgets force serial, low-utilization implementations (worse II);
// loose budgets recover the unconstrained optimum.
#include <benchmark/benchmark.h>

#include "common.hpp"

namespace {

using namespace chop;

void print_table() {
  bench::print_header(
      "Ablation: system power budget vs achievable performance (exp 1, 2 "
      "chips)",
      "tighter power -> more serial designs -> larger II; '-' = infeasible");
  TablePrinter table({"Power budget (mW)", "Eligible preds", "Best II",
                      "Best Delay", "System power (mW)"});
  for (double budget : {0.0, 300.0, 200.0, 175.0, 170.0, 165.0, 160.0, 150.0, 120.0}) {
    core::ChopSession session =
        bench::make_experiment_session(bench::Experiment::One, 2);
    core::DesignConstraints constraints = session.config().constraints;
    constraints.system_power_mw = budget;
    session.apply(core::EvalDelta::set_constraints(constraints));
    const core::PredictionStats stats = session.predict_partitions();
    core::SearchOptions options;
    options.heuristic = core::Heuristic::Enumeration;
    const core::SearchResult r = session.search(options);
    const std::string label =
        budget == 0.0 ? "unconstrained" : std::to_string(budget).substr(0, 5);
    if (r.designs.empty()) {
      table.row(label, stats.feasible, "-", "-", "-");
    } else {
      const auto& d = r.designs.front().integration;
      table.row(label, stats.feasible, d.ii_main, d.system_delay_main,
                d.system_power_mw.likely());
    }
  }
  table.print(std::cout);
  std::cout << "\n";
}

void BM_power_constrained_search(benchmark::State& state) {
  core::ChopSession session =
      bench::make_experiment_session(bench::Experiment::One, 2);
  core::DesignConstraints constraints = session.config().constraints;
  constraints.system_power_mw = static_cast<double>(state.range(0));
  session.apply(core::EvalDelta::set_constraints(constraints));
  session.predict_partitions();
  core::SearchOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.search(options));
  }
}
BENCHMARK(BM_power_constrained_search)->Arg(0)->Arg(200);

}  // namespace

int main(int argc, char** argv) {
  chop::bench::ScopedMetricsDump metrics_dump("bench_ablation_power");
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
