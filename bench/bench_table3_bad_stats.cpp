// Regenerates Table 3 of the paper: "Statistics on the results from BAD
// for experiment 1" — total predictions and feasible (level-1-surviving)
// predictions per partition count, under the single-cycle style.
//
// Paper reference rows: 1 partition: 111/5; 2: 207/25; 3: 236/32. Our BAD
// sweep enumerates more pipelined II variants than the 1990 tool, so raw
// totals are larger; the shape (totals in the hundreds-to-thousands,
// feasible sets in the single-to-low-double digits, growing with the
// partition count) is the reproduced claim.
#include <benchmark/benchmark.h>

#include "bad/predictor.hpp"
#include "common.hpp"
#include "dfg/generator.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace chop;

void print_table() {
  bench::print_header(
      "Table 3: statistics on the results from BAD (experiment 1)",
      "paper: totals 111/207/236, feasible 5/25/32");
  TablePrinter table({"Partition Count", "Total number of predictions",
                      "Number of feasible predictions"});
  for (int nparts : {1, 2, 3}) {
    core::ChopSession session =
        bench::make_experiment_session(bench::Experiment::One, nparts);
    const core::PredictionStats stats = session.predict_partitions();
    table.row(nparts, stats.total, stats.feasible);
  }
  table.print(std::cout);
  std::cout << "\n";
}

void BM_bad_prediction_pass(benchmark::State& state) {
  const int nparts = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::ChopSession session =
        bench::make_experiment_session(bench::Experiment::One, nparts);
    benchmark::DoNotOptimize(session.predict_partitions());
  }
}
BENCHMARK(BM_bad_prediction_pass)->Arg(1)->Arg(2)->Arg(3);

/// Scaling of one BAD sweep with partition size: one Predictor::predict on
/// an n-op random layered DAG (depth n/50) with the experiment library,
/// single-cycle on the 10x datapath clock, every II up to the stage count.
/// `time_per_schedule` is wall time per list or modulo schedule run, in
/// seconds (printed with an SI prefix: 16u is 16 µs).
void BM_predict_random_dag(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7001);
  dfg::RandomDagSpec spec;
  spec.operations = n;
  spec.depth = n / 50;
  const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
  bad::PredictionRequest req;
  req.graph = &bg.graph;
  req.library = &bench::experiment_library();
  req.style.clocking = bad::ClockingStyle::SingleCycle;
  req.clocks = {300.0, 10, 1};
  const bad::Predictor predictor;
  const obs::Counter& schedules =
      obs::MetricsRegistry::global().counter("bad.schedules");
  const std::uint64_t before = schedules.value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.predict(req));
  }
  const auto total = static_cast<double>(schedules.value() - before);
  state.counters["schedules"] =
      total / static_cast<double>(state.iterations());
  state.counters["time_per_schedule"] = benchmark::Counter(
      total, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_predict_random_dag)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  chop::bench::ScopedMetricsDump metrics_dump("bench_table3_bad_stats");
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
