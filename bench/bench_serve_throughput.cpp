// Serving-layer throughput: jobs/second and queue-wait / end-to-end
// latency percentiles for a ChopServer running the paper's experiment-1
// AR-filter project, swept over worker-pool sizes (1/4/8). Every job
// searches on its own session's evaluator, so each starts with a cold
// integration cache (hence the `_cold` scoreboard keys).
//
// Writes bench_serve_throughput.metrics.json (ScopedMetricsDump) with the
// serve.* counter/histogram evidence next to the printed numbers, and
// merges one scoreboard entry per configuration into BENCH_serve.json:
// jobs/sec, queue-wait and end-to-end p50/p99/p99.9 (from the same
// deterministic quantile sketch the daemon's histograms use), and the
// summed search-phase attribution of the last batch.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "dfg/benchmarks.hpp"
#include "obs/quantile.hpp"
#include "serve/server.hpp"
#include "util/numbered.hpp"

namespace chop::bench {
namespace {

/// The experiment-1 two-partition AR-filter project, as an io::Project so
/// it can be submitted to a server (same pieces make_experiment_session
/// assembles directly).
io::Project ar_project(int nparts) {
  const dfg::BenchmarkGraph& ar = dfg::ar_lattice_filter();
  io::Project project;
  project.graph = ar.graph;
  project.library = experiment_library();
  for (int c = 0; c < nparts; ++c) {
    project.chips.push_back(
        {numbered("chip", c), chip::mosis_package_84()});
  }
  const auto cuts = nparts == 2 ? dfg::ar_two_way_cut(ar)
                                : dfg::ar_three_way_cut(ar);
  for (int p = 0; p < nparts; ++p) {
    project.partitions.push_back({numbered("P", p + 1),
                                  cuts[static_cast<std::size_t>(p)], p});
  }
  project.config.style.clocking = bad::ClockingStyle::SingleCycle;
  project.config.clocks = {300.0, 10, 1};
  project.config.constraints = {30000.0, 30000.0};
  return project;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// One batch: a fresh server, `jobs` submissions of the same project,
/// wait for every result. Latency samples accumulate across iterations.
void BM_ServeThroughput(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  constexpr int kJobs = 32;
  const io::Project project = ar_project(2);
  serve::JobOptions job;
  job.heuristic = core::Heuristic::Enumeration;

  std::vector<double> queue_wait_ms;
  std::vector<double> e2e_ms;
  obs::QuantileSketch queue_wait_sketch;
  obs::QuantileSketch e2e_sketch;
  obs::PhaseProfileData last_profile;
  double batch_ms = 0.0;
  std::uint64_t batch_jobs = 0;
  for (auto _ : state) {
    Timer batch_timer;
    serve::ServerOptions options;
    options.workers = workers;
    options.queue_capacity = kJobs;
    serve::ChopServer server(options);
    std::vector<std::string> ids;
    ids.reserve(kJobs);
    for (int j = 0; j < kJobs; ++j) {
      ids.push_back(server.submit(project, job).id);
    }
    for (const std::string& id : ids) {
      const serve::JobView view = server.view(id, /*wait_terminal=*/true);
      if (view.state != serve::JobState::Done) {
        state.SkipWithError("job did not complete");
        break;
      }
      queue_wait_ms.push_back(view.queue_wait_ms);
      e2e_ms.push_back(view.queue_wait_ms + view.run_ms);
      queue_wait_sketch.add(view.queue_wait_ms);
      e2e_sketch.add(view.queue_wait_ms + view.run_ms);
    }
    last_profile = server.total_profile();
    server.shutdown(true);
    batch_ms += batch_timer.elapsed_ms();
    batch_jobs += kJobs;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kJobs);
  state.counters["jobs_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kJobs,
      benchmark::Counter::kIsRate);
  state.counters["queue_wait_p50_ms"] =
      benchmark::Counter(percentile(queue_wait_ms, 0.50));
  state.counters["queue_wait_p95_ms"] =
      benchmark::Counter(percentile(queue_wait_ms, 0.95));
  state.counters["e2e_p50_ms"] = benchmark::Counter(percentile(e2e_ms, 0.50));
  state.counters["e2e_p95_ms"] = benchmark::Counter(percentile(e2e_ms, 0.95));
  state.counters["e2e_p99_ms"] = benchmark::Counter(e2e_sketch.quantile(0.99));

  // Scoreboard entry: one BENCH_serve.json key per configuration, so
  // successive runs build a throughput/latency trajectory per config.
  const double jobs_per_sec =
      batch_ms > 0.0 ? static_cast<double>(batch_jobs) / (batch_ms / 1000.0)
                     : 0.0;
  std::ostringstream json;
  json << "{\n    \"workers\": " << workers
       << ", \"jobs\": " << batch_jobs
       << ",\n    \"jobs_per_sec\": " << jobs_per_sec
       << ",\n    \"queue_wait_ms\": {\"p50\": "
       << queue_wait_sketch.quantile(0.50)
       << ", \"p99\": " << queue_wait_sketch.quantile(0.99)
       << ", \"p999\": " << queue_wait_sketch.quantile(0.999) << "}"
       << ",\n    \"e2e_ms\": {\"p50\": " << e2e_sketch.quantile(0.50)
       << ", \"p99\": " << e2e_sketch.quantile(0.99)
       << ", \"p999\": " << e2e_sketch.quantile(0.999) << "}"
       << ",\n    \"profile\": " << last_profile.to_json() << "\n  }";
  update_bench_search_json("serve_w" + std::to_string(workers) + "_cold",
                           json.str(), "BENCH_serve.json");
}
BENCHMARK(BM_ServeThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->ArgName("workers")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace chop::bench

int main(int argc, char** argv) {
  chop::bench::ScopedMetricsDump metrics_dump("bench_serve_throughput");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
