// Regenerates Figure 7 of the paper: "Designs considered during
// experiment 1" — the same searches as Table 4, but with pruning disabled
// so every encountered design is kept, counted and plotted. The paper
// reports 13411 total (699 unique) designs and 61.40 CPU seconds,
// "showing the advantage of the pruning techniques used in CHOP".
//
// We run the identical sweep (partition counts 1-3, both heuristics, both
// packages) in keep-all mode, print the totals and an ASCII rendering of
// the delay-vs-II scatter, and write the raw points to
// fig7_design_space.csv for external re-plotting.
#include <benchmark/benchmark.h>

#include <thread>

#include "common.hpp"
#include "core/eval/candidate_evaluator.hpp"
#include "core/recorder.hpp"

namespace {

using namespace chop;

/// The Table-4 partition-count/package combinations experiment 1 sweeps.
struct TableFourRun {
  int nparts;
  int package;
};
const TableFourRun kTableFourRuns[] = {{1, 2}, {2, 2}, {2, 1}, {3, 2}};

void run_figure() {
  bench::print_header(
      "Figure 7: designs considered during experiment 1 (no pruning)",
      "paper: 13411 total, 699 unique, 61.40 CPU s vs ~3 s pruned");

  core::DesignSpaceRecorder merged;
  std::size_t total = 0;
  double keep_all_ms = 0.0;
  double pruned_ms = 0.0;

  for (const TableFourRun& run : kTableFourRuns) {
    for (core::Heuristic h :
         {core::Heuristic::Enumeration, core::Heuristic::Iterative}) {
      core::ChopSession session = bench::make_experiment_session(
          bench::Experiment::One, run.nparts,
          bench::package_by_paper_index(run.package));
      session.predict_partitions();

      core::SearchOptions keep_all;
      keep_all.heuristic = h;
      keep_all.prune = false;
      keep_all.record_all = true;
      keep_all.max_trials = 500000;
      // Branch-and-bound would skip most of the space; the figure is
      // precisely about recording every considered design.
      keep_all.bound_pruning = false;
      Timer timer;
      const core::SearchResult r = session.search(keep_all);
      keep_all_ms += timer.elapsed_ms();
      total += r.recorder.total();
      for (const core::DesignPoint& p : r.recorder.points()) {
        merged.record(p);
      }

      core::SearchOptions pruned;
      pruned.heuristic = h;
      timer.reset();
      (void)session.search(pruned);
      pruned_ms += timer.elapsed_ms();
    }
  }

  // Every BAD-level prediction is also a "design considered".
  std::size_t bad_predictions = 0;
  for (int nparts : {1, 2, 3}) {
    core::ChopSession session =
        bench::make_experiment_session(bench::Experiment::One, nparts);
    bad_predictions += session.predict_partitions().total;
  }

  TablePrinter table({"Quantity", "Value"});
  table.row("global designs encountered (keep-all)", total);
  table.row("unique design points", merged.unique());
  table.row("feasible global designs seen", merged.feasible_count());
  table.row("BAD-level predictions generated", bad_predictions);
  table.row("keep-all sweep time (ms)", keep_all_ms);
  table.row("pruned sweep time (ms)", pruned_ms);
  table.print(std::cout);
  std::cout << "\n" << merged.ascii_scatter() << "\n";
  merged.to_csv().write_file("fig7_design_space.csv");
  std::cout << "raw points written to fig7_design_space.csv\n\n";
}

/// Keep-all enumeration at Arg(0) worker threads. A fresh zero-capacity
/// evaluator per iteration keeps the comparison honest: with the
/// session's memo cache every iteration after the first is a replay and
/// thread scaling would be measured on cache lookups, not integrations.
void BM_keep_all_search(benchmark::State& state) {
  core::ChopSession session =
      bench::make_experiment_session(bench::Experiment::One, 2);
  session.predict_partitions();
  core::SearchOptions options;
  options.prune = false;
  options.record_all = true;
  options.max_trials = 500000;
  options.bound_pruning = false;  // thread-scaling of the full keep-all walk
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::CandidateEvaluator no_cache(0);
    options.evaluator = &no_cache;
    benchmark::DoNotOptimize(session.search(options));
  }
}
BENCHMARK(BM_keep_all_search)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

/// One bounded enumeration of a Table-4 configuration's keep-all raw
/// lists, without the memo cache so every thread count does the same
/// integration work.
core::SearchResult bounded_keep_all(const core::ChopSession& session,
                                    int threads) {
  core::CandidateEvaluator no_cache(0);
  core::SearchOptions opt;
  opt.heuristic = core::Heuristic::Enumeration;
  opt.prune = false;  // the keep-all raw lists, as in the figure
  opt.threads = threads;
  opt.evaluator = &no_cache;
  return session.search(opt);
}

bool same_designs(const std::vector<core::GlobalDesign>& a,
                  const std::vector<core::GlobalDesign>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].choice != b[i].choice) return false;
  }
  return true;
}

/// Thread-scaling sweep of the bounded Figure-7 keep-all space: the same
/// four Table-4 configurations, branch-and-bound on, run at 1/2/4/8
/// worker threads. Checks each run returns the design set of the serial
/// run, prints the scaling table, and merges a "fig7_threads" entry into
/// BENCH_search.json.
void run_thread_scaling() {
  bench::print_header(
      "Thread scaling: bounded keep-all sweep",
      "design sets must stay byte-identical at every thread count");

  struct Sample {
    int threads;
    std::size_t leaves = 0;
    double ms = 0.0;
    bool identical = true;
  };
  std::vector<Sample> samples;
  std::vector<std::vector<core::GlobalDesign>> reference;  // serial runs

  for (const int threads : {1, 2, 4, 8}) {
    Sample s;
    s.threads = threads;
    std::size_t run_index = 0;
    for (const TableFourRun& run : kTableFourRuns) {
      core::ChopSession session = bench::make_experiment_session(
          bench::Experiment::One, run.nparts,
          bench::package_by_paper_index(run.package));
      session.predict_partitions();
      Timer timer;
      const core::SearchResult r = bounded_keep_all(session, threads);
      s.ms += timer.elapsed_ms();
      s.leaves += r.trials;
      if (reference.size() <= run_index) {
        reference.push_back(r.designs);
      } else {
        s.identical = s.identical && same_designs(reference[run_index],
                                                  r.designs);
      }
      ++run_index;
    }
    samples.push_back(s);
  }

  TablePrinter table({"Threads", "Leaves Visited", "Wall (ms)", "Identical"});
  for (const Sample& s : samples) {
    table.row(s.threads, s.leaves, s.ms, s.identical ? "yes" : "NO — BUG");
  }
  table.print(std::cout);
  std::cout << "\n";

  std::ostringstream json;
  json << "{\n    \"configs\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    json << (i ? "," : "") << "\n      {\"threads\": " << s.threads
         << ", \"leaves_visited\": " << s.leaves
         << ", \"wall_ms\": " << s.ms
         << ", \"design_sets_identical\": " << (s.identical ? "true" : "false")
         << "}";
  }
  json << "\n    ],\n    \"hardware_threads\": "
       << std::thread::hardware_concurrency() << "\n  }";
  bench::update_bench_search_json("fig7_threads", json.str());
}

/// CI smoke (--scaling-quick): bounded keep-all runs of every Table-4
/// configuration at 1 and 4 threads. Exits nonzero unless the two runs
/// return byte-identical design sets and visit the same leaves, and
/// every leaf of the odometer space is either visited or skipped by a
/// cut subtree (trials + bound_skipped_leaves == product of list sizes).
int run_scaling_quick() {
  bool ok = true;
  for (const TableFourRun& run : kTableFourRuns) {
    core::ChopSession session = bench::make_experiment_session(
        bench::Experiment::One, run.nparts,
        bench::package_by_paper_index(run.package));
    session.predict_partitions();
    std::size_t space = 1;
    for (const auto& list : session.predictions().raw) space *= list.size();
    const core::SearchResult serial = bounded_keep_all(session, 1);
    const core::SearchResult parallel = bounded_keep_all(session, 4);
    const bool identical = same_designs(serial.designs, parallel.designs) &&
                           serial.trials == parallel.trials;
    bool accounted = true;
    for (const core::SearchResult* r : {&serial, &parallel}) {
      accounted = accounted && r->trials + r->bound_skipped_leaves == space;
    }
    ok = ok && identical && accounted;
    std::cout << "scaling-quick nparts=" << run.nparts
              << " package=" << run.package
              << ": designs=" << serial.designs.size()
              << " leaves 1t=" << serial.trials << " 4t=" << parallel.trials
              << " skipped=" << serial.bound_skipped_leaves
              << " space=" << space
              << " identical=" << (identical ? "yes" : "NO")
              << " accounted=" << (accounted ? "yes" : "NO") << "\n";
  }
  if (!ok) {
    std::cerr << "FAIL: 4 threads changed a result, or a leaf went "
                 "unaccounted\n";
    return 1;
  }
  return 0;
}

}  // namespace

/// The BENCH_search.json contribution: the experiment-1 enumeration sweep
/// (the Table-4 partition/package combinations) with and without
/// branch-and-bound subtree pruning.
void run_bound_modes() {
  std::vector<chop::core::ChopSession> sessions;
  for (const TableFourRun& run : kTableFourRuns) {
    sessions.push_back(bench::make_experiment_session(
        bench::Experiment::One, run.nparts,
        bench::package_by_paper_index(run.package)));
  }
  // The raw-list (keep-all) space is the Figure-7 workload proper; it is
  // where the subtree bounds pay for themselves.
  bench::run_bound_comparison(
      "Branch-and-bound vs exhaustive enumeration (experiment 1 keep-all "
      "space)",
      "fig7_exp1", std::move(sessions), /*level1_prune=*/false);
}

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--scaling-quick") return run_scaling_quick();
  }
  chop::bench::ScopedMetricsDump metrics_dump("bench_fig7_design_space");
  run_figure();
  run_bound_modes();
  run_thread_scaling();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
