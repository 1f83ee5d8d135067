// Multilevel partition generation at scale: quality vs portfolio starts
// and wall time vs threads on random layered DAGs (1k/10k/100k
// operations), with the acceptance checks of ROADMAP item #1 asserted on
// every run:
//
//  - the generated frontier dominates-or-equals the best design of the
//    single level-order cut (generation must never lose to the baseline),
//  - the shared evaluator sees cross-start cache hits,
//  - the full result is byte-identical at 1/2/4/8 portfolio threads.
//
// `--quick` runs the 1k-operation workload only (CI perf smoke) and exits
// non-zero when any acceptance check fails. The default full run covers
// 1k and 10k; `--huge` adds the 100k workload, where a single pipeline
// evaluation costs minutes (prediction-dominated) and the stage runs for
// the better part of an hour. Every run merges a scoreboard entry per
// workload into BENCH_generate.json.
#include <benchmark/benchmark.h>

#include <cstring>
#include <sstream>

#include "baseline/partition_builders.hpp"
#include "common.hpp"
#include "dfg/generator.hpp"
#include "gen/generate.hpp"
#include "util/numbered.hpp"

namespace {

using namespace chop;

/// A package big enough that multi-thousand-op partitions stay feasible
/// (the MOSIS dies from the paper cap out near a hundred operations; the
/// controller PLA alone outgrows them at this scale).
chip::ChipPackage mega_package() {
  chip::ChipPackage pkg;
  pkg.name = "MEGA-1000";
  pkg.width_mil = 100000.0;
  pkg.height_mil = 100000.0;
  pkg.pin_count = 1000;
  pkg.pad_delay = 25.0;
  pkg.io_pad_area = 297.60;
  pkg.validate();
  return pkg;
}

std::vector<chip::ChipInstance> mega_chips(int n) {
  std::vector<chip::ChipInstance> out;
  for (int i = 0; i < n; ++i) {
    out.push_back({numbered("c", i), mega_package()});
  }
  return out;
}

core::ChopConfig loose_config() {
  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {1.0e9, 2.0e9};
  return config;
}

dfg::BenchmarkGraph workload(int operations, int depth, std::uint64_t seed) {
  Rng rng(seed);
  dfg::RandomDagSpec spec;
  spec.operations = operations;
  spec.depth = depth;
  spec.width = 16;
  spec.extra_inputs = 8;
  return dfg::random_dag(rng, spec);
}

/// Full-content serialization for the byte-determinism check (mirrors the
/// fuzz harness's generation_determinism oracle).
std::string digest(const gen::GenerateResult& r) {
  std::ostringstream out;
  out << std::hexfloat;
  out << r.starts_run << '/' << r.evaluations << '/'
      << r.gated << '/' << r.levels << '/' << r.coarsest_vertices << '\n';
  for (const gen::FrontierPoint& p : r.frontier) {
    out << p.ii << ' ' << p.delay << ' ' << p.area << ' ' << p.start << ' ';
    for (const std::size_t c : p.choice) out << c << ',';
    for (const auto& part : p.members) {
      for (const dfg::NodeId id : part) out << id << ',';
      out << '|';
    }
    out << '\n';
  }
  for (const auto& part : r.members) {
    for (const dfg::NodeId id : part) out << id << ',';
    out << '|';
  }
  out << '\n';
  for (const std::string& line : r.log) out << line << '\n';
  return out.str();
}

/// Best (II, delay) of the plain single level-order cut, searched with the
/// same iterative options the generator scores candidates with.
struct BaselineScore {
  bool feasible = false;
  Cycles ii = 0;
  Cycles delay = 0;
};

BaselineScore level_order_baseline(const dfg::BenchmarkGraph& bg, int k) {
  const auto cuts = baseline::level_order_partition(
      bg.graph, bg.all_operations(), k);
  core::Partitioning pt(bg.graph, mega_chips(k));
  for (std::size_t p = 0; p < cuts.size(); ++p) {
    pt.add_partition(numbered("P", p + 1), cuts[p],
                     static_cast<int>(p));
  }
  core::ChopSession session(bench::experiment_library(), std::move(pt),
                            loose_config());
  session.predict_partitions();
  core::SearchOptions opt;
  opt.heuristic = core::Heuristic::Iterative;
  const core::SearchResult r = session.search(opt);
  BaselineScore score;
  for (const core::GlobalDesign& d : r.designs) {
    if (!d.integration.feasible) continue;
    if (!score.feasible || d.integration.ii_main < score.ii ||
        (d.integration.ii_main == score.ii &&
         d.integration.system_delay_main < score.delay)) {
      score.feasible = true;
      score.ii = d.integration.ii_main;
      score.delay = d.integration.system_delay_main;
    }
  }
  return score;
}

struct WorkloadReport {
  bool dominates_baseline = true;
  bool cache_hits_seen = false;
  bool deterministic = true;
};

/// One workload: quality-vs-starts table, wall-vs-threads table, and the
/// three acceptance checks. Returns the checks; merges a scoreboard entry.
WorkloadReport run_workload(const std::string& key, int operations, int depth,
                            int k, const std::vector<int>& start_counts,
                            const std::vector<int>& thread_counts,
                            std::size_t budget) {
  WorkloadReport report;
  bench::print_header(
      key + ": multilevel generation of " + std::to_string(operations) +
          " operations onto " + std::to_string(k) + " chips",
      "frontier must dominate-or-equal the level-order baseline");
  const dfg::BenchmarkGraph bg = workload(operations, depth, 7001);

  Timer baseline_timer;
  const BaselineScore base = level_order_baseline(bg, k);
  const double baseline_ms = baseline_timer.elapsed_ms();
  std::cout << "level-order baseline: "
            << (base.feasible ? "II=" + std::to_string(base.ii) +
                                    "c delay=" + std::to_string(base.delay) +
                                    "c"
                              : std::string("infeasible"))
            << " (" << baseline_ms << " ms)\n\n";

  // --- Quality vs starts (serial, shared evaluator per run) ------------
  TablePrinter quality({"Starts", "Evals", "Gated", "Frontier",
                        "Best II", "Best Delay", "Cache Hits", "Wall (ms)"});
  gen::GenerateResult best_run;
  double best_run_ms = 0.0;
  std::size_t best_run_hits = 0;
  for (const int starts : start_counts) {
    core::CandidateEvaluator evaluator;
    gen::GenerateOptions options;
    options.num_starts = starts;
    options.budget = budget;
    options.search.evaluator = &evaluator;
    Timer timer;
    gen::GenerateResult r = gen::generate_partitions(
        bg.graph, bench::experiment_library(), mega_chips(k), {},
        loose_config(), options);
    const double ms = timer.elapsed_ms();
    const std::size_t hits = evaluator.stats().hits;
    if (r.feasible()) {
      quality.row(starts, r.evaluations, r.gated, r.frontier.size(),
                  r.frontier.front().ii, r.frontier.front().delay, hits, ms);
    } else {
      quality.row(starts, r.evaluations, r.gated, 0, "-", "-", hits, ms);
    }
    if (hits > 0) report.cache_hits_seen = true;
    if (starts == start_counts.back()) {
      best_run = std::move(r);
      best_run_ms = ms;
      best_run_hits = hits;
    }
  }
  quality.print(std::cout);

  // The portfolio's start 0 evaluates the exact level-order cut, so a
  // feasible baseline design must be covered by the frontier.
  if (base.feasible) {
    bool covered = false;
    for (const gen::FrontierPoint& p : best_run.frontier) {
      if (p.ii <= base.ii && p.delay <= base.delay) {
        covered = true;
        break;
      }
    }
    report.dominates_baseline = covered;
  }
  std::cout << "frontier dominates-or-equals baseline: "
            << (report.dominates_baseline ? "yes" : "NO — BUG")
            << "\ncross-start eval cache hits: "
            << (report.cache_hits_seen ? "yes" : "NO — BUG") << "\n\n";

  // --- Wall vs threads (fixed portfolio, byte-determinism asserted) ----
  TablePrinter scaling({"Threads", "Wall (ms)", "Speedup", "Identical"});
  const int scale_starts = start_counts.back();
  std::string serial_digest;
  double serial_ms = 0.0;
  std::ostringstream walls;
  for (const int threads : thread_counts) {
    gen::GenerateOptions options;
    options.num_starts = scale_starts;
    options.budget = budget;
    options.threads = threads;
    Timer timer;
    const gen::GenerateResult r = gen::generate_partitions(
        bg.graph, bench::experiment_library(), mega_chips(k), {},
        loose_config(), options);
    const double ms = timer.elapsed_ms();
    const std::string d = digest(r);
    bool identical = true;
    if (threads == thread_counts.front()) {
      serial_digest = d;
      serial_ms = ms;
    } else {
      identical = d == serial_digest;
      if (!identical) report.deterministic = false;
    }
    scaling.row(threads, ms, serial_ms > 0.0 ? serial_ms / ms : 0.0,
                identical ? "yes" : "NO — BUG");
    walls << (threads == thread_counts.front() ? "" : ", ") << "\"t"
          << threads << "\": " << ms;
  }
  scaling.print(std::cout);
  std::cout << "byte-identical across thread counts: "
            << (report.deterministic ? "yes" : "NO — BUG") << "\n\n";

  std::ostringstream json;
  json << "{\n    \"operations\": " << operations << ", \"chips\": " << k
       << ", \"starts\": " << scale_starts
       << ", \"evaluations\": " << best_run.evaluations
       << ", \"gated\": " << best_run.gated
       << ", \"levels\": " << best_run.levels
       << ", \"frontier_points\": " << best_run.frontier.size();
  if (best_run.feasible()) {
    json << ",\n    \"best_ii\": " << best_run.frontier.front().ii
         << ", \"best_delay\": " << best_run.frontier.front().delay;
  }
  if (base.feasible) {
    json << ",\n    \"baseline_ii\": " << base.ii
         << ", \"baseline_delay\": " << base.delay;
  }
  json << ",\n    \"dominates_baseline\": "
       << (report.dominates_baseline ? "true" : "false")
       << ", \"cache_hits\": " << best_run_hits
       << ", \"deterministic\": " << (report.deterministic ? "true" : "false")
       << ",\n    \"wall_ms\": {" << walls.str() << "},"
       << "\n    \"portfolio_wall_ms\": " << best_run_ms << "\n  }";
  bench::update_bench_search_json(key, json.str(), "BENCH_generate.json");
  return report;
}

bool all_ok(const WorkloadReport& r) {
  return r.dominates_baseline && r.cache_hits_seen && r.deterministic;
}

void BM_generate(benchmark::State& state) {
  const dfg::BenchmarkGraph bg = workload(1000, 20, 7001);
  const int starts = static_cast<int>(state.range(0));
  for (auto _ : state) {
    gen::GenerateOptions options;
    options.num_starts = starts;
    options.budget = 12;
    benchmark::DoNotOptimize(gen::generate_partitions(
        bg.graph, bench::experiment_library(), mega_chips(4), {},
        loose_config(), options));
  }
}
BENCHMARK(BM_generate)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  chop::bench::ScopedMetricsDump metrics_dump("bench_generate");
  bool quick = false;
  bool huge = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--huge") == 0) huge = true;
  }

  if (quick) {
    // CI perf smoke: 1k operations, small portfolio, hard pass/fail.
    const WorkloadReport r =
        run_workload("generate_1k", 1000, 20, 4, {1, 2, 4}, {1, 2, 4}, 12);
    std::cout << (all_ok(r) ? "quick acceptance: PASS\n"
                            : "quick acceptance: FAIL\n");
    return all_ok(r) ? 0 : 1;
  }

  bool ok = true;
  ok = all_ok(run_workload("generate_1k", 1000, 20, 4, {1, 2, 4, 8},
                           {1, 2, 4, 8}, 24)) &&
       ok;
  ok = all_ok(run_workload("generate_10k", 10000, 40, 4, {1, 2, 4}, {1, 4},
                           8)) &&
       ok;
  if (huge) {
    ok = all_ok(run_workload("generate_100k", 100000, 60, 4, {1, 2}, {1, 2},
                             2)) &&
         ok;
  } else {
    std::cout << "skipping the 100k-operation workload (pass --huge; one "
                 "pipeline evaluation costs minutes at that scale)\n\n";
  }
  std::cout << (ok ? "acceptance: PASS\n" : "acceptance: FAIL\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
