// chop_cli — drive the partitioner from a `.chop` project file.
//
//   chop_cli <project.chop> [options]
//     --heuristic=E|I   search heuristic (default I, the Figure-5 walk)
//     --threads=N       worker threads for the enumeration heuristic
//                       (default 1; 0 = one worker per hardware thread;
//                       results are identical at any thread count)
//     --no-bound-pruning  disable the branch-and-bound subtree pruning of
//                       the enumeration search (identical designs either
//                       way; useful for timing comparisons and for
//                       recording the full design space)
//     --keep-all        disable pruning (including branch-and-bound),
//                       report the design-space size
//     --guideline       print the full designer guideline for every design
//     --generate        ignore the file's partitions; generate them
//                       automatically (one partition per declared chip)
//     --num-starts=N    generation portfolio size (default 4)
//     --coarsening-ratio=R  generation coarsening threshold (default 0.65)
//     --gen-seed=N      generation random seed (default 1)
//     --optimize-memory sweep memory placements after partitioning
//     --dot=<file>      write the partitioned graph as Graphviz
//     --save=<file>     write the (possibly generated) partitioned project
//                       back out as a .chop file
//     --report=<file>   write a Markdown report of the session
//     --trace=<file>    write a Chrome trace-event JSON of the run
//                       (open in chrome://tracing or Perfetto)
//     --metrics=<file>  write the end-of-run metrics snapshot as JSON
//     --progress        print live search progress to stderr
//     --certify[=N]     prove the search frontier optimal with the exact
//                       certification solver (forces --heuristic=E): the
//                       independently-derived non-inferior set must match
//                       the search point for point and its certificate
//                       must replay through the standalone checker.
//                       Prints CERTIFIED or REFUTED plus the certificate
//                       path (<project-basename>.cert in the working
//                       directory; --certify-out=<file> overrides). N
//                       caps the selection-space size (default 200000).
//
// Exit status: 0 when at least one feasible design exists, 2 when none,
// 1 on usage/parse errors — and under --certify, 1 when the frontier is
// refuted or the space exceeds the cap.
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "gen/generate.hpp"
#include "core/eval/thread_pool.hpp"
#include "core/memory_optimizer.hpp"
#include "exact/checker.hpp"
#include "exact/solver.hpp"
#include "dfg/dot.hpp"
#include "io/spec_format.hpp"
#include "io/report.hpp"
#include "io/spec_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace chop;

struct CliOptions {
  std::string project_path;
  core::Heuristic heuristic = core::Heuristic::Iterative;
  int threads = 1;
  bool bound_pruning = true;
  bool keep_all = false;
  bool guideline = false;
  bool generate = false;
  int num_starts = 4;
  double coarsening_ratio = 0.65;
  std::uint64_t gen_seed = 1;
  bool optimize_memory = false;
  std::string dot_path;
  std::string save_path;
  std::string report_path;
  std::string trace_path;
  std::string metrics_path;
  bool progress = false;
  bool certify = false;
  std::size_t certify_max_leaves = 200000;
  std::string certify_out;
};

int usage() {
  std::cerr
      << "usage: chop_cli <project.chop> [--heuristic=E|I] [--threads=N]\n"
         "                [--no-bound-pruning] [--keep-all] [--guideline]\n"
         "                [--generate] [--num-starts=N]\n"
         "                [--coarsening-ratio=R] [--gen-seed=N]\n"
         "                [--optimize-memory] [--dot=<file>]\n"
         "                [--save=<file>] [--report=<file>] [--trace=<file>]\n"
         "                [--metrics=<file>] [--progress]\n"
         "                [--certify[=<max-product>]] [--certify-out=<file>]\n"
         "  --threads=N runs the enumeration search on N workers (default 1;\n"
         "  N=0 auto-detects one worker per hardware thread); any thread\n"
         "  count produces identical results.\n"
         "  --no-bound-pruning disables the enumeration search's\n"
         "  branch-and-bound subtree pruning (the design set is identical\n"
         "  either way; only the number of visited leaves changes).\n"
         "  --generate replaces the file's partitions (the file may omit\n"
         "  them) with the multilevel generation engine's best cut, one\n"
         "  partition per chip (coarsen, partition, refine; a portfolio of\n"
         "  --num-starts starts raced on --threads workers; byte-identical\n"
         "  results at any thread count).\n";
  return 1;
}

/// Parses a thread count (0 = auto-detect hardware concurrency, same
/// contract as chopd); returns -1 on garbage.
int parse_threads(const std::string& value) {
  try {
    std::size_t used = 0;
    const int n = std::stoi(value, &used);
    if (used != value.size() || n < 0) return -1;
    return n;
  } catch (...) {
    return -1;
  }
}

bool parse_args(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--keep-all") {
      options.keep_all = true;
    } else if (arg == "--no-bound-pruning") {
      options.bound_pruning = false;
    } else if (arg == "--guideline") {
      options.guideline = true;
    } else if (arg == "--generate") {
      options.generate = true;
    } else if (arg.rfind("--num-starts=", 0) == 0) {
      try {
        std::size_t used = 0;
        options.num_starts = std::stoi(arg.substr(13), &used);
        if (used != arg.size() - 13 || options.num_starts < 1) return false;
      } catch (...) {
        return false;
      }
    } else if (arg.rfind("--coarsening-ratio=", 0) == 0) {
      try {
        std::size_t used = 0;
        options.coarsening_ratio = std::stod(arg.substr(19), &used);
        if (used != arg.size() - 19 || options.coarsening_ratio <= 0.0 ||
            options.coarsening_ratio >= 1.0) {
          return false;
        }
      } catch (...) {
        return false;
      }
    } else if (arg.rfind("--gen-seed=", 0) == 0) {
      try {
        std::size_t used = 0;
        options.gen_seed = std::stoull(arg.substr(11), &used);
        if (used != arg.size() - 11) return false;
      } catch (...) {
        return false;
      }
    } else if (arg == "--optimize-memory") {
      options.optimize_memory = true;
    } else if (arg.rfind("--heuristic=", 0) == 0) {
      const std::string value = arg.substr(12);
      if (value == "E") {
        options.heuristic = core::Heuristic::Enumeration;
      } else if (value == "I") {
        options.heuristic = core::Heuristic::Iterative;
      } else {
        return false;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads = parse_threads(arg.substr(10));
      if (options.threads < 0) return false;
    } else if (arg.rfind("--dot=", 0) == 0) {
      options.dot_path = arg.substr(6);
    } else if (arg.rfind("--save=", 0) == 0) {
      options.save_path = arg.substr(7);
    } else if (arg.rfind("--report=", 0) == 0) {
      options.report_path = arg.substr(9);
    } else if (arg.rfind("--trace=", 0) == 0) {
      options.trace_path = arg.substr(8);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      options.metrics_path = arg.substr(10);
    } else if (arg == "--progress") {
      options.progress = true;
    } else if (arg == "--certify") {
      options.certify = true;
    } else if (arg.rfind("--certify=", 0) == 0) {
      options.certify = true;
      const std::string value = arg.substr(10);
      try {
        std::size_t used = 0;
        options.certify_max_leaves = std::stoull(value, &used);
        if (used != value.size() || options.certify_max_leaves == 0) {
          return false;
        }
      } catch (...) {
        return false;
      }
    } else if (arg.rfind("--certify-out=", 0) == 0) {
      options.certify_out = arg.substr(14);
    } else if (!arg.empty() && arg[0] != '-' && options.project_path.empty()) {
      options.project_path = arg;
    } else {
      return false;
    }
  }
  if (options.certify) {
    // Certification compares the searched frontier point for point with
    // the proven optimum, so it needs the enumeration heuristic over the
    // pruned lists — --keep-all changes both sides of that contract.
    if (options.keep_all) return false;
    options.heuristic = core::Heuristic::Enumeration;
  }
  return !options.project_path.empty();
}

/// Certificate artifact path: <project basename>.cert in the working
/// directory unless --certify-out says otherwise.
std::string certificate_path(const CliOptions& options) {
  if (!options.certify_out.empty()) return options.certify_out;
  std::string base = options.project_path;
  const std::size_t slash = base.find_last_of('/');
  if (slash != std::string::npos) base = base.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  return base + ".cert";
}

/// The --certify epilogue: solve the same eligible lists exactly, demand
/// a point-for-point frontier match, replay the certificate through the
/// standalone checker, and leave the certificate artifact behind.
/// Returns true when the frontier is CERTIFIED.
bool run_certification(const core::ChopSession& session,
                       const core::SearchResult& result,
                       const CliOptions& options) {
  const core::EvalContext ctx = session.make_eval_context();
  const auto& lists = session.predictions().eligible;
  exact::ExactOptions exact_options;
  exact_options.max_leaves = options.certify_max_leaves;
  Timer timer;
  const exact::ExactResult proven = exact::solve(ctx, lists, exact_options);
  if (proven.truncated) {
    std::cout << "REFUTED: selection space of " << proven.space
              << " leaves exceeds the --certify cap of "
              << options.certify_max_leaves << " (raise --certify=<n>)\n";
    return false;
  }
  const auto mismatch = [&](const std::string& why) {
    std::cout << "REFUTED: " << why << "\n";
    return false;
  };
  if (proven.frontier.size() != result.designs.size()) {
    return mismatch("search found " + std::to_string(result.designs.size()) +
                    " non-inferior design(s), the proven optimum has " +
                    std::to_string(proven.frontier.size()));
  }
  for (std::size_t i = 0; i < proven.frontier.size(); ++i) {
    const exact::Witness& w = proven.frontier[i];
    const core::GlobalDesign& d = result.designs[i];
    if (w.choice != d.choice || w.ii_main != d.integration.ii_main ||
        w.delay_main != d.integration.system_delay_main) {
      return mismatch("frontier point " + std::to_string(i) +
                      " differs from the certified optimum");
    }
  }
  const exact::CheckResult check =
      exact::verify_certificate(ctx, lists, proven.certificate);
  if (!check.ok) {
    return mismatch("certificate rejected by the checker: " + check.detail);
  }
  const std::string cert_path = certificate_path(options);
  std::ofstream cert_stream(cert_path);
  CHOP_REQUIRE(cert_stream.good(),
               "cannot open certificate output: " + cert_path);
  exact::write_certificate(proven.certificate, cert_stream);
  std::cout << "CERTIFIED: " << proven.frontier.size()
            << " non-inferior design(s) proven optimal over "
            << proven.space << " combinations (" << proven.visited
            << " evaluated, " << proven.pruned_regions << " bound proofs, "
            << timer.elapsed_ms() << " ms)\ncertificate: " << cert_path
            << "\n";
  return true;
}

void print_designs(const core::ChopSession& session,
                   const core::SearchResult& result, bool guideline) {
  TablePrinter table({"Initiation Interval", "Delay", "Clock ns",
                      "Performance ns", "Delay ns"});
  for (const core::GlobalDesign& d : result.designs) {
    table.row(d.integration.ii_main, d.integration.system_delay_main,
              d.integration.clock_ns(), d.integration.performance_ns.likely(),
              d.integration.delay_ns.likely());
  }
  table.print(std::cout);
  if (guideline) {
    for (const core::GlobalDesign& d : result.designs) {
      std::cout << "\n" << session.guideline(d);
    }
  }
}

/// Finalizes the observability outputs on every exit path: closes the
/// Chrome trace (uninstalling the sink first) and dumps the metrics
/// snapshot.
struct ObsFinalizer {
  const CliOptions* options = nullptr;
  std::unique_ptr<obs::ChromeTraceSink> trace_sink;

  ~ObsFinalizer() {
    if (trace_sink) {
      obs::install_trace_sink(nullptr);
      trace_sink->close();
      std::cout << "wrote " << options->trace_path << "\n";
    }
    if (!options->metrics_path.empty()) {
      std::ofstream os(options->metrics_path);
      if (os.good()) {
        os << obs::MetricsRegistry::global().snapshot().to_json() << "\n";
        std::cout << "wrote " << options->metrics_path << "\n";
      } else {
        std::cerr << "error: cannot open metrics output: "
                  << options->metrics_path << "\n";
      }
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_args(argc, argv, options)) return usage();

  std::ofstream trace_stream;  // must outlive the sink writing to it
  ObsFinalizer obs_finalizer;
  obs_finalizer.options = &options;
  if (!options.trace_path.empty()) {
    trace_stream.open(options.trace_path);
    if (!trace_stream.good()) {
      std::cerr << "error: cannot open trace output: " << options.trace_path
                << "\n";
      return 1;
    }
    obs_finalizer.trace_sink =
        std::make_unique<obs::ChromeTraceSink>(trace_stream);
    obs::install_trace_sink(obs_finalizer.trace_sink.get());
  }

  io::Project project;
  try {
    project = io::parse_project_file(options.project_path);
  } catch (const Error& e) {
    std::cerr << options.project_path << ": " << e.what() << "\n";
    return 1;
  }

  try {
    // --threads=0: one worker per hardware thread, resolved once here so
    // every search (including --generate's) sees a concrete count.
    options.threads = core::ThreadPool::resolve_threads(options.threads);

    core::SearchOptions search;
    search.heuristic = options.heuristic;
    search.threads = options.threads;
    // --keep-all exists to record the full design space, so it implies
    // the exhaustive walk (branch-and-bound skips most of the space).
    search.bound_pruning = options.bound_pruning && !options.keep_all;
    search.prune = !options.keep_all;
    search.record_all = options.keep_all;
    search.max_trials = options.keep_all ? 500000 : 0;
    obs::ProgressPrinter progress_printer(std::cerr, 1000);
    if (options.progress) search.observer = &progress_printer;

    // --generate replaces the file's partitions with the multilevel
    // engine's best cut, then the normal predict+search run below reports
    // on that cut like any hand-written partitioning.
    if (options.generate) {
      std::cout << "generating partitions over " << project.chips.size()
                << " chip(s), " << options.num_starts << " start(s)...\n";
      gen::GenerateOptions gen_options;
      gen_options.num_starts = options.num_starts;
      gen_options.coarsening_ratio = options.coarsening_ratio;
      gen_options.seed = options.gen_seed;
      gen_options.threads = options.threads;
      gen_options.search.threads = 1;  // parallelism lives at the start level
      gen_options.search.bound_pruning = options.bound_pruning;
      Timer gen_timer;
      const gen::GenerateResult r = gen::generate_partitions(
          project.graph, project.library, project.chips, project.memory,
          project.config, gen_options);
      for (const std::string& line : r.log) std::cout << "  " << line << "\n";
      std::cout << "generate: " << r.starts_run << " start(s), "
                << r.evaluations << " evaluation(s), " << r.gated << " gated, frontier "
                << r.frontier.size() << " point(s) (" << gen_timer.elapsed_ms()
                << " ms)\n";
      for (const gen::FrontierPoint& p : r.frontier) {
        std::cout << "  frontier: II=" << p.ii << "c delay=" << p.delay
                  << "c area=" << p.area << " mil^2 (start " << p.start
                  << ")\n";
      }
      project.partitions.clear();
      for (std::size_t p = 0; p < r.members.size(); ++p) {
        project.partitions.push_back(core::Partition{
            "P" + std::to_string(p + 1), r.members[p], static_cast<int>(p)});
      }
    }

    core::ChopSession session = project.make_session();
    Timer timer;
    const core::PredictionStats stats = session.predict_partitions();
    std::cout << "BAD predictions: " << stats.total << " total, "
              << stats.feasible << " feasible after level-1 pruning ("
              << timer.elapsed_ms() << " ms)\n";

    if (options.optimize_memory &&
        !session.partitioning().memory().blocks.empty()) {
      const core::MemoryPlacementResult mem =
          core::optimize_memory_placement(session);
      std::cout << "memory placement optimized over " << mem.evaluated
                << " placements\n";
    }

    timer.reset();
    const core::SearchResult result = session.search(search);
    std::cout << "search (" << core::to_char(options.heuristic) << "): "
              << result.trials << " trials, " << result.designs.size()
              << " feasible non-inferior design(s) (" << timer.elapsed_ms()
              << " ms)\n";
    if (options.keep_all) {
      std::cout << "design space: " << result.recorder.total()
                << " considered, " << result.recorder.unique()
                << " unique\n\n"
                << result.recorder.ascii_scatter();
    }
    std::cout << "\n";

    if (options.certify && !run_certification(session, result, options)) {
      return 1;
    }

    if (!options.report_path.empty()) {
      std::ofstream report(options.report_path);
      CHOP_REQUIRE(report.good(),
                   "cannot open report output: " + options.report_path);
      io::ReportOptions report_options;
      report_options.title =
          "CHOP report for " + options.project_path;
      io::render_report(session, stats, result, report, report_options);
      std::cout << "wrote " << options.report_path << "\n";
    }

    if (!options.save_path.empty()) {
      // Persist the (possibly generated) partitioned project, including any memory
      // placement the optimizer installed in the session.
      io::Project saved = project;
      saved.memory = session.partitioning().memory();
      saved.partitions.clear();
      for (const core::Partition& p : session.partitioning().partitions()) {
        saved.partitions.push_back(p);
      }
      io::write_project_file(saved, options.save_path);
      std::cout << "wrote " << options.save_path << "\n";
    }

    if (!options.dot_path.empty()) {
      const auto owner = session.partitioning().partition_of_node();
      std::ofstream dot(options.dot_path);
      CHOP_REQUIRE(dot.good(), "cannot open dot output: " + options.dot_path);
      dot << dfg::to_dot(session.partitioning().spec(), owner);
      std::cout << "wrote " << options.dot_path << "\n";
    }

    if (result.designs.empty()) {
      std::cout << "no feasible partitioning under the given constraints\n";
      return 2;
    }
    print_designs(session, result, options.guideline);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
