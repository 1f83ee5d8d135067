// Shared setup for the benchmark harnesses: the paper's two experiment
// configurations (§3.1/§3.2) on the AR lattice filter, plus pretty
// printing. Every bench binary regenerates one table or figure of the
// paper; see EXPERIMENTS.md for paper-vs-measured.
#pragma once

#include <cctype>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chip/mosis_packages.hpp"
#include "core/eval/candidate_evaluator.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "library/experiment_library.hpp"
#include "obs/metrics.hpp"
#include "util/numbered.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace chop::bench {

/// Which of the paper's two experiments to configure.
enum class Experiment { One, Two };

inline const lib::ComponentLibrary& experiment_library() {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  return lib;
}

/// The AR filter partitioned into `nparts` (1, 2 or 3) partitions, one per
/// chip of package `pkg`, configured per experiment 1 (single-cycle,
/// datapath clock 10x, 30 us budgets) or experiment 2 (multi-cycle, all
/// clocks 300 ns, 20 us performance budget).
inline core::ChopSession make_experiment_session(
    Experiment exp, int nparts,
    chip::ChipPackage pkg = chip::mosis_package_84()) {
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  std::vector<chip::ChipInstance> chips;
  for (int c = 0; c < nparts; ++c) {
    chips.push_back({numbered("chip", c), pkg});
  }
  core::Partitioning pt(ar.graph, std::move(chips));
  const auto cuts =
      nparts == 1
          ? std::vector<std::vector<dfg::NodeId>>{ar.all_operations()}
          : (nparts == 2 ? dfg::ar_two_way_cut(ar) : dfg::ar_three_way_cut(ar));
  for (int p = 0; p < nparts; ++p) {
    pt.add_partition(numbered("P", p + 1),
                     cuts[static_cast<std::size_t>(p)], p);
  }
  core::ChopConfig config;
  if (exp == Experiment::One) {
    config.style.clocking = bad::ClockingStyle::SingleCycle;
    config.clocks = {300.0, 10, 1};
    config.constraints = {30000.0, 30000.0};
  } else {
    config.style.clocking = bad::ClockingStyle::MultiCycle;
    config.clocks = {300.0, 1, 1};
    config.constraints = {20000.0, 20000.0};
  }
  return core::ChopSession(experiment_library(), std::move(pt), config);
}

/// Package index naming used by the paper's tables (1 = 64-pin, 2 = 84-pin).
inline chip::ChipPackage package_by_paper_index(int index) {
  return index == 1 ? chip::mosis_package_64() : chip::mosis_package_84();
}

inline void print_header(const std::string& title, const std::string& note) {
  std::cout << "==== " << title << " ====\n";
  if (!note.empty()) std::cout << note << "\n";
  std::cout << "\n";
}

inline void update_bench_search_json(const std::string& key,
                                     const std::string& fragment,
                                     const std::string& path =
                                         "BENCH_search.json");

/// Shared Figure-7/Figure-8 workhorse: runs the enumeration heuristic
/// over the given ready-made sessions in both exhaustive and
/// branch-and-bound modes (fresh zero-capacity evaluators, so wall time
/// measures real integrations, not memo lookups), checks the two modes
/// returned identical design sets, prints the comparison, and merges a
/// scoreboard entry into BENCH_search.json under `key`. `level1_prune`
/// selects the searched lists: true walks the level-1-pruned eligible
/// lists, false the raw BAD output (the Figures 7/8 keep-all space, where
/// subtree bounds have the most to cut).
inline void run_bound_comparison(const std::string& title,
                                 const std::string& key,
                                 std::vector<core::ChopSession> sessions,
                                 bool level1_prune = true) {
  print_header(title,
               "branch-and-bound must return the identical design set while "
               "visiting fewer leaves");

  struct Totals {
    std::size_t leaves = 0;
    std::size_t pruned = 0;
    std::size_t skipped = 0;
    std::size_t probes = 0;
    double ms = 0.0;
  };
  Totals exhaustive, bounded;
  bool identical = true;
  for (core::ChopSession& session : sessions) {
    session.predict_partitions();
    core::SearchResult results[2];
    for (int mode = 0; mode < 2; ++mode) {
      core::CandidateEvaluator no_cache(0);
      core::SearchOptions opt;
      opt.heuristic = core::Heuristic::Enumeration;
      opt.prune = level1_prune;
      opt.bound_pruning = mode == 1;
      opt.evaluator = &no_cache;
      Timer timer;
      results[mode] = session.search(opt);
      Totals& t = mode ? bounded : exhaustive;
      t.ms += timer.elapsed_ms();
      t.leaves += results[mode].trials;
      t.pruned += results[mode].pruned_subtrees;
      t.skipped += results[mode].bound_skipped_leaves;
      t.probes += results[mode].probe_integrations;
    }
    identical =
        identical && results[0].designs.size() == results[1].designs.size();
    for (std::size_t i = 0; identical && i < results[0].designs.size(); ++i) {
      identical = results[0].designs[i].choice == results[1].designs[i].choice;
    }
  }

  const double leaf_reduction =
      bounded.leaves ? static_cast<double>(exhaustive.leaves) /
                           static_cast<double>(bounded.leaves)
                     : 0.0;
  const double wall_speedup =
      bounded.ms > 0.0 ? exhaustive.ms / bounded.ms : 0.0;
  TablePrinter table({"Mode", "Leaves Visited", "Subtrees Cut",
                      "Leaves Skipped", "Seed Probes", "Wall (ms)"});
  table.row("exhaustive", exhaustive.leaves, exhaustive.pruned,
            exhaustive.skipped, exhaustive.probes, exhaustive.ms);
  table.row("branch-and-bound", bounded.leaves, bounded.pruned,
            bounded.skipped, bounded.probes, bounded.ms);
  table.print(std::cout);
  std::cout << "design sets identical: " << (identical ? "yes" : "NO — BUG")
            << "\nleaf-evaluation reduction: " << leaf_reduction
            << "x, wall speedup: " << wall_speedup << "x\n\n";

  std::ostringstream json;
  json << "{\n    \"exhaustive\": {\"leaves_visited\": " << exhaustive.leaves
       << ", \"wall_ms\": " << exhaustive.ms << "},"
       << "\n    \"bounded\": {\"leaves_visited\": " << bounded.leaves
       << ", \"pruned_subtrees\": " << bounded.pruned
       << ", \"bound_skipped_leaves\": " << bounded.skipped
       << ", \"probe_integrations\": " << bounded.probes
       << ", \"wall_ms\": " << bounded.ms << "},"
       << "\n    \"leaf_eval_reduction\": " << leaf_reduction
       << ",\n    \"wall_speedup\": " << wall_speedup
       << ",\n    \"design_sets_identical\": " << (identical ? "true" : "false")
       << "\n  }";
  update_bench_search_json(key, json.str());
}

/// Read-modify-write merge of one entry into BENCH_search.json, the
/// cross-bench scoreboard of the enumeration search (one top-level key per
/// workload, e.g. "fig7_exp1" from bench_fig7_design_space and "fig8_exp2"
/// from bench_fig8_design_space; each value reports leaves visited,
/// subtrees cut, and wall time per mode). `fragment` must be a complete
/// JSON value. The merge scans the existing file for top-level keys with a
/// string/brace-aware cursor — no JSON dependency — so the two bench
/// binaries can each contribute their entry without clobbering the other's.
inline void update_bench_search_json(const std::string& key,
                                     const std::string& fragment,
                                     const std::string& path) {
  std::vector<std::pair<std::string, std::string>> entries;
  {
    std::ifstream is(path);
    std::stringstream buffer;
    buffer << is.rdbuf();
    const std::string text = buffer.str();
    std::size_t i = 0;
    const auto skip_ws = [&] {
      while (i < text.size() &&
             std::isspace(static_cast<unsigned char>(text[i]))) {
        ++i;
      }
    };
    skip_ws();
    if (i < text.size() && text[i] == '{') {
      ++i;
      while (true) {
        skip_ws();
        if (i >= text.size() || text[i] == '}') break;
        if (text[i] == ',') {
          ++i;
          continue;
        }
        if (text[i] != '"') break;  // malformed: drop the rest
        std::string name;
        ++i;
        while (i < text.size() && text[i] != '"') {
          name.push_back(text[i]);
          ++i;
        }
        ++i;  // closing quote
        skip_ws();
        if (i >= text.size() || text[i] != ':') break;
        ++i;
        skip_ws();
        // Capture the raw value: balanced braces/brackets outside strings,
        // up to the next top-level comma or the closing brace.
        const std::size_t value_start = i;
        int depth = 0;
        bool in_string = false;
        while (i < text.size()) {
          const char c = text[i];
          if (in_string) {
            if (c == '\\') {
              ++i;
            } else if (c == '"') {
              in_string = false;
            }
          } else if (c == '"') {
            in_string = true;
          } else if (c == '{' || c == '[') {
            ++depth;
          } else if (c == '}' || c == ']') {
            if (depth == 0) break;
            --depth;
          } else if (c == ',' && depth == 0) {
            break;
          }
          ++i;
        }
        std::string value = text.substr(value_start, i - value_start);
        while (!value.empty() &&
               std::isspace(static_cast<unsigned char>(value.back()))) {
          value.pop_back();
        }
        entries.emplace_back(std::move(name), std::move(value));
      }
    }
  }

  bool replaced = false;
  for (auto& entry : entries) {
    if (entry.first == key) {
      entry.second = fragment;
      replaced = true;
    }
  }
  if (!replaced) entries.emplace_back(key, fragment);

  std::ofstream os(path);
  if (!os.good()) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  os << "{";
  for (std::size_t e = 0; e < entries.size(); ++e) {
    os << (e ? ",\n  \"" : "\n  \"") << entries[e].first
       << "\": " << entries[e].second;
  }
  os << "\n}\n";
  std::cout << "merged \"" << key << "\" into " << path << "\n";
}

/// Declared first thing in every bench main(): on exit, writes the global
/// metrics snapshot to `<name>.metrics.json` next to the printed table so
/// each table's run comes with its counter/histogram evidence.
class ScopedMetricsDump {
 public:
  explicit ScopedMetricsDump(const std::string& name)
      : path_(name + ".metrics.json") {}
  ScopedMetricsDump(const ScopedMetricsDump&) = delete;
  ScopedMetricsDump& operator=(const ScopedMetricsDump&) = delete;

  ~ScopedMetricsDump() {
    std::ofstream os(path_);
    if (!os.good()) {
      std::cerr << "cannot write " << path_ << "\n";
      return;
    }
    os << obs::MetricsRegistry::global().snapshot().to_json() << "\n";
    std::cout << "wrote " << path_ << "\n";
  }

 private:
  std::string path_;
};

}  // namespace chop::bench
