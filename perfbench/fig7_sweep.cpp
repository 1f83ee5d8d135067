// fig7_sweep: the paper's Figure-7 keep-all sweep. One op covers the four
// Table-4 configurations of experiment 1 (1, 2, 2 and 3 partitions of the
// AR filter on the 84, 84, 64 and 84-pin packages): for each, a fresh
// ChopSession from the parsed project, predict_partitions(), then the
// bounded keep-all enumeration (prune=false, the session's own memo
// evaluator, one thread). The 3-partition configuration dominates, so
// search and leaf integration are nearly all of an op and BAD prediction
// is a fraction of a percent. The input is fixed by the paper; the seed
// is unused.
//
// Each op's design sets are checked twice: all four digested against
// expected.txt, and the first two configurations against an exhaustive
// walk (branch-and-bound and the memo cache off) run during set-up, the
// exhaustive == branch-and-bound oracle. The 84-pin 2-partition walk
// (219,024 leaves, about 1.2 s) is most of set-up; the other 2-partition
// space is as large and the 3-partition one (6.3M leaves) far larger, so
// set-up leaves them to the digest.
#include <algorithm>
#include <optional>

#include "common.hpp"
#include "core/eval/candidate_evaluator.hpp"
#include "core/integration.hpp"
#include "dfg/benchmarks.hpp"
#include "io/spec_writer.hpp"
#include "obs/phase_profile.hpp"
#include "serve/protocol.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace chop;

namespace {

/// One op takes 5.5 to 11 s on a shared 4-vCPU x86 VM (Release build), as
/// the machine's speed drifts. A 30 s run makes four timed ops after its
/// warm-up op; with set-up, at most about 60 s.
constexpr double kNominalOpsPerS = 1.0 / 7.5;
/// Leaves of the 3-partition raw space integrated directly per traced run.
constexpr std::size_t kLeafSample = 20000;
constexpr std::uint64_t kLeafSampleSeed = 7;

struct Table4Config {
  int nparts;
  int pins;
  bool exhaustive;  ///< Walked exhaustively during set-up.
};
constexpr Table4Config kConfigs[] = {
    {1, 84, true}, {2, 84, true}, {2, 64, false}, {3, 84, false}};

const std::vector<const char*> kCounters = {
    "integration.attempts",    "bad.schedules",    "bad.predictions_raw",
    "bad.predictions_eligible", "eval.cache_hits", "eval.cache_misses",
};

struct Inputs {
  std::vector<std::string> specs;
  std::vector<io::Project> projects;
  /// Per configuration, the exhaustive walk's design set; empty where
  /// set-up does not walk the space.
  std::vector<std::string> exhaustive;
};

std::string designs_json(const core::SearchResult& result) {
  return serve::render_search_result(result).find("designs")->dump();
}

/// Renders the four projects to .chop text and parses them back, the way
/// a user hands them to the program, and validates each: its session must
/// build and BAD must predict at least one implementation per partition,
/// or the sweep would be vacuous. Then walks the first two configurations
/// exhaustively for the oracle.
Inputs set_up() {
  Inputs in;
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  for (const Table4Config& c : kConfigs) {
    using Cuts = std::vector<std::vector<dfg::NodeId>>;
    const Cuts cuts = c.nparts == 1   ? Cuts{ar.all_operations()}
                      : c.nparts == 2 ? dfg::ar_two_way_cut(ar)
                                      : dfg::ar_three_way_cut(ar);
    in.specs.push_back(io::write_project_string(ar_project(
        cuts, std::vector<int>(cuts.size(), c.pins), {300.0, 10, 1})));
    in.projects.push_back(io::parse_project_string(in.specs.back()));
    core::ChopSession session = in.projects.back().make_session();
    session.predict_partitions();
    for (const auto& list : session.predictions().raw) {
      if (list.empty()) {
        throw Error("fig7_sweep: a partition has no predictions");
      }
    }
    std::string exhaustive;
    if (c.exhaustive) {
      core::CandidateEvaluator no_cache(0);
      core::SearchOptions options;
      options.prune = false;
      options.bound_pruning = false;
      options.evaluator = &no_cache;
      exhaustive = designs_json(session.search(options));
    }
    in.exhaustive.push_back(std::move(exhaustive));
  }
  return in;
}

struct OpOutcome {
  std::string digest;
  WorkCounts counts;
  bool matches_exhaustive = true;
};

/// One op; traced when `store` is set, which also turns on the library's
/// own spans for the op's length.
OpOutcome run_op(const Inputs& in, SpanStore* store,
                 obs::PhaseProfile* profile) {
  const SinkScope sink(store);
  const OpScope op(store != nullptr);
  const CounterDelta delta(kCounters);
  OpOutcome out;
  std::string designs;
  for (std::size_t k = 0; k < in.projects.size(); ++k) {
    const io::Project& project = in.projects[k];
    // Held in an optional so its destruction, which frees the memo
    // cache, is timed inside the bench.session span too.
    std::optional<core::ChopSession> session;
    {
      obs::TraceSpan span("bench.session");
      session.emplace(project.make_session());
    }
    {
      obs::TraceSpan span("bench.predict");
      session->predict_partitions();
    }
    core::SearchOptions options;
    options.prune = false;
    options.profile = profile;
    core::SearchResult result;
    {
      obs::TraceSpan span("bench.search");
      result = session->search(options);
    }
    {
      obs::TraceSpan span("bench.check");
      const std::string set = designs_json(result);
      if (!in.exhaustive[k].empty() && set != in.exhaustive[k]) {
        out.matches_exhaustive = false;
      }
      designs += set + '\n';
    }
    out.counts["search.trials"] += result.trials;
    out.counts["search.bound_skipped_leaves"] += result.bound_skipped_leaves;
    out.counts["search.pruned_subtrees"] += result.pruned_subtrees;
    obs::TraceSpan span("bench.session");
    session.reset();
  }
  for (const auto& [name, value] : delta.delta()) out.counts[name] = value;
  out.digest = fnv_digest(designs);
  return out;
}

/// Mean cost of one bare integrate() over a fixed seeded sample of leaves
/// of the 3-partition configuration's raw (keep-all) space, in us.
double leaf_us(const io::Project& project) {
  core::ChopSession session = project.make_session();
  session.predict_partitions();
  const core::EvalContext ctx = session.make_eval_context();
  const auto& raw = session.predictions().raw;
  Rng rng(kLeafSampleSeed);
  std::vector<std::vector<const bad::DesignPrediction*>> sample;
  for (std::size_t n = 0; n < kLeafSample; ++n) {
    std::vector<const bad::DesignPrediction*> selection;
    for (const auto& list : raw) {
      selection.push_back(&list[rng.bounded(list.size())]);
    }
    sample.push_back(std::move(selection));
  }
  const Clock::time_point start = Clock::now();
  for (const auto& selection : sample) {
    (void)core::integrate(ctx, selection, core::combination_ii(selection));
  }
  return ms_since(start) * 1000.0 / static_cast<double>(sample.size());
}

}  // namespace

Report run_fig7_sweep(const RunConfig& config) {
  Report report;
  Timing timing;
  SpanStore store;

  const Inputs in = timed_setup(timing, set_up);
  (void)timed_setup(timing, set_up);

  if (config.write_expected) {
    const OpOutcome o = run_op(in, nullptr, nullptr);
    report.notes.push_back(
        expected_line("fig7_sweep", "-", o.digest, o.counts));
    return report;
  }

  const Expected expected = load_expected(config.data_dir, "fig7_sweep", "-");
  if (!expected.found) {
    report.notes.push_back("no expected digest for fig7_sweep in " +
                           config.data_dir + "/expected.txt");
  }

  // Untimed warm-up: one whole op. Besides lazy statics (metric handles,
  // scratch buffers), the first op grows the heap to the op's 345 MiB
  // peak, about 80k page faults and 10% more time than any later op,
  // which with four timed ops would move their median.
  if (!config.smoke) (void)run_op(in, nullptr, nullptr);

  const std::size_t ops =
      config.smoke ? 1 : op_count(config.seconds, kNominalOpsPerS);
  obs::PhaseProfile profile;
  WorkCounts first_counts;
  for (std::size_t i = 0; i < ops; ++i) {
    const bool traced = config.trace && (config.smoke || i % 2 == 1);
    const Clock::time_point start = Clock::now();
    const OpOutcome o =
        run_op(in, traced ? &store : nullptr, traced ? &profile : nullptr);
    (traced ? timing.traced_op_ms : timing.op_ms).push_back(ms_since(start));
    ++report.attempted;
    if (i == 0) first_counts = o.counts;
    const bool ok = expected.found && o.digest == expected.digest &&
                    o.matches_exhaustive && o.counts == first_counts;
    if (!ok) {
      ++report.failed;
      report.notes.push_back(
          "op " + std::to_string(i) + " FAILED: digest " + o.digest +
          (o.matches_exhaustive ? "" : ", differs from the exhaustive walk") +
          ", counts " + format_counts(o.counts));
    }
  }
  timing.op_phase_s = op_seconds(timing);
  (void)timed_setup(timing, set_up);
  (void)timed_setup(timing, set_up);

  report.notes.push_back("work counts per op: " + format_counts(first_counts));
  if (expected.found) {
    report.notes.push_back(format_counts(first_counts) == expected.counts
                               ? "work counts match the reference run"
                               : "work counts differ from the reference run: " +
                                     expected.counts);
  }

  if (!config.trace) {
    add_common_metrics(config, timing, store, report);
    return report;
  }

  std::map<std::string, double>& v = report.values;
  v["integration.leaf_us"] = leaf_us(in.projects.back());
  {
    const Clock::time_point start = Clock::now();
    for (const std::string& spec : in.specs) {
      (void)io::parse_project_string(spec);
    }
    v["io.parse_ms"] = ms_since(start) / static_cast<double>(in.specs.size());
  }
  add_common_metrics(config, timing, store, report);

  add_count_metrics(first_counts, 1.0, report);
  add_phase_metrics(profile.data(),
                    static_cast<double>(timing.traced_op_ms.size()), report);
  v["search.search_ms"] = v["total.bench.search_ms"];
  v["bad.predict_ms"] = v["total.bench.predict_ms"];
  return report;
}

}  // namespace perfbench
