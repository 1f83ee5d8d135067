// generate_1k: one gen::generate_partitions() call per op, single-threaded,
// on a seeded 1k-operation random layered DAG (bench_generate's family:
// depth 20, width 16) onto four oversized chips, with a small fixed
// portfolio (2 starts, budget 8). Nearly all of an op is BAD prediction
// of candidate cuts; the searches are small.
//
// The work of one generation varies about twofold between DAGs of this
// family (the number of BAD schedules follows the graph's shape), so a
// run cannot draw one DAG per seed and stay comparable across seeds.
// Instead every run generates on the same two DAGs (random_dag seeds 7001
// and 7002, about 15.5k and 25.8k BAD schedules per op), one op each per
// round, starting at input (seed mod 2). Their frontier digests are
// stored in expected.txt.
//
// Set-up also scores each input's plain level-order cut (predict plus the
// same search the generator scores with); every design of that baseline
// must be dominated or equalled by a point of every op's frontier, since
// the portfolio's first start evaluates exactly that cut. A run makes at
// least two rounds, so each input's work counts are checked to repeat.
#include <algorithm>
#include <cmath>

#include "baseline/partition_builders.hpp"
#include "common.hpp"
#include "dfg/generator.hpp"
#include "gen/coarsen.hpp"
#include "gen/generate.hpp"
#include "io/spec_writer.hpp"
#include "library/experiment_library.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace chop;

namespace {

/// An op takes about 6.5 s on input 0 and 11 s on input 1 on a 4-CPU x86
/// container (Release build).
constexpr double kNominalOpsPerS = 1.0 / 9.0;
constexpr std::uint64_t kInputs = 2;
constexpr std::size_t kChips = 4;
constexpr int kStarts = 2;
constexpr std::size_t kBudget = 8;
constexpr int kProbeReps = 3;

const std::vector<const char*> kCounters = {
    "bad.schedules",       "bad.predictions_raw", "bad.predictions_eligible",
    "integration.attempts", "search.trials",       "eval.delta_predict_reused",
    "eval.cache_hits",      "eval.cache_misses",
};

/// A package big enough that 250-operation partitions stay feasible (the
/// paper's MOSIS dies cap out near a hundred operations).
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

/// Input `input` as a complete project: the DAG, the experiment library,
/// four oversized chips, a level-order 4-way cut and loose budgets.
io::Project make_project(std::uint64_t input) {
  Rng rng(7001 + input);
  dfg::RandomDagSpec spec;
  spec.operations = 1000;
  spec.depth = 20;
  spec.width = 16;
  spec.extra_inputs = 8;
  const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
  io::Project project;
  project.graph = bg.graph;
  project.library = lib::dac91_experiment_library();
  const auto cuts =
      baseline::level_order_partition(bg.graph, bg.all_operations(),
                                      static_cast<int>(kChips));
  for (std::size_t p = 0; p < kChips; ++p) {
    project.chips.push_back({numbered("c", p), mega_package()});
    project.partitions.push_back(
        {numbered("P", p + 1), cuts[p], static_cast<int>(p)});
  }
  project.config.style.clocking = bad::ClockingStyle::SingleCycle;
  project.config.clocks = {300.0, 10, 1};
  project.config.constraints = {1.0e9, 2.0e9};
  return project;
}

struct Input {
  std::string spec;
  io::Project project;  ///< Its partitions are the level-order cut.
  /// The level-order cut's designs as (II, delay, area) points, computed
  /// the way the generator scores a cut.
  std::vector<gen::FrontierPoint> baseline;
};

std::vector<Input> set_up() {
  std::vector<Input> inputs(kInputs);
  for (std::uint64_t i = 0; i < kInputs; ++i) {
    Input& in = inputs[i];
    in.spec = io::write_project_string(make_project(i));
    in.project = io::parse_project_string(in.spec);
    core::ChopSession session = in.project.make_session();
    session.predict_partitions();
    const core::SearchOptions options = gen::GenerateOptions().search;
    for (const core::GlobalDesign& d : session.search(options).designs) {
      gen::FrontierPoint point;
      point.ii = d.integration.ii_main;
      point.delay = d.integration.system_delay_main;
      for (const StatVal& a : d.integration.chip_area) {
        point.area += a.likely();
      }
      in.baseline.push_back(point);
    }
  }
  return inputs;
}

struct OpOutcome {
  std::string digest;
  WorkCounts counts;
  bool covers_baseline = true;
};

/// One op; traced when `store` is set, which also turns on the library's
/// own spans for the op's length.
OpOutcome run_op(const Input& in, SpanStore* store,
                 obs::PhaseProfile* profile) {
  const SinkScope sink(store);
  const OpScope op(store != nullptr);
  const CounterDelta delta(kCounters);
  gen::GenerateOptions options;
  options.num_starts = kStarts;
  options.budget = kBudget;
  options.profile = profile;
  const io::Project& p = in.project;
  gen::GenerateResult result;
  {
    obs::TraceSpan span("bench.generate");
    result = gen::generate_partitions(p.graph, p.library, p.chips, p.memory,
                                      p.config, options);
  }
  OpOutcome out;
  {
    obs::TraceSpan span("bench.check");
    const serve::JsonValue rendered =
        serve::render_generate_result(result, p.graph);
    out.digest = fnv_digest(rendered.find("frontier")->dump() + '\n' +
                            rendered.find("partitions")->dump());
    out.covers_baseline = std::all_of(
        in.baseline.begin(), in.baseline.end(),
        [&result](const gen::FrontierPoint& b) {
          return std::any_of(result.frontier.begin(), result.frontier.end(),
                             [&b](const gen::FrontierPoint& f) {
                               return f.ii <= b.ii && f.delay <= b.delay &&
                                      f.area <= b.area;
                             });
        });
  }
  out.counts = delta.delta();
  out.counts["gen.evaluations"] = result.evaluations;
  out.counts["gen.gated"] = result.gated;
  out.counts["gen.starts_killed"] = result.starts_killed;
  return out;
}

/// Median wall time of `reps` calls of `fn`, in ms.
template <typename Fn>
double median_ms(int reps, Fn fn) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point start = Clock::now();
    fn();
    ms.push_back(ms_since(start));
  }
  return median(ms);
}

}  // namespace

Report run_generate_1k(const RunConfig& config) {
  Report report;
  Timing timing;
  SpanStore store;
  const std::vector<Input> inputs = timed_setup(timing, set_up);
  (void)timed_setup(timing, set_up);

  if (config.write_expected) {
    for (std::uint64_t i = 0; i < kInputs; ++i) {
      const OpOutcome o = run_op(inputs[i], nullptr, nullptr);
      report.notes.push_back(
          expected_line("generate_1k", std::to_string(i), o.digest, o.counts));
    }
    return report;
  }

  std::vector<Expected> expected;
  for (std::uint64_t i = 0; i < kInputs; ++i) {
    expected.push_back(
        load_expected(config.data_dir, "generate_1k", std::to_string(i)));
    if (!expected.back().found) {
      report.notes.push_back("no expected digest for generate_1k input " +
                             std::to_string(i) + " in " + config.data_dir +
                             "/expected.txt");
    }
  }

  // Untimed warm-up: one prediction of a level-order cut, so lazy statics
  // (metric handles, scratch buffers) are not charged to op 0.
  inputs.front().project.make_session().predict_partitions();

  // At least two rounds, so every input's work counts can repeat.
  const std::size_t rounds = static_cast<std::size_t>(std::max(
      2.0, std::round(config.seconds * kNominalOpsPerS / kInputs)));
  // A traced run makes every op twice, untraced then traced, because the
  // inputs differ in cost and trace_overhead must compare like with like.
  const std::size_t repeats = config.trace ? 2 : 1;
  const std::size_t ops = config.smoke ? 1 : rounds * kInputs * repeats;
  obs::PhaseProfile profile;
  std::vector<WorkCounts> counts(kInputs);
  WorkCounts total_counts;
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t input = (config.seed + i / repeats) % kInputs;
    const bool traced = config.trace && (config.smoke || i % 2 == 1);
    const Clock::time_point start = Clock::now();
    const OpOutcome o = run_op(inputs[input], traced ? &store : nullptr,
                               traced ? &profile : nullptr);
    (traced ? timing.traced_op_ms : timing.op_ms).push_back(ms_since(start));
    (void)timed_setup(timing, set_up);
    ++report.attempted;
    if (counts[input].empty()) counts[input] = o.counts;
    for (const auto& [name, value] : o.counts) total_counts[name] += value;
    if (!expected[input].found || o.digest != expected[input].digest ||
        !o.covers_baseline || o.counts != counts[input]) {
      ++report.failed;
      report.notes.push_back(
          "op " + std::to_string(i) + " (input " + std::to_string(input) +
          ") FAILED: digest " + o.digest +
          (o.covers_baseline ? "" : ", misses the level-order baseline") +
          ", counts " + format_counts(o.counts));
    }
  }
  timing.op_phase_s = op_seconds(timing);

  for (std::uint64_t i = 0; i < kInputs; ++i) {
    if (counts[i].empty()) continue;
    const std::string line = format_counts(counts[i]);
    report.notes.push_back("input " + std::to_string(i) +
                           " work counts per op: " + line);
    if (expected[i].found && line != expected[i].counts) {
      report.notes.push_back("input " + std::to_string(i) +
                             " work counts differ from the reference run: " +
                             expected[i].counts);
    }
  }

  if (!config.trace) {
    add_common_metrics(config, timing, store, report);
    return report;
  }

  // Direct layer probes, averaged over the inputs.
  std::map<std::string, double>& v = report.values;
  const auto mean_over_inputs = [&](auto fn) {
    double sum = 0.0;
    for (const Input& in : inputs) {
      sum += median_ms(kProbeReps, [&] { fn(in); });
    }
    return sum / static_cast<double>(inputs.size());
  };
  gen::CoarsenOptions coarsen;  // what generate_partitions passes for k=4
  coarsen.min_vertices = static_cast<int>(2 * kChips);
  v["gen.coarsen_ms"] = mean_over_inputs([&](const Input& in) {
    (void)gen::coarsen(in.project.graph,
                       in.project.graph.partitionable_operations(), coarsen);
  });
  // A fresh session per call: a reused one would skip the BAD runs of
  // partitions whose inputs did not change.
  v["bad.predict_ms"] = mean_over_inputs([](const Input& in) {
    (void)in.project.make_session().predict_partitions();
  });
  v["io.parse_ms"] = mean_over_inputs(
      [](const Input& in) { (void)io::parse_project_string(in.spec); });
  add_common_metrics(config, timing, store, report);
  add_count_metrics(total_counts, static_cast<double>(ops), report);
  add_phase_metrics(profile.data(),
                    static_cast<double>(timing.traced_op_ms.size()), report);
  v["gen.generate_ms"] = v["total.bench.generate_ms"];
  return report;
}

}  // namespace perfbench
