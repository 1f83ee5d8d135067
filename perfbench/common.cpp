#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "chip/mosis_packages.hpp"
#include "dfg/benchmarks.hpp"
#include "library/experiment_library.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using namespace chop;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fnv_digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << h;
  return out.str();
}

std::size_t op_count(int seconds, double nominal_ops_per_s) {
  const double n = std::round(seconds * nominal_ops_per_s);
  return n < 1.0 ? 1 : static_cast<std::size_t>(n);
}

std::string numbered(const char* prefix, std::size_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

namespace {

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

}  // namespace

CounterDelta::CounterDelta(std::vector<const char*> names)
    : names_(std::move(names)) {
  for (const char* name : names_) base_.push_back(counter(name));
}

std::map<std::string, std::uint64_t> CounterDelta::delta() const {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out[names_[i]] = counter(names_[i]) - base_[i];
  }
  return out;
}

std::string format_counts(const WorkCounts& counts) {
  std::string out;
  for (const auto& [name, value] : counts) {
    if (!out.empty()) out += ' ';
    out += name + '=' + std::to_string(value);
  }
  return out;
}

Expected load_expected(const std::string& data_dir, const std::string& workload,
                       const std::string& input) {
  std::ifstream in(data_dir + "/expected.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w, i;
    Expected e;
    fields >> w >> i >> e.digest;
    if (w != workload || i != input) continue;
    std::getline(fields >> std::ws, e.counts);
    e.found = true;
    return e;
  }
  return {};
}

std::string expected_line(const std::string& workload, const std::string& input,
                          const std::string& digest, const WorkCounts& counts) {
  return workload + ' ' + input + ' ' + digest + ' ' + format_counts(counts);
}

io::Project ar_project(const std::vector<std::vector<dfg::NodeId>>& cuts,
                       const std::vector<int>& package_pins,
                       const bad::ClockSpec& clocks) {
  io::Project project;
  project.graph = dfg::ar_lattice_filter().graph;
  project.library = lib::dac91_experiment_library();
  for (std::size_t p = 0; p < cuts.size(); ++p) {
    project.chips.push_back({numbered("chip", p),
                             package_pins[p] == 64 ? chip::mosis_package_64()
                                                   : chip::mosis_package_84()});
    project.partitions.push_back(
        {numbered("P", p + 1), cuts[p], static_cast<int>(p)});
  }
  project.config.style.clocking = bad::ClockingStyle::SingleCycle;
  project.config.clocks = clocks;
  project.config.constraints = {30000.0, 30000.0};
  return project;
}

// --- Spans ----------------------------------------------------------------

void SpanStore::event(const obs::TraceEvent& e) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(e);
}

namespace {

/// The number after `"key":` in `args`, searched from `from`; 0 if absent.
/// The trace arguments are the last ones an event carries, so a search
/// from the `"trace":` key cannot hit a caller-supplied argument.
std::uint64_t arg_after(const std::string& args, std::size_t from,
                        const char* key, int base) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = args.find(needle, from);
  if (at == std::string::npos) return 0;
  std::size_t pos = at + needle.size();
  if (pos < args.size() && args[pos] == '"') ++pos;
  return std::strtoull(args.c_str() + pos, nullptr, base);
}

}  // namespace

std::vector<SpanStore::Span> SpanStore::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.reserve(events_.size());
  for (const obs::TraceEvent& e : events_) {
    if (e.phase != 'X') continue;
    Span s;
    s.name = e.name;
    s.start_us = e.ts_us;
    s.end_us = e.ts_us + e.dur_us;
    const std::size_t at = e.args_json.rfind("\"trace\":");
    if (at != std::string::npos) {
      s.trace = arg_after(e.args_json, at, "trace", 16);
      s.id = arg_after(e.args_json, at, "span", 10);
      s.parent = arg_after(e.args_json, at, "parent", 10);
    }
    out.push_back(std::move(s));
  }
  return out;
}

void SpanStore::adopt(std::uint64_t trace) {
  std::lock_guard<std::mutex> lock(mu_);
  adopted_.insert(trace);
}

std::set<std::uint64_t> SpanStore::adopted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return adopted_;
}

bool SpanStore::write(const std::string& path) const {
  std::ofstream out(path);
  {
    obs::ChromeTraceSink sink(out);
    std::lock_guard<std::mutex> lock(mu_);
    for (const obs::TraceEvent& e : events_) sink.event(e);
  }
  return out.good();
}

SinkScope::SinkScope(SpanStore* store) : installed_(store != nullptr) {
  if (installed_) obs::install_trace_sink(store);
}

SinkScope::~SinkScope() {
  if (installed_) obs::install_trace_sink(nullptr);
}

OpScope::OpScope(bool traced) {
  if (!traced || !obs::trace_enabled()) return;
  context_.emplace(obs::TraceContext{obs::next_trace_id(), 0});
  span_.emplace("op");
}

namespace {

/// Per span name, the time its spans cover and their self time (duration
/// minus the time child spans cover), summed, in ms; plus the time of the
/// ops' root spans and the share of it that child spans cover. Only spans
/// of an op's trace or of a trace an op adopted count: untraced ops'
/// served jobs and direct layer probes stay out.
struct TraceSummary {
  std::map<std::string, double> total_ms;
  std::map<std::string, double> self_ms;
  double op_ms = 0.0;
  double covered_ms = 0.0;
};

TraceSummary summarize(const std::vector<SpanStore::Span>& spans,
                       std::set<std::uint64_t> traces) {
  std::map<std::uint64_t, double> child_ms;  // by parent span id
  for (const SpanStore::Span& s : spans) {
    if (s.trace != 0 && s.parent == 0 && s.name == "op") {
      traces.insert(s.trace);
    }
    if (s.parent != 0) {
      child_ms[s.parent] += static_cast<double>(s.end_us - s.start_us) / 1e3;
    }
  }
  TraceSummary summary;
  for (const SpanStore::Span& s : spans) {
    if (!traces.count(s.trace)) continue;
    const double ms = static_cast<double>(s.end_us - s.start_us) / 1e3;
    const auto child = child_ms.find(s.id);
    const double covered = child == child_ms.end() ? 0.0 : child->second;
    summary.total_ms[s.name] += ms;
    summary.self_ms[s.name] += ms - covered;
    if (s.parent == 0 && s.name == "op") {
      summary.op_ms += ms;
      summary.covered_ms += covered;
    }
  }
  return summary;
}

}  // namespace

// --- Metrics --------------------------------------------------------------

const MetricList& end_to_end_metrics() {
  static const MetricList list = {
      {"setup_s", "s"},
      {"op_p50_ms", "ms"},
      {"ops_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return list;
}

const MetricList& per_layer_metrics() {
  static const MetricList list = {
      // core.search
      {"search.search_ms", "ms"},
      {"search.trials", "count"},
      {"search.bound_skipped_leaves", "count"},
      {"search.pruned_subtrees", "count"},
      {"search.bound_tables_ms", "ms"},
      {"search.seed_probes_ms", "ms"},
      {"search.merge_ms", "ms"},
      {"search.frontier_sync_ms", "ms"},
      // core.integration
      {"integration.attempts", "count"},
      {"integration.leaf_us", "us"},
      {"search.leaf_eval_ms", "ms"},
      // core.eval
      {"eval.cache_hits", "count"},
      {"eval.cache_misses", "count"},
      {"eval.hit_ratio", "ratio"},
      {"search.cache_wait_ms", "ms"},
      {"eval.delta_core_hits", "count"},
      // bad
      {"bad.predict_ms", "ms"},
      {"bad.schedules", "count"},
      {"bad.predictions_raw", "count"},
      {"bad.predictions_eligible", "count"},
      {"bad.eligible_ratio", "ratio"},
      {"bad.schedules_per_eval", "count"},
      // gen
      {"gen.generate_ms", "ms"},
      {"gen.coarsen_ms", "ms"},
      {"gen.initial_ms", "ms"},
      {"gen.refine_ms", "ms"},
      {"gen.evaluations", "count"},
      {"gen.gated", "count"},
      {"gen.starts_killed", "count"},
      {"eval.delta_predict_reused", "count"},
      // io
      {"io.parse_ms", "ms"},
      // serve
      {"serve.request_parse_us", "us"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.run_ms", "ms"},
      {"serve.render_ms", "ms"},
      {"serve.evaluator_reuse", "count"},
      {"serve.evaluator_create", "count"},
      {"serve.evaluator_reuse_ratio", "ratio"},
      // self time per traced op of each span: the benchmark's own around
      // layer calls, then the library's
      {"self.op_ms", "ms"},
      {"self.bench.session_ms", "ms"},
      {"self.bench.predict_ms", "ms"},
      {"self.bench.search_ms", "ms"},
      {"self.bench.generate_ms", "ms"},
      {"self.bench.submit_ms", "ms"},
      {"self.bench.revise_ms", "ms"},
      {"self.bench.result_ms", "ms"},
      {"self.bench.check_ms", "ms"},
      {"self.session.predict_ms", "ms"},
      {"self.session.predict.partition_ms", "ms"},
      {"self.bad.predict_ms", "ms"},
      {"self.session.search_ms", "ms"},
      {"self.search.bound_tables_ms", "ms"},
      {"self.search.enumeration_ms", "ms"},
      {"self.search.iterative_ms", "ms"},
      {"self.gen.generate_ms", "ms"},
      {"self.gen.start_ms", "ms"},
      {"self.gen.coarsen_ms", "ms"},
      {"self.serve.request_ms", "ms"},
      {"self.serve.job_ms", "ms"},
      {"self.serve.queue_wait_ms", "ms"},
      {"self.serve.evaluator_pool.acquire_ms", "ms"},
      {"self.serve.render_ms", "ms"},
      // whole-op
      {"op_p99_ms", "ms"},
      {"attributed_fraction", "ratio"},
      {"trace_overhead", "ratio"},
  };
  return list;
}

double op_seconds(const Timing& timing) {
  double ms = 0.0;
  for (const double t : timing.op_ms) ms += t;
  for (const double t : timing.traced_op_ms) ms += t;
  return ms / 1000.0;
}

void add_count_metrics(const WorkCounts& counts, double ops, Report& report) {
  std::map<std::string, double>& v = report.values;
  for (const auto& [name, value] : counts) {
    v[name] = static_cast<double>(value) / ops;
  }
  const auto ratio = [&v](const char* num, double den) {
    return den > 0.0 ? v[num] / den : 0.0;
  };
  v["eval.hit_ratio"] =
      ratio("eval.cache_hits", v["eval.cache_hits"] + v["eval.cache_misses"]);
  v["bad.eligible_ratio"] =
      ratio("bad.predictions_eligible", v["bad.predictions_raw"]);
  v["bad.schedules_per_eval"] = ratio("bad.schedules", v["gen.evaluations"]);
  v["serve.evaluator_reuse_ratio"] =
      ratio("serve.evaluator_reuse",
            v["serve.evaluator_reuse"] + v["serve.evaluator_create"]);
}

void add_phase_metrics(const obs::PhaseProfileData& phases, double ops,
                       Report& report) {
  const auto per_op_ms = [&](obs::SearchPhase p) {
    return static_cast<double>(phases.ns[static_cast<std::size_t>(p)]) / 1e6 /
           std::max(1.0, ops);
  };
  std::map<std::string, double>& v = report.values;
  v["search.bound_tables_ms"] = per_op_ms(obs::SearchPhase::kBoundTables);
  v["search.seed_probes_ms"] = per_op_ms(obs::SearchPhase::kSeedProbes);
  v["search.merge_ms"] = per_op_ms(obs::SearchPhase::kMerge);
  v["search.frontier_sync_ms"] = per_op_ms(obs::SearchPhase::kFrontierSync);
  v["search.leaf_eval_ms"] = per_op_ms(obs::SearchPhase::kLeafEval);
  v["search.cache_wait_ms"] = per_op_ms(obs::SearchPhase::kCacheWait);
  v["gen.initial_ms"] = per_op_ms(obs::SearchPhase::kGenInitial);
  v["gen.refine_ms"] = per_op_ms(obs::SearchPhase::kGenRefine);
}

void add_common_metrics(const RunConfig& config, const Timing& timing,
                        const SpanStore& store, Report& report) {
  std::map<std::string, double>& v = report.values;
  std::ostringstream times;
  times << std::fixed << std::setprecision(1) << "setup ms:";
  for (const double s : timing.setup_s) times << ' ' << s * 1000.0;
  times << "; op ms:";
  if (timing.op_ms.size() + timing.traced_op_ms.size() <= 16) {
    for (const double ms : timing.op_ms) times << ' ' << ms;
    if (!timing.traced_op_ms.empty()) times << "; traced op ms:";
    for (const double ms : timing.traced_op_ms) times << ' ' << ms;
  } else {
    times << " p25 " << quantile(timing.op_ms, 0.25) << " p50 "
          << quantile(timing.op_ms, 0.5) << " p75 "
          << quantile(timing.op_ms, 0.75);
  }
  report.notes.push_back(times.str());
  v["setup_s"] = median(timing.setup_s);
  v["op_p50_ms"] = median(timing.op_ms);
  v["ops_per_s"] =
      timing.op_phase_s > 0.0
          ? static_cast<double>(timing.op_ms.size() +
                                timing.traced_op_ms.size()) /
                timing.op_phase_s
          : 0.0;
  v["peak_rss_mb"] = peak_rss_mb();
  if (!config.trace) return;

  v["op_p99_ms"] = quantile(timing.op_ms, 0.99);
  const double untraced = median(timing.op_ms);
  v["trace_overhead"] =
      untraced > 0.0 ? median(timing.traced_op_ms) / untraced : 0.0;
  const TraceSummary summary = summarize(store.spans(), store.adopted());
  const double traced_ops =
      std::max<double>(1.0, static_cast<double>(timing.traced_op_ms.size()));
  for (const auto& [name, ms] : summary.self_ms) {
    v["self." + name + "_ms"] = ms / traced_ops;
  }
  for (const auto& [name, ms] : summary.total_ms) {
    v["total." + name + "_ms"] = ms / traced_ops;
  }
  v["attributed_fraction"] =
      summary.op_ms > 0.0 ? summary.covered_ms / summary.op_ms : 0.0;

  const std::string path = config.out_dir + "/perfbench-trace-" +
                           config.workload + "-" + std::to_string(config.seed) +
                           ".json";
  if (store.write(path)) {
    report.notes.push_back("trace written to " + path);
  } else {
    report.notes.push_back("could not write trace " + path);
  }
}

}  // namespace perfbench
