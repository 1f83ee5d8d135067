// Shared pieces of the performance benchmark: run configuration, the
// traced run's span store, timing and statistics helpers, counter
// deltas, expected-output lookup, and the report every workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "io/spec_format.hpp"
#include "obs/phase_profile.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One benchmark invocation, as parsed from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  /// Smoke mode: one op, every check on, traced.
  bool smoke = false;
  /// Print the expected-output lines for every input of the workload
  /// instead of measuring (see expected.txt).
  bool write_expected = false;
  /// Directory of expected.txt (the benchmark's own directory).
  std::string data_dir;
  /// Directory the traced run writes its span file into.
  std::string out_dir;
};

double ms_since(Clock::time_point start);

/// Median / quantile (linear interpolation) of a sample; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// 64-bit FNV-1a of `text`, as 16 hex digits.
std::string fnv_digest(const std::string& text);

/// Number of ops a run makes: `seconds` at the workload's nominal op
/// rate, at least one. A fixed function of the arguments, never of the
/// clock, so a faster build does the same work in less time.
std::size_t op_count(int seconds, double nominal_ops_per_s);

/// `prefix` followed by the decimal `n` ("P" and 2 give "P2"). Built in
/// place because `"P" + std::to_string(n)` trips a GCC 12 -Wrestrict false
/// positive at -O3.
std::string numbered(const char* prefix, std::size_t n);

/// Reads a set of global obs::MetricsRegistry counters at construction;
/// delta() reports how far each moved since.
class CounterDelta {
 public:
  explicit CounterDelta(std::vector<const char*> names);
  std::map<std::string, std::uint64_t> delta() const;

 private:
  std::vector<const char*> names_;
  std::vector<std::uint64_t> base_;
};

/// Exact per-op work counts, keyed by metric name.
using WorkCounts = std::map<std::string, std::uint64_t>;
std::string format_counts(const WorkCounts& counts);

/// One line of expected.txt: the digest of an input's checked output and
/// the work counts recorded when the digest was taken.
struct Expected {
  bool found = false;
  std::string digest;
  std::string counts;  ///< format_counts() of the reference run.
};
Expected load_expected(const std::string& data_dir, const std::string& workload,
                       const std::string& input);
std::string expected_line(const std::string& workload, const std::string& input,
                          const std::string& digest, const WorkCounts& counts);

/// The AR lattice filter under the paper's experiment-1 configuration
/// (single-cycle, 30 us budgets) with clock family `clocks`, partitioned
/// by `cuts` with partition p ("P<p+1>") on chip p, whose MOSIS package
/// has `package_pins[p]` pins (64 or 84).
chop::io::Project ar_project(
    const std::vector<std::vector<chop::dfg::NodeId>>& cuts,
    const std::vector<int>& package_pins, const chop::bad::ClockSpec& clocks);

/// The traced run's span store: an obs::TraceSink that keeps every event
/// in memory until the run ends. The benchmark's spans around layer calls
/// ("bench.*") and the library's own spans are all obs::TraceSpans, and
/// each traced op is a trace of its own (OpScope), so every span carries
/// its op's trace id and its parent span in its arguments.
class SpanStore : public chop::obs::TraceSink {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_us = 0;
    std::uint64_t end_us = 0;
    std::uint64_t trace = 0;   ///< Trace id; 0 outside any trace.
    std::uint64_t id = 0;      ///< Span id, unique in the process.
    std::uint64_t parent = 0;  ///< Parent span id; 0 for a trace's root.
  };

  void event(const chop::obs::TraceEvent& e) override;

  /// Every recorded span, with its trace arguments parsed.
  std::vector<Span> spans() const;

  /// Counts trace `trace` as part of a traced op. A served job runs on a
  /// worker under a trace of its own, which the op's client adopts.
  void adopt(std::uint64_t trace);
  std::set<std::uint64_t> adopted() const;

  /// Writes every event as Chrome trace-event JSON; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<chop::obs::TraceEvent> events_;
  std::set<std::uint64_t> adopted_;
};

/// Installs `store` as the process trace sink for its lifetime, and so
/// turns every obs::TraceSpan on; does nothing for a null store.
class SinkScope {
 public:
  explicit SinkScope(SpanStore* store);
  SinkScope(const SinkScope&) = delete;
  SinkScope& operator=(const SinkScope&) = delete;
  ~SinkScope();

 private:
  bool installed_;
};

/// One traced op: a fresh trace on the calling thread with a root span
/// named "op", so every span the op opens on this thread joins its tree.
/// Does nothing unless `traced` and a sink is installed.
class OpScope {
 public:
  explicit OpScope(bool traced);

 private:
  std::optional<chop::obs::TraceContextScope> context_;
  // Declared after context_, so the span ends before the context goes.
  std::optional<chop::obs::TraceSpan> span_;
};

/// What a workload run hands back to main: the outcome counts, every
/// metric value it measured by name, and lines to print before the result.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> notes;
};

/// Timing shared by every workload: set-up repetitions, op latencies and
/// the wall time of the op phase.
struct Timing {
  std::vector<double> setup_s;
  std::vector<double> op_ms;         ///< Untraced ops.
  std::vector<double> traced_op_ms;  ///< Traced ops (traced run only).
  double op_phase_s = 0.0;
};

/// Runs `set_up` once, records its wall time in timing.setup_s, and
/// returns its result. Every workload sets up twice before its first op
/// and again later in the run (generate_1k after every op, fig7_sweep and
/// serve_mixed twice after the last), so the median setup_s samples the
/// machine across the whole run, not one moment.
template <typename Fn>
auto timed_setup(Timing& timing, Fn set_up) {
  const Clock::time_point start = Clock::now();
  auto result = set_up();
  timing.setup_s.push_back(ms_since(start) / 1000.0);
  return result;
}

/// Sum of the op latencies, in s: the op phase of a run whose ops run one
/// at a time.
double op_seconds(const Timing& timing);

/// Adds the end-to-end values and the trace-derived values common to
/// every workload (self times, attributed_fraction, trace_overhead,
/// op_p99_ms) to `report`, and writes the span file of a traced run.
void add_common_metrics(const RunConfig& config, const Timing& timing,
                        const SpanStore& store, Report& report);

/// Adds work counts, divided by `ops` to make them per op, to `report` and
/// derives the ratios defined on them (eval.hit_ratio, bad.eligible_ratio,
/// bad.schedules_per_eval, serve.evaluator_reuse_ratio).
void add_count_metrics(const WorkCounts& counts, double ops, Report& report);

/// Adds the search and generation phase times of `phases`, per op over
/// `ops` ops, as the search.*_ms and gen.*_ms per-layer metrics.
void add_phase_metrics(const chop::obs::PhaseProfileData& phases, double ops,
                       Report& report);

/// Metric names and units, in print order. The untraced run prints the
/// end-to-end list, the traced run the per-layer list; a per-layer metric
/// of a layer the workload does not exercise reads 0.
using MetricList = std::vector<std::pair<std::string, std::string>>;
const MetricList& end_to_end_metrics();
const MetricList& per_layer_metrics();

/// Runs one workload; implemented in the workload's own file.
Report run_fig7_sweep(const RunConfig& config);
Report run_generate_1k(const RunConfig& config);
Report run_serve_mixed(const RunConfig& config);

}  // namespace perfbench
