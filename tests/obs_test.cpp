// Tests for the chop_obs observability layer: trace spans and sinks,
// metric counters/gauges/histograms, and the search-progress observer
// wired through core::SearchOptions. The Chrome trace output is validated
// by parsing it back with a minimal JSON reader.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "chip/mosis_packages.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "library/experiment_library.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"

namespace chop {
namespace {

// --- a minimal JSON reader, just enough to validate trace output ----------

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v;

  bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  const JsonObject& object() const { return std::get<JsonObject>(v); }
  const JsonArray& array() const { return std::get<JsonArray>(v); }
  double number() const { return std::get<double>(v); }
  const std::string& str() const { return std::get<std::string>(v); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  /// Parses the whole input; fails the test (via ok_) on any syntax error.
  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool literal(const char* word, JsonValue& out, JsonValue value) {
    const std::size_t n = std::string(word).size();
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    out = std::move(value);
    return true;
  }

  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': return string(out);
      case 't': return literal("true", out, JsonValue{true});
      case 'f': return literal("false", out, JsonValue{false});
      case 'n': return literal("null", out, JsonValue{nullptr});
      default: return number(out);
    }
  }

  bool object(JsonValue& out) {
    JsonObject obj;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      out = JsonValue{std::move(obj)};
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue key;
      if (pos_ >= s_.size() || s_[pos_] != '"' || !string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      JsonValue val;
      if (!value(val)) return false;
      obj[key.str()] = std::move(val);
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == '}') { ++pos_; break; }
      return false;
    }
    out = JsonValue{std::move(obj)};
    return true;
  }

  bool array(JsonValue& out) {
    JsonArray arr;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      out = JsonValue{std::move(arr)};
      return true;
    }
    while (true) {
      JsonValue val;
      if (!value(val)) return false;
      arr.push_back(std::move(val));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == ']') { ++pos_; break; }
      return false;
    }
    out = JsonValue{std::move(arr)};
    return true;
  }

  bool string(JsonValue& out) {
    ++pos_;  // '"'
    std::string str;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
          case '"': str += '"'; break;
          case '\\': str += '\\'; break;
          case 'n': str += '\n'; break;
          case 'r': str += '\r'; break;
          case 't': str += '\t'; break;
          case 'u':
            if (pos_ + 4 >= s_.size()) return false;
            pos_ += 4;  // keep escapes opaque; validity is what matters
            str += '?';
            break;
          default: return false;
        }
        ++pos_;
      } else {
        str += s_[pos_++];
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing '"'
    out = JsonValue{std::move(str)};
    return true;
  }

  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    try {
      out = JsonValue{std::stod(s_.substr(start, pos_ - start))};
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- tracing ---------------------------------------------------------------

/// Captures events in memory for assertions.
class RecordingSink : public obs::TraceSink {
 public:
  void event(const obs::TraceEvent& e) override { events.push_back(e); }
  std::vector<obs::TraceEvent> events;
};

/// Installs a sink for the test body and always uninstalls on scope exit,
/// so a failing assertion cannot leak a dangling sink into later tests.
class SinkGuard {
 public:
  explicit SinkGuard(obs::TraceSink* sink) { obs::install_trace_sink(sink); }
  ~SinkGuard() { obs::install_trace_sink(nullptr); }
};

TEST(Trace, DisabledSinkIsNoop) {
  ASSERT_FALSE(obs::trace_enabled());
  {
    obs::TraceSpan span("noop");
    span.arg("k", 1);
    obs::trace_instant("noop.instant");
  }
  // Installing a sink afterwards must not surface anything recorded
  // while disabled.
  RecordingSink sink;
  SinkGuard guard(&sink);
  EXPECT_TRUE(obs::trace_enabled());
  EXPECT_TRUE(sink.events.empty());
}

TEST(Trace, SpanNestingTimestampsContain) {
  RecordingSink sink;
  SinkGuard guard(&sink);
  {
    obs::TraceSpan outer("outer");
    {
      obs::TraceSpan inner("inner");
      inner.arg("depth", 2);
    }
  }
  ASSERT_EQ(sink.events.size(), 2u);
  // Complete events emit at destruction: inner first, then outer.
  const obs::TraceEvent& inner = sink.events[0];
  const obs::TraceEvent& outer = sink.events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.phase, 'X');
  EXPECT_EQ(outer.phase, 'X');
  // The inner interval lies within the outer interval.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
  EXPECT_EQ(inner.args_json, "\"depth\":2");
}

TEST(Trace, SpanDroppedWhenSinkUninstalledMidSpan) {
  RecordingSink sink;
  obs::install_trace_sink(&sink);
  obs::TraceSpan span("orphan");
  obs::install_trace_sink(nullptr);
  span.finish();
  EXPECT_TRUE(sink.events.empty());
}

TEST(Trace, ChromeTraceJsonParsesBack) {
  std::ostringstream os;
  {
    obs::ChromeTraceSink sink(os);
    SinkGuard guard(&sink);
    obs::TraceSpan a("alpha \"quoted\"\nname");
    a.arg("count", 3);
    a.arg("label", "x\"y");
    a.finish();
    obs::trace_instant("beta");
    sink.flush();
  }
  JsonValue root;
  ASSERT_TRUE(JsonParser(os.str()).parse(root)) << os.str();
  ASSERT_TRUE(root.is_object());
  const auto it = root.object().find("traceEvents");
  ASSERT_NE(it, root.object().end());
  ASSERT_TRUE(it->second.is_array());
  const JsonArray& events = it->second.array();
  ASSERT_EQ(events.size(), 2u);
  const JsonObject& alpha = events[0].object();
  EXPECT_EQ(alpha.at("name").str(), "alpha \"quoted\"\nname");
  EXPECT_EQ(alpha.at("ph").str(), "X");
  EXPECT_GE(alpha.at("dur").number(), 0.0);
  EXPECT_EQ(alpha.at("args").object().at("count").number(), 3.0);
  EXPECT_EQ(alpha.at("args").object().at("label").str(), "x\"y");
  EXPECT_EQ(events[1].object().at("ph").str(), "i");
}

TEST(Trace, JsonlSinkOneObjectPerLine) {
  std::ostringstream os;
  {
    obs::JsonlTraceSink sink(os);
    SinkGuard guard(&sink);
    obs::TraceSpan("first").finish();
    obs::trace_instant("second");
  }
  std::istringstream lines(os.str());
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    JsonValue v;
    ASSERT_TRUE(JsonParser(line).parse(v)) << line;
    ASSERT_TRUE(v.is_object());
    ++parsed;
  }
  EXPECT_EQ(parsed, 2);
}

// --- metrics ---------------------------------------------------------------

TEST(Metrics, CounterMath) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, HistogramMath) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  for (double v : {1.0, 2.0, 3.0, 4.0, 100.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 110.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 22.0);
  // Quantiles are bucket estimates: exact at the extremes, monotone and
  // within the observed range in between.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  double last = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 100.0);
    EXPECT_GE(v, last);
    last = v;
  }
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST(Metrics, HistogramHandlesNonPositiveSamples) {
  obs::Histogram h;
  h.observe(0.0);
  h.observe(-5.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), -5.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
}

TEST(Metrics, RegistryReferencesAreStableAcrossReset) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("test.counter");
  obs::Counter& again = registry.counter("test.counter");
  EXPECT_EQ(&c, &again);
  c.add(7);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);  // same object, zeroed
  c.add(1);
  EXPECT_EQ(registry.counter("test.counter").value(), 1u);
}

TEST(Metrics, SnapshotRendersJsonCsvTable) {
  obs::MetricsRegistry registry;
  registry.counter("a.count").add(3);
  registry.gauge("b.gauge").set(2.5);
  registry.histogram("c.hist_ms").observe(10.0);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("a.count"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("b.gauge"), 2.5);
  EXPECT_EQ(snap.histograms.at("c.hist_ms").count, 1u);

  // The JSON dump must parse back and contain every metric.
  JsonValue root;
  ASSERT_TRUE(JsonParser(snap.to_json()).parse(root)) << snap.to_json();
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.object().at("counters").object().at("a.count").number(), 3.0);
  EXPECT_EQ(root.object().at("gauges").object().at("b.gauge").number(), 2.5);
  const JsonObject& hist =
      root.object().at("histograms").object().at("c.hist_ms").object();
  EXPECT_EQ(hist.at("count").number(), 1.0);
  EXPECT_EQ(hist.at("min").number(), 10.0);

  // Table and CSV renderings carry one row per metric.
  const std::string table = snap.to_table();
  EXPECT_NE(table.find("a.count"), std::string::npos);
  EXPECT_NE(table.find("c.hist_ms"), std::string::npos);
  std::ostringstream csv;
  snap.to_csv().write(csv);
  EXPECT_NE(csv.str().find("b.gauge"), std::string::npos);
}

// --- search-progress observer ----------------------------------------------

/// Builds a ready-to-search 2-partition session on the AR filter
/// (experiment-1 configuration — a small, fully feasible space).
core::ChopSession small_session() {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  std::vector<chip::ChipInstance> chips{{"chip0", chip::mosis_package_84()},
                                        {"chip1", chip::mosis_package_84()}};
  core::Partitioning pt(ar.graph, std::move(chips));
  const auto cuts = dfg::ar_two_way_cut(ar);
  pt.add_partition("P1", cuts[0], 0);
  pt.add_partition("P2", cuts[1], 1);
  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  return core::ChopSession(lib, std::move(pt), config);
}

/// Counts every callback and checks per-trial invariants.
class CountingObserver : public obs::SearchObserver {
 public:
  void on_trial(const obs::SearchProgress& p) override {
    ++trials_seen;
    EXPECT_EQ(p.trials, trials_seen);  // every trial reported, in order
    if (p.trial_feasible) {
      ++feasible_seen;
      EXPECT_STREQ(p.reason, "");
    }
    EXPECT_EQ(p.feasible, feasible_seen);
    if (p.feasible > 0) {
      EXPECT_GE(p.best_ii, 0);
    }
    last_best_ii = p.best_ii;
  }
  void on_done(const obs::SearchProgress& p) override {
    ++done_calls;
    done_trials = p.trials;
    done_feasible = p.feasible;
  }

  std::size_t trials_seen = 0;
  std::size_t feasible_seen = 0;
  long long last_best_ii = -1;
  int done_calls = 0;
  std::size_t done_trials = 0;
  std::size_t done_feasible = 0;
};

TEST(SearchObserver, SeesEveryEnumerationTrial) {
  core::ChopSession session = small_session();
  session.predict_partitions();
  CountingObserver observer;
  core::SearchOptions options;
  options.heuristic = core::Heuristic::Enumeration;
  options.observer = &observer;
  const core::SearchResult result = session.search(options);
  EXPECT_GT(result.trials, 0u);
  EXPECT_EQ(observer.trials_seen, result.trials);
  EXPECT_EQ(observer.feasible_seen, result.feasible_raw);
  EXPECT_EQ(observer.done_calls, 1);
  EXPECT_EQ(observer.done_trials, result.trials);
  EXPECT_EQ(observer.done_feasible, result.feasible_raw);
  ASSERT_FALSE(result.designs.empty());
  EXPECT_EQ(observer.last_best_ii,
            result.designs.front().integration.ii_main);
}

TEST(SearchObserver, SeesEveryIterativeTrial) {
  core::ChopSession session = small_session();
  session.predict_partitions();
  CountingObserver observer;
  core::SearchOptions options;
  options.heuristic = core::Heuristic::Iterative;
  options.observer = &observer;
  const core::SearchResult result = session.search(options);
  EXPECT_GT(result.trials, 0u);
  EXPECT_EQ(observer.trials_seen, result.trials);
  EXPECT_EQ(observer.feasible_seen, result.feasible_raw);
  EXPECT_EQ(observer.done_calls, 1);
}

TEST(SearchMetrics, GlobalCountersTrackSearch) {
  obs::MetricsRegistry::global().reset();
  core::ChopSession session = small_session();
  const core::PredictionStats stats = session.predict_partitions();
  core::SearchOptions options;
  options.heuristic = core::Heuristic::Enumeration;
  const core::SearchResult result = session.search(options);

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.at("search.trials"), result.trials);
  EXPECT_EQ(snap.counters.at("search.feasible"), result.feasible_raw);
  EXPECT_EQ(snap.counters.at("search.pruned_inferior"),
            result.feasible_raw - result.designs.size());
  // Level-1 drops split by cause; together they account for every raw
  // prediction that did not survive.
  EXPECT_EQ(snap.counters.at("search.pruned_infeasible") +
                snap.counters.at("search.pruned_pareto"),
            stats.total - stats.feasible);
  EXPECT_EQ(snap.counters.at("bad.predictions_raw"), stats.total);
  EXPECT_EQ(snap.counters.at("bad.predictions_eligible"), stats.feasible);
  EXPECT_GE(snap.counters.at("integration.attempts"), result.trials);
  EXPECT_GT(snap.counters.at("integration.transfer_tasks"), 0u);
  EXPECT_EQ(snap.histograms.at("session.predict_ms").count, 1u);
  EXPECT_GT(snap.histograms.at("session.predict_ms").sum, 0.0);
}

TEST(SearchMetrics, GlobalCountersTrackBoundedSearch) {
  // The same accounting when level 1 runs inside BAD's sweep: a point the
  // sweep skips still counts as raw and as one level-1 drop.
  obs::MetricsRegistry::global().reset();
  core::ChopSession session = small_session();
  session.set_pruned_searches_only(true);
  const core::PredictionStats stats = session.predict_partitions();
  core::SearchOptions options;
  options.heuristic = core::Heuristic::Enumeration;
  const core::SearchResult result = session.search(options);

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_EQ(snap.counters.at("search.trials"), result.trials);
  EXPECT_EQ(snap.counters.at("search.feasible"), result.feasible_raw);
  EXPECT_EQ(snap.counters.at("search.pruned_infeasible") +
                snap.counters.at("search.pruned_pareto"),
            stats.total - stats.feasible);
  EXPECT_EQ(snap.counters.at("bad.predictions_raw"), stats.total);
  EXPECT_EQ(snap.counters.at("bad.predictions_eligible"), stats.feasible);
  EXPECT_EQ(snap.counters.at("bad.predictions_built") +
                snap.counters.at("bad.skipped_bound") +
                snap.counters.at("bad.skipped_dominated"),
            stats.total);
  EXPECT_LT(snap.counters.at("bad.predictions_built"), stats.total);
  EXPECT_GE(snap.counters.at("bad.predictions_built"), stats.feasible);
  EXPECT_EQ(snap.histograms.at("session.predict_ms").count, 1u);
}

TEST(ProgressPrinter, PrintsThrottledAndFinal) {
  std::ostringstream os;
  obs::ProgressPrinter printer(os, 2);
  obs::SearchProgress p;
  p.trials = 1;
  p.reason = "area";
  printer.on_trial(p);  // 1 % 2 != 0: suppressed
  EXPECT_TRUE(os.str().empty());
  p.trials = 2;
  printer.on_trial(p);
  EXPECT_NE(os.str().find("trials=2"), std::string::npos);
  EXPECT_NE(os.str().find("area"), std::string::npos);
  p.trials = 7;
  p.feasible = 3;
  p.best_ii = 30;
  p.best_delay = 67;
  p.trial_feasible = true;
  printer.on_done(p);
  EXPECT_NE(os.str().find("done"), std::string::npos);
  EXPECT_NE(os.str().find("best II=30"), std::string::npos);
}

}  // namespace
}  // namespace chop
