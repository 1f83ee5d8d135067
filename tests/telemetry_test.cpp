// Production-telemetry tests: end-to-end trace-id propagation through a
// served job (submit -> one connected span tree -> response echo), the
// metrics/healthz/profile protocol verbs, the Prometheus exposition
// round trip and lint, and DaemonTelemetry's flush-on-signal /
// finalize-on-any-exit guarantees.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "io/spec_writer.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/telemetry.hpp"
#include "testing/scenario.hpp"

namespace chop {
namespace {

testing::ScenarioKnobs small_knobs(std::uint64_t seed = 7) {
  testing::ScenarioKnobs knobs;
  knobs.seed = seed;
  knobs.normalize();
  return knobs;
}

std::string small_spec(std::uint64_t seed = 7) {
  return io::write_project_string(testing::build_scenario(small_knobs(seed)));
}

serve::JsonValue parse_ok(const std::string& response) {
  serve::JsonValue parsed = serve::JsonValue::parse(response);
  const serve::JsonValue* ok = parsed.find("ok");
  EXPECT_TRUE(ok != nullptr && ok->is_bool() && ok->as_bool())
      << "response not ok: " << response;
  return parsed;
}

std::string string_at(const serve::JsonValue& v, const char* key) {
  const serve::JsonValue* field = v.find(key);
  return field != nullptr && field->is_string() ? field->as_string() : "";
}

double number_at(const serve::JsonValue& v, const char* key) {
  const serve::JsonValue* field = v.find(key);
  return field != nullptr && field->is_number() ? field->as_number() : -1.0;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream text;
  text << is.rdbuf();
  return text.str();
}

/// Files created under the test's working directory, removed on scope
/// exit so reruns start clean.
struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

// --- trace propagation --------------------------------------------------

TEST(TelemetryTrace, JobFormsOneConnectedTree) {
  std::ostringstream trace_out;
  obs::JsonlTraceSink sink(trace_out);
  obs::install_trace_sink(&sink);

  std::string submit_trace;
  std::string result_trace;
  {
    serve::ServerOptions options;
    options.workers = 1;
    serve::ChopServer server(options);
    serve::Service service(server);

    serve::JsonValue submit_req;
    submit_req.set("op", serve::JsonValue(std::string("submit")));
    submit_req.set("id", serve::JsonValue(std::string("traced")));
    submit_req.set("spec", serve::JsonValue(small_spec()));
    const serve::JsonValue submitted =
        parse_ok(service.handle_line(submit_req.dump()));
    submit_trace = string_at(submitted, "trace");
    ASSERT_EQ(submit_trace.size(), 16u);
    ASSERT_NE(submit_trace, obs::trace_id_hex(0));

    const serve::JsonValue result = parse_ok(service.handle_line(
        R"({"op":"result","id":"traced","wait":true})"));
    result_trace = string_at(result, "trace");
    server.shutdown(true);
  }
  obs::install_trace_sink(nullptr);

  // The response echo: submit and result agree on the id.
  EXPECT_EQ(submit_trace, result_trace);

  // Every span of the job carries the trace id and parents chain back to
  // the serve.job root — one connected tree.
  std::set<long long> span_ids;
  std::vector<long long> parents;
  std::set<std::string> names;
  long long root_span = -1;
  std::istringstream lines(trace_out.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const serve::JsonValue event = serve::JsonValue::parse(line);
    const serve::JsonValue* args = event.find("args");
    if (args == nullptr || string_at(*args, "trace") != submit_trace) continue;
    const std::string name = string_at(event, "name");
    names.insert(name);
    const double span = number_at(*args, "span");
    const double parent = number_at(*args, "parent");
    if (span >= 0) span_ids.insert(static_cast<long long>(span));
    if (parent >= 0) parents.push_back(static_cast<long long>(parent));
    if (name == "serve.job") {
      root_span = static_cast<long long>(span);
      EXPECT_EQ(parent, 0.0) << "serve.job must be the root span";
    }
  }
  ASSERT_FALSE(span_ids.empty()) << "no spans carried the job's trace id";
  EXPECT_NE(root_span, -1) << "no serve.job root span in the trace";
  EXPECT_TRUE(names.count("serve.queue_wait"));
  EXPECT_TRUE(names.count("serve.render"));
  EXPECT_TRUE(names.count("search.iterative") ||
              names.count("search.enumeration"));
  for (long long parent : parents) {
    EXPECT_TRUE(parent == 0 || span_ids.count(parent) != 0)
        << "span parent " << parent << " is not a span of this trace";
  }
}

TEST(TelemetryTrace, DistinctJobsGetDistinctIds) {
  serve::ServerOptions options;
  options.workers = 1;
  serve::ChopServer server(options);
  serve::Service service(server);

  serve::JsonValue req;
  req.set("op", serve::JsonValue(std::string("submit")));
  req.set("spec", serve::JsonValue(small_spec()));
  const std::string first =
      string_at(parse_ok(service.handle_line(req.dump())), "trace");
  const std::string second =
      string_at(parse_ok(service.handle_line(req.dump())), "trace");
  EXPECT_EQ(first.size(), 16u);
  EXPECT_EQ(second.size(), 16u);
  EXPECT_NE(first, second);
  server.shutdown(true);
}

// --- live introspection verbs -------------------------------------------

TEST(TelemetryVerbs, HealthzMetricsProfileServeLiveData) {
  serve::ServerOptions options;
  options.workers = 2;
  serve::ChopServer server(options);
  serve::Service service(server);

  serve::JsonValue submit_req;
  submit_req.set("op", serve::JsonValue(std::string("submit")));
  submit_req.set("id", serve::JsonValue(std::string("live")));
  submit_req.set("spec", serve::JsonValue(small_spec()));
  parse_ok(service.handle_line(submit_req.dump()));
  parse_ok(service.handle_line(R"({"op":"result","id":"live","wait":true})"));

  // healthz: liveness fields present and sane.
  const serve::JsonValue health =
      parse_ok(service.handle_line(R"({"op":"healthz"})"));
  EXPECT_EQ(string_at(health, "status"), "ok");
  EXPECT_GE(number_at(health, "uptime_ms"), 0.0);
  EXPECT_EQ(number_at(health, "workers"), 2.0);
  EXPECT_GE(number_at(health, "queue_capacity"), 1.0);
  const serve::JsonValue* accepting = health.find("accepting");
  ASSERT_NE(accepting, nullptr);
  EXPECT_TRUE(accepting->as_bool());

  // metrics: the full registry snapshot with sketch quantiles.
  const serve::JsonValue metrics =
      parse_ok(service.handle_line(R"({"op":"metrics"})"));
  const serve::JsonValue* m = metrics.find("metrics");
  ASSERT_NE(m, nullptr);
  const serve::JsonValue* histograms = m->find("histograms");
  ASSERT_NE(histograms, nullptr);
  const serve::JsonValue* run_ms = histograms->find("serve.run_ms");
  ASSERT_NE(run_ms, nullptr) << "serve.run_ms histogram missing";
  EXPECT_GE(number_at(*run_ms, "count"), 1.0);
  EXPECT_GE(number_at(*run_ms, "p999"), number_at(*run_ms, "p50"));

  // profile: per-phase attribution, server-wide and per job.
  const serve::JsonValue profile =
      parse_ok(service.handle_line(R"({"op":"profile"})"));
  EXPECT_EQ(string_at(profile, "scope"), "server");
  const serve::JsonValue* data = profile.find("profile");
  ASSERT_NE(data, nullptr);
  EXPECT_GE(number_at(*data, "searches"), 1.0);
  const serve::JsonValue* phases = data->find("phases");
  ASSERT_NE(phases, nullptr);
  const serve::JsonValue* leaf = phases->find("leaf_eval");
  ASSERT_NE(leaf, nullptr);
  EXPECT_GE(number_at(*leaf, "calls"), 1.0);

  const serve::JsonValue per_job =
      parse_ok(service.handle_line(R"({"op":"profile","id":"live"})"));
  EXPECT_EQ(string_at(per_job, "scope"), "live");
  EXPECT_EQ(string_at(per_job, "trace").size(), 16u);
  const serve::JsonValue* job_data = per_job.find("profile");
  ASSERT_NE(job_data, nullptr);
  EXPECT_EQ(number_at(*job_data, "searches"), 1.0);
  // The job's BAD prediction is attributed too, not only its search.
  const serve::JsonValue* job_phases = job_data->find("phases");
  ASSERT_NE(job_phases, nullptr);
  const serve::JsonValue* predict = job_phases->find("predict");
  ASSERT_NE(predict, nullptr);
  EXPECT_EQ(number_at(*predict, "calls"), 1.0);

  const std::string missing =
      service.handle_line(R"({"op":"profile","id":"nope"})");
  EXPECT_NE(missing.find("not_found"), std::string::npos);

  server.shutdown(true);
}

TEST(TelemetryVerbs, PrometheusFormatLintsClean) {
  serve::ChopServer server;
  serve::Service service(server);
  const serve::JsonValue response = parse_ok(
      service.handle_line(R"({"op":"metrics","format":"prometheus"})"));
  const std::string text = string_at(response, "text");
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(obs::prometheus_lint(text), "");
  EXPECT_NE(text.find("# TYPE chop_serve_workers gauge"), std::string::npos)
      << text;
  server.shutdown(true);
}

TEST(TelemetryVerbs, RejectsUnknownFormatAndKeys) {
  serve::ChopServer server;
  serve::Service service(server);
  EXPECT_NE(service.handle_line(R"({"op":"metrics","format":"xml"})")
                .find("invalid_request"),
            std::string::npos);
  EXPECT_NE(service.handle_line(R"({"op":"healthz","id":"x"})")
                .find("invalid_request"),
            std::string::npos);
  server.shutdown(true);
}

// --- Prometheus round trip ----------------------------------------------

TEST(TelemetryPrometheus, RoundTripParsesBack) {
  obs::MetricsSnapshot snap;
  snap.counters["serve.submitted"] = 42;
  snap.gauges["serve.workers"] = 4.0;
  obs::MetricsSnapshot::HistogramStats h;
  h.count = 100;
  h.sum = 250.0;
  h.min = 0.5;
  h.max = 9.5;
  h.mean = 2.5;
  h.p50 = 2.0;
  h.p90 = 5.0;
  h.p95 = 6.0;
  h.p99 = 8.0;
  h.p999 = 9.0;
  snap.histograms["serve.e2e_ms"] = h;

  const std::string text = obs::to_prometheus(snap);
  EXPECT_EQ(obs::prometheus_lint(text), "");

  std::vector<obs::PromFamily> families;
  std::string error;
  ASSERT_TRUE(obs::parse_prometheus(text, &families, &error)) << error;
  ASSERT_EQ(families.size(), 3u);

  const obs::PromFamily* counter = nullptr;
  const obs::PromFamily* gauge = nullptr;
  const obs::PromFamily* summary = nullptr;
  for (const obs::PromFamily& family : families) {
    if (family.name == "chop_serve_submitted_total") counter = &family;
    if (family.name == "chop_serve_workers") gauge = &family;
    if (family.name == "chop_serve_e2e_ms") summary = &family;
  }
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->type, "counter");
  ASSERT_EQ(counter->samples.size(), 1u);
  EXPECT_EQ(counter->samples[0].value, 42.0);

  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->type, "gauge");
  ASSERT_EQ(gauge->samples.size(), 1u);
  EXPECT_EQ(gauge->samples[0].value, 4.0);

  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->type, "summary");
  // 5 quantiles + _sum + _count.
  ASSERT_EQ(summary->samples.size(), 7u);
  double p999 = -1.0;
  double count = -1.0;
  for (const obs::PromSample& sample : summary->samples) {
    if (sample.labels == "quantile=\"0.999\"") p999 = sample.value;
    if (sample.name == "chop_serve_e2e_ms_count") count = sample.value;
  }
  EXPECT_EQ(p999, 9.0);
  EXPECT_EQ(count, 100.0);
}

TEST(TelemetryPrometheus, LintCatchesViolations) {
  // Orphan sample: no preceding # TYPE line.
  EXPECT_NE(obs::prometheus_lint("chop_orphan 1\n"), "");
  // Duplicate family.
  EXPECT_NE(obs::prometheus_lint("# TYPE chop_a counter\nchop_a 1\n"
                                 "# TYPE chop_a counter\nchop_a 2\n"),
            "");
  // Invalid metric name.
  EXPECT_NE(obs::prometheus_lint("# TYPE 9bad counter\n9bad 1\n"), "");
  // Unknown type.
  EXPECT_NE(obs::prometheus_lint("# TYPE chop_b wibble\nchop_b 1\n"), "");
  // A correct exposition passes.
  EXPECT_EQ(obs::prometheus_lint("# TYPE chop_ok gauge\nchop_ok 3.5\n"), "");
}

// --- daemon telemetry lifecycle -----------------------------------------

TEST(TelemetryDaemon, FlushDumpsWithoutClosingThenFinalizeCloses) {
  TempFile trace_file("telemetry_test_trace.json");
  TempFile metrics_file("telemetry_test_metrics.json");
  TempFile jsonl_file("telemetry_test_metrics.jsonl");
  TempFile prom_file("telemetry_test.prom");

  serve::TelemetryOptions options;
  options.trace_path = trace_file.path;
  options.metrics_path = metrics_file.path;
  options.metrics_jsonl_path = jsonl_file.path;
  options.prom_path = prom_file.path;
  options.interval = std::chrono::milliseconds(3600000);  // ticks on demand
  serve::DaemonTelemetry telemetry(options);
  std::string error;
  ASSERT_TRUE(telemetry.start(&error)) << error;

  obs::MetricsRegistry::global().counter("telemetry_test.events").add(5);
  { obs::TraceSpan span("telemetry_test.span"); }

  // The SIGUSR1 path (via the watcher, as the signal handler would). The
  // wait is condition-variable driven; the timeout is a generous CI
  // ceiling, not a pacing knob.
  telemetry.request_flush();
  ASSERT_TRUE(telemetry.wait_for_flushes(1, std::chrono::seconds(30)))
      << "watcher never flushed";

  // Mid-run dump: trace bytes on disk, array NOT terminated, tracing
  // still live afterwards.
  std::string trace_text = slurp(trace_file.path);
  EXPECT_NE(trace_text.find("telemetry_test.span"), std::string::npos);
  EXPECT_EQ(trace_text.find("\n]}\n"), std::string::npos)
      << "flush must not close the trace array";
  EXPECT_NE(slurp(metrics_file.path).find("telemetry_test.events"),
            std::string::npos);
  EXPECT_EQ(obs::prometheus_lint(slurp(prom_file.path)), "");
  EXPECT_NE(slurp(jsonl_file.path).find("\"ts_ms\""), std::string::npos);

  { obs::TraceSpan span("telemetry_test.after_flush"); }

  telemetry.finalize();
  telemetry.finalize();  // idempotent

  trace_text = slurp(trace_file.path);
  EXPECT_NE(trace_text.find("telemetry_test.after_flush"), std::string::npos);
  // Now a complete, parseable Chrome trace document.
  const serve::JsonValue doc = serve::JsonValue::parse(trace_text);
  const serve::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  EXPECT_GE(events->as_array().size(), 2u);
}

TEST(TelemetryDaemon, StartFailsOnUnwritablePaths) {
  serve::TelemetryOptions options;
  options.trace_path = "no_such_dir/telemetry_trace.json";
  serve::DaemonTelemetry telemetry(options);
  std::string error;
  EXPECT_FALSE(telemetry.start(&error));
  EXPECT_NE(error.find("trace"), std::string::npos);
}

TEST(TelemetryDaemon, ExporterTicksPeriodically) {
  TempFile jsonl_file("telemetry_test_ticks.jsonl");
  obs::ExporterOptions options;
  options.jsonl_path = jsonl_file.path;
  options.interval = std::chrono::milliseconds(20);
  obs::SnapshotExporter exporter(options);
  std::string error;
  ASSERT_TRUE(exporter.start(&error)) << error;
  EXPECT_TRUE(exporter.wait_for_ticks(2, std::chrono::seconds(30)))
      << "exporter never reached two periodic ticks";
  exporter.stop();
  EXPECT_GE(exporter.ticks(), 2u);

  std::istringstream lines(slurp(jsonl_file.path));
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const serve::JsonValue entry = serve::JsonValue::parse(line);
    EXPECT_NE(entry.find("ts_ms"), nullptr);
    EXPECT_NE(entry.find("metrics"), nullptr);
    ++parsed;
  }
  EXPECT_GE(parsed, 2u);
}

}  // namespace
}  // namespace chop
