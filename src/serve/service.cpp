#include "serve/service.hpp"

#include <exception>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"

namespace chop::serve {

namespace {

obs::Counter& requests_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.requests");
  return c;
}

obs::Counter& protocol_errors_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("serve.protocol_errors");
  return c;
}

/// Reads a server-side spec file, enforcing the payload limit before the
/// bytes ever reach the parser.
std::string read_spec_file(const std::string& path,
                           const ProtocolLimits& limits) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw ProtocolError("spec_unreadable", "cannot open spec file: " + path);
  }
  std::ostringstream text;
  text << file.rdbuf();
  if (!file.good() && !file.eof()) {
    throw ProtocolError("spec_unreadable", "cannot read spec file: " + path);
  }
  std::string spec = std::move(text).str();
  if (spec.size() > limits.max_spec_bytes) {
    throw ProtocolError("payload_too_large",
                        "spec file exceeds " +
                            std::to_string(limits.max_spec_bytes) + " bytes");
  }
  return spec;
}

void put_timings(JsonValue& response, const JobView& view) {
  if (view.state == JobState::Queued) return;
  response.set("queue_wait_ms", JsonValue(view.queue_wait_ms));
  if (is_terminal(view.state)) response.set("run_ms", JsonValue(view.run_ms));
}

}  // namespace

Service::Service(ChopServer& server, ProtocolLimits limits)
    : server_(server), limits_(limits) {}

std::string Service::handle_line(const std::string& line) {
  requests_counter().add();
  obs::TraceSpan span("serve.request");
  try {
    const Request request = parse_request(line, limits_);
    return dispatch(request);
  } catch (const ProtocolError& e) {
    protocol_errors_counter().add();
    span.arg("error", e.code());
    return error_response(e.code(), e.what());
  } catch (const JsonError& e) {
    protocol_errors_counter().add();
    span.arg("error", "parse_error");
    return error_response("parse_error", e.what());
  } catch (const std::exception& e) {
    // Truly unexpected — still a structured response, never a crash.
    protocol_errors_counter().add();
    span.arg("error", "internal");
    return error_response("internal", e.what());
  } catch (...) {
    protocol_errors_counter().add();
    span.arg("error", "internal");
    return error_response("internal", "unknown error");
  }
}

std::string Service::dispatch(const Request& request) {
  switch (request.op) {
    case RequestOp::Submit:
    case RequestOp::Generate: return handle_submit(request);
    case RequestOp::Revise: return handle_revise(request);
    case RequestOp::Status: return handle_status(request);
    case RequestOp::Result: return handle_result(request);
    case RequestOp::Cancel: return handle_cancel(request);
    case RequestOp::Stats: return handle_stats();
    case RequestOp::Metrics: return handle_metrics(request);
    case RequestOp::Healthz: return handle_healthz();
    case RequestOp::Profile: return handle_profile(request);
    case RequestOp::Shutdown: return handle_shutdown(request);
  }
  return error_response("unknown_op", "unhandled op");
}

std::string Service::handle_submit(const Request& request) {
  std::string spec = request.spec;
  if (!request.spec_path.empty()) {
    spec = read_spec_file(request.spec_path, limits_);
  }

  io::Project project;
  try {
    project = io::parse_project_string(spec);
  } catch (const io::ParseError& e) {
    throw ProtocolError("invalid_spec", e.what());
  } catch (const Error& e) {
    throw ProtocolError("invalid_spec", e.what());
  }

  const SubmitOutcome outcome =
      server_.submit(std::move(project), request.options, request.id);
  switch (outcome.status) {
    case SubmitStatus::Accepted:
      break;
    case SubmitStatus::Overloaded:
      return error_response("overload", "queue full; retry later", request.id);
    case SubmitStatus::ShuttingDown:
      return error_response("shutting_down", "server is shutting down",
                            request.id);
    case SubmitStatus::DuplicateId:
      return error_response("duplicate_id",
                            "job id already exists: " + request.id, request.id);
  }

  JsonValue response;
  response.set("ok", JsonValue(true));
  response.set("op", JsonValue(std::string(
                         request.op == RequestOp::Generate ? "generate"
                                                           : "submit")));
  response.set("id", JsonValue(outcome.id));
  response.set("state", JsonValue(std::string(to_string(JobState::Queued))));
  response.set("trace", JsonValue(obs::trace_id_hex(outcome.trace_id)));
  return response.dump();
}

std::string Service::handle_revise(const Request& request) {
  const ReviseOutcome outcome =
      server_.revise(request.id, request.delta, request.new_id);
  switch (outcome.status) {
    case ReviseStatus::Accepted:
      break;
    case ReviseStatus::NotFound:
      return error_response("not_found", "no such job: " + request.id,
                            request.id);
    case ReviseStatus::NotDone:
      return error_response("invalid_request",
                            "base job is not done: " + request.id, request.id);
    case ReviseStatus::Overloaded:
      return error_response("overload", "queue full; retry later", request.id);
    case ReviseStatus::ShuttingDown:
      return error_response("shutting_down", "server is shutting down",
                            request.id);
    case ReviseStatus::DuplicateId:
      return error_response("duplicate_id",
                            "job id already exists: " + request.new_id,
                            request.new_id);
  }
  // "id" is the revised job, so the `--wait`-style result flow a client
  // already has for submit works unchanged; "base" echoes the origin.
  JsonValue response;
  response.set("ok", JsonValue(true));
  response.set("op", JsonValue(std::string("revise")));
  response.set("id", JsonValue(outcome.submit.id));
  response.set("base", JsonValue(request.id));
  response.set("state", JsonValue(std::string(to_string(JobState::Queued))));
  response.set("trace", JsonValue(obs::trace_id_hex(outcome.submit.trace_id)));
  return response.dump();
}

std::string Service::handle_status(const Request& request) {
  const JobView view = server_.view(request.id);
  if (!view.found) {
    return error_response("not_found", "no such job: " + request.id,
                          request.id);
  }
  JsonValue response;
  response.set("ok", JsonValue(true));
  response.set("op", JsonValue(std::string("status")));
  response.set("id", JsonValue(view.id));
  response.set("state", JsonValue(std::string(to_string(view.state))));
  if (view.state == JobState::Done) {
    response.set("designs", JsonValue(static_cast<double>(view.designs)));
  }
  if (view.state == JobState::Failed) {
    response.set("message", JsonValue(view.error));
  }
  put_timings(response, view);
  response.set("trace", JsonValue(obs::trace_id_hex(view.trace_id)));
  return response.dump();
}

std::string Service::handle_result(const Request& request) {
  const JobView view = server_.view(request.id, request.wait);
  if (!view.found) {
    return error_response("not_found", "no such job: " + request.id,
                          request.id);
  }
  if (!is_terminal(view.state)) {
    const char* message = request.wait
                              ? "job did not reach a terminal state in time"
                              : "job is not terminal yet; poll or use wait";
    return error_response("timeout", message, request.id);
  }
  if (view.state == JobState::Failed) {
    JsonValue response;
    response.set("ok", JsonValue(false));
    response.set("op", JsonValue(std::string("result")));
    response.set("id", JsonValue(view.id));
    response.set("state", JsonValue(std::string(to_string(view.state))));
    JsonValue error;
    error.set("code", JsonValue(std::string("job_failed")));
    error.set("message", JsonValue(view.error));
    response.set("error", std::move(error));
    return response.dump();
  }

  // The `search` fragment is spliced in verbatim — re-parsing and
  // re-dumping could only risk the byte identity the tests assert.
  std::string body = "{\"ok\":true,\"op\":\"result\",\"id\":";
  body += json_quote(view.id);
  body += ",\"state\":\"";
  body += to_string(view.state);
  body += "\"";
  if (!view.result_json.empty()) {
    body += ",\"search\":";
    body += view.result_json;
    body += ",\"predictions\":{\"total\":";
    body += json_number(static_cast<double>(view.prediction_stats.total));
    body += ",\"feasible\":";
    body += json_number(static_cast<double>(view.prediction_stats.feasible));
    body += "}";
  }
  body += ",\"queue_wait_ms\":";
  body += json_number(view.queue_wait_ms);
  body += ",\"run_ms\":";
  body += json_number(view.run_ms);
  body += ",\"trace\":";
  body += json_quote(obs::trace_id_hex(view.trace_id));
  body += "}";
  return body;
}

std::string Service::handle_cancel(const Request& request) {
  const CancelOutcome outcome = server_.cancel(request.id);
  if (outcome == CancelOutcome::NotFound) {
    return error_response("not_found", "no such job: " + request.id,
                          request.id);
  }
  const char* label = "cancelling";
  switch (outcome) {
    case CancelOutcome::CancelledQueued: label = "cancelled_queued"; break;
    case CancelOutcome::CancellingRunning: label = "cancelling"; break;
    case CancelOutcome::AlreadyTerminal: label = "already_terminal"; break;
    case CancelOutcome::NotFound: break;  // handled above
  }
  JsonValue response;
  response.set("ok", JsonValue(true));
  response.set("op", JsonValue(std::string("cancel")));
  response.set("id", JsonValue(request.id));
  response.set("outcome", JsonValue(std::string(label)));
  response.set("trace",
               JsonValue(obs::trace_id_hex(server_.view(request.id).trace_id)));
  return response.dump();
}

std::string Service::handle_stats() {
  const ServerStats stats = server_.stats();
  JsonValue response;
  response.set("ok", JsonValue(true));
  response.set("op", JsonValue(std::string("stats")));
  response.set("workers", JsonValue(static_cast<double>(stats.workers)));

  JsonValue queue;
  queue.set("depth", JsonValue(static_cast<double>(stats.queue_depth)));
  queue.set("capacity", JsonValue(static_cast<double>(stats.queue_capacity)));
  response.set("queue", std::move(queue));

  JsonValue jobs;
  jobs.set("running", JsonValue(static_cast<double>(stats.running)));
  jobs.set("submitted", JsonValue(static_cast<double>(stats.submitted)));
  jobs.set("revised", JsonValue(static_cast<double>(stats.revised)));
  jobs.set("rejected_overload",
           JsonValue(static_cast<double>(stats.rejected_overload)));
  jobs.set("completed", JsonValue(static_cast<double>(stats.completed)));
  jobs.set("cancelled", JsonValue(static_cast<double>(stats.cancelled)));
  jobs.set("deadline_exceeded",
           JsonValue(static_cast<double>(stats.deadline_exceeded)));
  jobs.set("failed", JsonValue(static_cast<double>(stats.failed)));
  response.set("jobs", std::move(jobs));

  return response.dump();
}

std::string Service::handle_metrics(const Request& request) {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::global().snapshot();
  if (request.prometheus) {
    JsonValue response;
    response.set("ok", JsonValue(true));
    response.set("op", JsonValue(std::string("metrics")));
    response.set("format", JsonValue(std::string("prometheus")));
    response.set("text", JsonValue(obs::to_prometheus(snapshot)));
    return response.dump();
  }
  // The snapshot renders its own JSON; splice it in verbatim.
  std::string body = "{\"ok\":true,\"op\":\"metrics\",\"metrics\":";
  body += snapshot.to_json();
  body += "}";
  return body;
}

std::string Service::handle_healthz() {
  const ServerStats stats = server_.stats();
  const bool overloaded = stats.queue_depth >= stats.queue_capacity;
  JsonValue response;
  response.set("ok", JsonValue(true));
  response.set("op", JsonValue(std::string("healthz")));
  response.set("status", JsonValue(std::string(
                             !server_.accepting()  ? "shutting_down"
                             : overloaded          ? "overloaded"
                                                   : "ok")));
  response.set("uptime_ms",
               JsonValue(static_cast<double>(server_.uptime_ms())));
  response.set("workers", JsonValue(static_cast<double>(stats.workers)));
  response.set("workers_busy", JsonValue(static_cast<double>(stats.running)));
  response.set("queue_depth",
               JsonValue(static_cast<double>(stats.queue_depth)));
  response.set("queue_capacity",
               JsonValue(static_cast<double>(stats.queue_capacity)));
  response.set("accepting", JsonValue(server_.accepting()));
  response.set("overloaded", JsonValue(overloaded));
  return response.dump();
}

std::string Service::handle_profile(const Request& request) {
  obs::PhaseProfileData data;
  std::string trace;
  if (!request.id.empty()) {
    const JobView view = server_.view(request.id);
    if (!view.found) {
      return error_response("not_found", "no such job: " + request.id,
                            request.id);
    }
    data = view.profile;
    trace = obs::trace_id_hex(view.trace_id);
  } else {
    data = server_.total_profile();
  }
  std::string body = "{\"ok\":true,\"op\":\"profile\",\"scope\":";
  body += request.id.empty() ? "\"server\"" : json_quote(request.id);
  if (!trace.empty()) {
    body += ",\"trace\":";
    body += json_quote(trace);
  }
  body += ",\"profile\":";
  body += data.to_json();
  body += "}";
  return body;
}

std::string Service::handle_shutdown(const Request& request) {
  shutdown_requested_ = true;
  drain_ = request.drain;
  JsonValue response;
  response.set("ok", JsonValue(true));
  response.set("op", JsonValue(std::string("shutdown")));
  response.set("drain", JsonValue(request.drain));
  return response.dump();
}

std::size_t run_pipe_service(ChopServer& server, std::istream& in,
                             std::ostream& out, ProtocolLimits limits) {
  Service service(server, limits);
  std::size_t handled = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;  // blank lines are keep-alive no-ops
    out << service.handle_line(line) << "\n";
    out.flush();
    ++handled;
    if (service.shutdown_requested()) break;
  }
  server.shutdown(service.shutdown_requested() ? service.drain() : true);
  return handled;
}

}  // namespace chop::serve
