// chop_serve unit and integration tests: the JSON layer, the protocol
// validator, the bounded priority queue, and the ChopServer lifecycle —
// including the serving layer's central oracle, byte-identical results
// between a served job and a direct ChopSession run of the same project.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chip/mosis_packages.hpp"
#include "core/session.hpp"
#include "io/spec_writer.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "testing/scenario.hpp"

namespace chop {
namespace {

testing::ScenarioKnobs small_knobs(std::uint64_t seed = 7) {
  testing::ScenarioKnobs knobs;
  knobs.seed = seed;
  knobs.normalize();
  return knobs;
}

/// A scenario whose exhaustive keep-all enumeration takes long enough
/// that queue-backpressure tests can fill the queue behind it.
testing::ScenarioKnobs heavy_knobs() {
  testing::ScenarioKnobs knobs;
  knobs.seed = 11;
  knobs.operations = 40;
  knobs.depth = 6;
  knobs.chips = 3;
  knobs.partitions = 3;
  knobs.modules_per_op = 4;
  knobs.performance_ns = 300000;
  knobs.delay_ns = 300000;
  knobs.normalize();
  return knobs;
}

serve::JobOptions heavy_job_options() {
  serve::JobOptions options;
  options.heuristic = core::Heuristic::Enumeration;
  options.keep_all = true;  // exhaustive walk, no level-2 pruning
  options.max_trials = 200000;
  return options;
}

/// Replays exactly what ChopServer::run_job does, without a server: the
/// reference output a served job must match byte for byte. A non-null
/// `delta` is applied to the session first (the direct twin of a revise).
std::string direct_render(const io::Project& project,
                          const serve::JobOptions& job,
                          const core::EvalDelta* delta = nullptr) {
  core::ChopSession session = project.make_session();
  if (delta != nullptr) session.apply(*delta);
  session.predict_partitions();
  core::SearchOptions search;
  search.heuristic = job.heuristic;
  search.threads = job.threads;
  search.prune = !job.keep_all;
  search.bound_pruning = job.bound_pruning && !job.keep_all;
  search.max_trials = job.max_trials;
  if (job.keep_all && search.max_trials == 0) search.max_trials = 500000;
  return serve::render_search_result(session.search(search)).dump();
}

// --- JSON layer ---------------------------------------------------------

TEST(ServeJson, ParseDumpRoundTripIsStable) {
  const std::string doc =
      R"({"a":1,"b":-2.5,"c":"x\ny","d":[true,false,null],"e":{"k":3}})";
  const serve::JsonValue parsed = serve::JsonValue::parse(doc);
  const std::string once = parsed.dump();
  EXPECT_EQ(once, serve::JsonValue::parse(once).dump());
}

TEST(ServeJson, RejectsNonFiniteAndMalformed) {
  EXPECT_THROW(serve::JsonValue::parse("{\"a\":NaN}"), serve::JsonError);
  EXPECT_THROW(serve::JsonValue::parse("{\"a\":Infinity}"), serve::JsonError);
  EXPECT_THROW(serve::JsonValue::parse("{\"a\":1e999}"), serve::JsonError);
  EXPECT_THROW(serve::JsonValue::parse("{\"a\":1} trailing"),
               serve::JsonError);
  EXPECT_THROW(serve::JsonValue::parse("{\"a\":}"), serve::JsonError);
  EXPECT_THROW(serve::JsonValue::parse(""), serve::JsonError);
}

TEST(ServeJson, EnforcesDepthLimit) {
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 80; ++i) deep += "]";
  EXPECT_THROW(serve::JsonValue::parse(deep, 64), serve::JsonError);
  EXPECT_NO_THROW(serve::JsonValue::parse(deep, 128));
}

TEST(ServeJson, IntegersPrintWithoutDecimalPoint) {
  EXPECT_EQ(serve::json_number(42.0), "42");
  EXPECT_EQ(serve::json_number(-3.0), "-3");
  EXPECT_EQ(serve::JsonValue(7.0).dump(), "7");
}

// --- Protocol validation ------------------------------------------------

TEST(ServeProtocol, ParsesMinimalOps) {
  const serve::ProtocolLimits limits;
  EXPECT_EQ(serve::parse_request(R"({"op":"stats"})", limits).op,
            serve::RequestOp::Stats);
  const serve::Request cancel =
      serve::parse_request(R"({"op":"cancel","id":"j1"})", limits);
  EXPECT_EQ(cancel.op, serve::RequestOp::Cancel);
  EXPECT_EQ(cancel.id, "j1");
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  const serve::ProtocolLimits limits;
  const auto code = [&](const std::string& line) -> std::string {
    try {
      serve::parse_request(line, limits);
    } catch (const serve::ProtocolError& e) {
      return e.code();
    }
    return "";
  };
  EXPECT_EQ(code("not json"), "parse_error");
  EXPECT_EQ(code(R"({"op":"frobnicate"})"), "unknown_op");
  EXPECT_EQ(code(R"({"op":"stats","bogus":1})"), "invalid_request");
  EXPECT_EQ(code(R"({"op":"submit"})"), "invalid_request");  // no spec
  EXPECT_EQ(code(R"({"op":"submit","spec":"x","spec_path":"y"})"),
            "invalid_request");
  EXPECT_EQ(code(R"({"op":"submit","spec":"x","heuristic":"Q"})"),
            "invalid_request");
  EXPECT_EQ(code(R"({"op":"submit","spec":"x","threads":-1})"),
            "invalid_request");
  EXPECT_EQ(code(R"({"op":"submit","spec":"x","threads":257})"),
            "invalid_request");
  // threads:0 = server auto-detects one worker per hardware thread.
  EXPECT_EQ(code(R"({"op":"submit","spec":"x","threads":0})"), "");
  EXPECT_EQ(code(R"({"op":"status"})"), "invalid_request");  // no id
  EXPECT_EQ(code(R"({"op":"stats","op":"stats"})"), "invalid_request");
  // Clock multipliers are integers: a fractional one is rejected, not
  // truncated.
  EXPECT_EQ(code(R"({"op":"revise","id":"j1","delta":{"kind":"set_clock",)"
                 R"("main_clock_ns":100,"datapath_multiplier":2.5,)"
                 R"("transfer_multiplier":1}})"),
            "invalid_delta");
  EXPECT_EQ(code(R"({"op":"revise","id":"j1","delta":{"kind":"set_clock",)"
                 R"("main_clock_ns":100,"datapath_multiplier":2,)"
                 R"("transfer_multiplier":1.5}})"),
            "invalid_delta");
  serve::ProtocolLimits tight;
  tight.max_line_bytes = 8;
  EXPECT_EQ([&]() -> std::string {
    try {
      serve::parse_request(R"({"op":"stats"})", tight);
    } catch (const serve::ProtocolError& e) {
      return e.code();
    }
    return "";
  }(), "payload_too_large");
}

// --- Bounded priority queue ---------------------------------------------

std::shared_ptr<serve::Job> queue_job(const std::string& id, int priority) {
  auto job = std::make_shared<serve::Job>();
  job->id = id;
  job->options.priority = priority;
  return job;
}

TEST(ServeQueue, RejectsBeyondCapacity) {
  serve::JobQueue queue(2);
  EXPECT_EQ(queue.push(queue_job("a", 0)), serve::JobQueue::PushResult::Accepted);
  EXPECT_EQ(queue.push(queue_job("b", 0)), serve::JobQueue::PushResult::Accepted);
  EXPECT_EQ(queue.push(queue_job("c", 0)),
            serve::JobQueue::PushResult::Overloaded);
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(ServeQueue, PopsByPriorityThenFifo) {
  serve::JobQueue queue(8);
  queue.push(queue_job("low1", -1));
  queue.push(queue_job("mid1", 0));
  queue.push(queue_job("high", 5));
  queue.push(queue_job("mid2", 0));
  EXPECT_EQ(queue.pop()->id, "high");
  EXPECT_EQ(queue.pop()->id, "mid1");
  EXPECT_EQ(queue.pop()->id, "mid2");
  EXPECT_EQ(queue.pop()->id, "low1");
}

TEST(ServeQueue, RemoveAndDrainAndClose) {
  serve::JobQueue queue(8);
  queue.push(queue_job("a", 0));
  queue.push(queue_job("b", 1));
  ASSERT_NE(queue.remove("a"), nullptr);
  EXPECT_EQ(queue.remove("a"), nullptr);
  EXPECT_EQ(queue.depth(), 1u);
  const auto drained = queue.drain_now();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0]->id, "b");
  queue.close();
  EXPECT_EQ(queue.push(queue_job("c", 0)), serve::JobQueue::PushResult::Closed);
  EXPECT_EQ(queue.pop(), nullptr);  // closed + drained
}

// --- Server lifecycle ---------------------------------------------------

TEST(ServeServer, ServedResultIsByteIdenticalToDirectRun) {
  const io::Project project = testing::build_scenario(small_knobs());
  serve::JobOptions job;
  job.heuristic = core::Heuristic::Enumeration;
  const std::string expected = direct_render(project, job);

  serve::ServerOptions options;
  options.workers = 2;
  serve::ChopServer server(options);
  const serve::SubmitOutcome submitted = server.submit(project, job);
  ASSERT_EQ(submitted.status, serve::SubmitStatus::Accepted);
  const serve::JobView view = server.view(submitted.id, /*wait_terminal=*/true);
  ASSERT_TRUE(view.found);
  ASSERT_EQ(view.state, serve::JobState::Done);
  EXPECT_EQ(view.result_json, expected);
}

TEST(ServeServer, SharedCacheDoesNotChangeResults) {
  const io::Project project = testing::build_scenario(small_knobs(21));
  serve::JobOptions job;
  job.heuristic = core::Heuristic::Enumeration;
  const std::string expected = direct_render(project, job);

  // Four repeats of one project on concurrent workers: each job runs on
  // its own session's evaluator and renders the direct run's bytes.
  serve::ServerOptions options;
  options.workers = 2;
  serve::ChopServer server(options);
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    const serve::SubmitOutcome out = server.submit(project, job);
    ASSERT_EQ(out.status, serve::SubmitStatus::Accepted);
    ids.push_back(out.id);
  }
  for (const std::string& id : ids) {
    const serve::JobView view = server.view(id, /*wait_terminal=*/true);
    ASSERT_EQ(view.state, serve::JobState::Done);
    EXPECT_EQ(view.result_json, expected);
  }
}

TEST(ServeServer, DuplicateIdAndUnknownIdAreRejected) {
  const io::Project project = testing::build_scenario(small_knobs());
  serve::ChopServer server;
  ASSERT_EQ(server.submit(project, {}, "twin").status,
            serve::SubmitStatus::Accepted);
  EXPECT_EQ(server.submit(project, {}, "twin").status,
            serve::SubmitStatus::DuplicateId);
  EXPECT_FALSE(server.view("nope").found);
  EXPECT_EQ(server.cancel("nope"), serve::CancelOutcome::NotFound);
}

TEST(ServeServer, OverloadRejectsAndServerStaysHealthy) {
  const io::Project heavy = testing::build_scenario(heavy_knobs());
  serve::ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  serve::ChopServer server(options);

  std::vector<std::string> accepted;
  std::size_t overloaded = 0;
  for (int i = 0; i < 32; ++i) {
    const serve::SubmitOutcome out = server.submit(heavy, heavy_job_options());
    if (out.status == serve::SubmitStatus::Accepted) {
      accepted.push_back(out.id);
    } else {
      ASSERT_EQ(out.status, serve::SubmitStatus::Overloaded);
      ++overloaded;
    }
  }
  EXPECT_GT(overloaded, 0u);
  EXPECT_EQ(server.stats().rejected_overload, overloaded);

  // Cancel everything and drain: the server must come back clean.
  for (const std::string& id : accepted) server.cancel(id);
  server.shutdown(true);
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.completed + stats.cancelled + stats.deadline_exceeded +
                stats.failed,
            accepted.size());
}

TEST(ServeServer, CancelQueuedJobBehindHeavyHead) {
  const io::Project heavy = testing::build_scenario(heavy_knobs());
  const io::Project small = testing::build_scenario(small_knobs());
  serve::ServerOptions options;
  options.workers = 1;
  serve::ChopServer server(options);

  const serve::SubmitOutcome head = server.submit(heavy, heavy_job_options());
  ASSERT_EQ(head.status, serve::SubmitStatus::Accepted);
  const serve::SubmitOutcome queued = server.submit(small, {});
  ASSERT_EQ(queued.status, serve::SubmitStatus::Accepted);

  const serve::CancelOutcome outcome = server.cancel(queued.id);
  // The worker is busy with the heavy head, so the small job is still
  // queued; allow the (practically impossible) race to the running state.
  EXPECT_TRUE(outcome == serve::CancelOutcome::CancelledQueued ||
              outcome == serve::CancelOutcome::CancellingRunning);
  server.cancel(head.id);
  server.shutdown(true);
  EXPECT_EQ(server.view(queued.id).state, serve::JobState::Cancelled);
  const serve::JobView head_view = server.view(head.id);
  EXPECT_TRUE(head_view.state == serve::JobState::Cancelled ||
              head_view.state == serve::JobState::Done);
}

TEST(ServeServer, ShutdownDrainRunsEveryAcceptedJob) {
  const io::Project project = testing::build_scenario(small_knobs());
  serve::ServerOptions options;
  options.workers = 2;
  serve::ChopServer server(options);
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(server.submit(project, {}).id);
  }
  server.shutdown(true);
  for (const std::string& id : ids) {
    EXPECT_EQ(server.view(id).state, serve::JobState::Done);
  }
  EXPECT_EQ(server.submit(project, {}).status,
            serve::SubmitStatus::ShuttingDown);
  EXPECT_FALSE(server.accepting());
  server.shutdown(true);  // idempotent
}

TEST(ServeServer, AbortiveShutdownCancelsQueuedJobs) {
  const io::Project heavy = testing::build_scenario(heavy_knobs());
  serve::ServerOptions options;
  options.workers = 1;
  serve::ChopServer server(options);
  std::vector<std::string> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(server.submit(heavy, heavy_job_options()).id);
  }
  server.shutdown(false);
  std::size_t cancelled = 0;
  for (const std::string& id : ids) {
    const serve::JobView view = server.view(id);
    EXPECT_TRUE(is_terminal(view.state));
    if (view.state == serve::JobState::Cancelled) ++cancelled;
  }
  // The head job may complete or cancel depending on timing, but the
  // queued tail must have been cancelled without running.
  EXPECT_GE(cancelled, ids.size() - 1);
}

// --- Revise: served deltas against direct sessions ----------------------

/// An operation that can legally migrate from its partition to the next
/// one (the source keeps a member, the result validates), or kNoNode.
dfg::NodeId find_movable(const io::Project& project, int* dest_out) {
  const core::ChopSession session = project.make_session();
  const auto& partitions = session.partitioning().partitions();
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    if (partitions[p].members.size() < 2) continue;
    const int dest = static_cast<int>((p + 1) % partitions.size());
    for (const dfg::NodeId op : partitions[p].members) {
      core::Partitioning probe = session.partitioning();
      try {
        probe.move_operation(op, dest);
        probe.validate();
      } catch (const Error&) {
        continue;
      }
      *dest_out = dest;
      return op;
    }
  }
  return dfg::kNoNode;
}

/// The error code serve::apply_delta throws for `delta`, or "" if it
/// applies cleanly.
std::string delta_error(const io::Project& project,
                        const serve::DeltaSpec& delta) {
  try {
    (void)serve::apply_delta(project, delta);
  } catch (const serve::ProtocolError& e) {
    return e.code();
  }
  return "";
}

TEST(ServeRevise, EachKindMatchesDirectSessionWithTheCoreDelta) {
  const io::Project project = testing::build_scenario(small_knobs());
  ASSERT_GE(project.partitions.size(), 2u);
  ASSERT_GE(project.chips.size(), 2u);
  int dest = -1;
  const dfg::NodeId op = find_movable(project, &dest);
  ASSERT_NE(op, dfg::kNoNode);

  struct Case {
    std::string name;
    serve::DeltaSpec served;
    core::EvalDelta direct;
  };
  std::vector<Case> cases;
  {
    serve::DeltaSpec d;
    d.kind = serve::DeltaSpec::Kind::MoveOp;
    d.op_name = project.graph.node(op).name;
    d.partition = project.partitions[static_cast<std::size_t>(dest)].name;
    cases.push_back({"move_op", d, core::EvalDelta::move_operation(op, dest)});
  }
  {
    serve::DeltaSpec d;
    d.kind = serve::DeltaSpec::Kind::RetargetChip;
    d.partition = project.partitions[0].name;
    d.chip = project.chips[1].name;
    cases.push_back(
        {"retarget_chip", d, core::EvalDelta::move_partition_to_chip(0, 1)});
  }
  {
    serve::DeltaSpec d;
    d.kind = serve::DeltaSpec::Kind::ReplacePackage;
    d.chip = project.chips[0].name;
    d.package = "mosis64";
    cases.push_back({"replace_package", d,
                     core::EvalDelta::replace_chip_package(
                         0, chip::mosis_package_64())});
  }
  {
    serve::DeltaSpec d;
    d.kind = serve::DeltaSpec::Kind::SetClock;
    d.main_clock_ns = 330.0;
    d.datapath_multiplier = 10;
    d.transfer_multiplier = 2;
    const bad::ClockSpec clocks{330.0, 10, 2};
    cases.push_back({"set_clock", d,
                     core::EvalDelta::set_clocking(project.config.style,
                                                   clocks)});
  }
  {
    serve::DeltaSpec d;
    d.kind = serve::DeltaSpec::Kind::SetConstraints;
    d.performance_ns = 27000.0;
    core::DesignConstraints c = project.config.constraints;
    c.performance_ns = 27000.0;
    cases.push_back(
        {"set_constraints", d, core::EvalDelta::set_constraints(c)});
  }

  serve::JobOptions job;
  job.heuristic = core::Heuristic::Enumeration;
  serve::ChopServer server;
  const serve::SubmitOutcome base = server.submit(project, job, "base");
  ASSERT_EQ(base.status, serve::SubmitStatus::Accepted);
  ASSERT_EQ(server.view("base", /*wait_terminal=*/true).state,
            serve::JobState::Done);
  for (const Case& c : cases) {
    const serve::ReviseOutcome revised = server.revise("base", c.served);
    ASSERT_EQ(revised.status, serve::ReviseStatus::Accepted) << c.name;
    const serve::JobView view =
        server.view(revised.submit.id, /*wait_terminal=*/true);
    ASSERT_EQ(view.state, serve::JobState::Done) << c.name;
    EXPECT_EQ(view.result_json, direct_render(project, job, &c.direct))
        << c.name;
  }
}

TEST(ServeRevise, UnresolvableNamesAreNotFound) {
  const io::Project project = testing::build_scenario(small_knobs());
  serve::DeltaSpec move;
  move.kind = serve::DeltaSpec::Kind::MoveOp;
  move.op_name = "no_such_node";
  move.partition = project.partitions[0].name;
  EXPECT_EQ(delta_error(project, move), "not_found");

  move.op_name = project.graph.node(project.partitions[0].members[0]).name;
  move.partition = "no_such_partition";
  EXPECT_EQ(delta_error(project, move), "not_found");

  serve::DeltaSpec retarget;
  retarget.kind = serve::DeltaSpec::Kind::RetargetChip;
  retarget.partition = project.partitions[0].name;
  retarget.chip = "no_such_chip";
  EXPECT_EQ(delta_error(project, retarget), "not_found");

  serve::DeltaSpec package;
  package.kind = serve::DeltaSpec::Kind::ReplacePackage;
  package.chip = "no_such_chip";
  package.package = "mosis64";
  EXPECT_EQ(delta_error(project, package), "not_found");
}

TEST(ServeRevise, MovingTheLastOperationOutIsInvalid) {
  io::Project project = testing::build_scenario(small_knobs());
  ASSERT_GE(project.partitions.size(), 2u);
  // Shrink the first partition to one member; the rest go to the second.
  auto& first = project.partitions[0].members;
  auto& second = project.partitions[1].members;
  second.insert(second.end(), first.begin() + 1, first.end());
  first.resize(1);

  serve::DeltaSpec move;
  move.kind = serve::DeltaSpec::Kind::MoveOp;
  move.op_name = project.graph.node(first[0]).name;
  move.partition = project.partitions[1].name;
  EXPECT_EQ(delta_error(project, move), "invalid_delta");
}

TEST(ServeRevise, MovingAnInputNodeIsInvalid) {
  const io::Project project = testing::build_scenario(small_knobs());
  dfg::NodeId input = dfg::kNoNode;
  for (dfg::NodeId id = 0;
       id < static_cast<dfg::NodeId>(project.graph.node_count()); ++id) {
    if (project.graph.node(id).kind == dfg::OpKind::Input) {
      input = id;
      break;
    }
  }
  ASSERT_NE(input, dfg::kNoNode);
  serve::DeltaSpec move;
  move.kind = serve::DeltaSpec::Kind::MoveOp;
  move.op_name = project.graph.node(input).name;
  move.partition = project.partitions[0].name;
  EXPECT_EQ(delta_error(project, move), "invalid_delta");
}

// --- Service (NDJSON dispatch) ------------------------------------------

TEST(ServeService, SubmitStatusResultRoundTrip) {
  const io::Project project = testing::build_scenario(small_knobs());
  const std::string spec = io::write_project_string(project);
  serve::ChopServer server;
  serve::Service service(server);

  const std::string submit_response = service.handle_line(
      R"({"op":"submit","id":"r1","spec":)" + serve::json_quote(spec) + "}");
  EXPECT_NE(submit_response.find("\"ok\":true"), std::string::npos);

  const std::string result_response =
      service.handle_line(R"({"op":"result","id":"r1","wait":true})");
  EXPECT_NE(result_response.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(result_response.find("\"search\":"), std::string::npos);

  // The embedded search fragment is byte-identical to the direct run.
  serve::JobOptions defaults;
  const std::string expected = direct_render(project, defaults);
  EXPECT_NE(result_response.find("\"search\":" + expected),
            std::string::npos);

  const std::string stats_response = service.handle_line(R"({"op":"stats"})");
  EXPECT_NE(stats_response.find("\"ok\":true"), std::string::npos);
}

TEST(ServeService, MalformedLinesGetStructuredErrors) {
  serve::ChopServer server;
  serve::Service service(server);
  const auto expect_error = [&](const std::string& line,
                                const std::string& code) {
    const std::string response = service.handle_line(line);
    EXPECT_NE(response.find("\"ok\":false"), std::string::npos) << response;
    EXPECT_NE(response.find("\"code\":\"" + code + "\""), std::string::npos)
        << response;
  };
  expect_error("garbage", "parse_error");
  expect_error(R"({"op":"submit","spec":"not a chop file"})", "invalid_spec");
  expect_error(R"({"op":"submit","spec_path":"/does/not/exist.chop"})",
               "spec_unreadable");
  expect_error(R"({"op":"result","id":"ghost"})", "not_found");
  expect_error(R"({"op":"status"})", "invalid_request");
  expect_error(R"({"op":"launch_missiles"})", "unknown_op");
}

}  // namespace
}  // namespace chop
