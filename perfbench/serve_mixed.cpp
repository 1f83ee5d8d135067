// serve_mixed: a closed loop of one client against an in-process
// ChopServer (one worker, one search thread), driven through
// Service::handle_line like a daemon's transport. One op is a `submit` or
// a `revise` followed by a blocking `result`. One client and one worker,
// not two of each: with two, the run's throughput followed other tenants'
// load on a shared 4-CPU VM about 2.5 times as strongly as single-threaded
// set-up did, and its spread across runs reached the 0.25 bound (see
// README.md). The seeded mix has three parts, in equal shares:
//   - cold submits: AR-filter projects outside the working set, each with
//     a different core fingerprint (cut, packages or clocking differ), so
//     the evaluator pool has no warm evaluator for them;
//   - repeat submits from a working set of 12 projects, more than the
//     pool's eight resident evaluators;
//   - revisions of the client's last submitted job with a set_constraints,
//     move_op or replace_package delta.
// The equal shares are an assumption: nothing records how chopd is used.
// Every result is byte-compared with render_search_result() of a direct
// ChopSession run of the same project (with the revision applied), the
// serving layer's correctness oracle, computed during set-up; the job's
// prediction and BAD schedule counts must equal the direct run's.
#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>

#include "baseline/partition_builders.hpp"
#include "common.hpp"
#include "core/clock_explorer.hpp"
#include "dfg/benchmarks.hpp"
#include "io/spec_writer.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace chop;

namespace {

/// The client completes 250 to 500 ops/s on a shared 4-vCPU x86 VM. A
/// 30 s run makes 4,500 ops, 10 to 20 s of op phase, which leaves the
/// longer fig7_sweep runs room in the time all runs together may take.
constexpr double kNominalOpsPerS = 150.0;
constexpr int kPackageSets = 3;
/// The op phase runs in this many chunks, and the throughput and median
/// latency reported are medians over chunks: a burst of load from outside
/// the process then moves a chunk or two, not the whole run's figure.
constexpr std::size_t kChunks = 10;

struct Delta {
  std::string json;  ///< The request's "delta" object.
  serve::DeltaSpec spec;
};

struct Project {
  std::string spec;         ///< .chop text.
  std::string submit_tail;  ///< Submit request after `{"op":"submit",`.
  io::Project parsed;
  int cut = 0;
  int package_set = 0;
  int clocking = 0;
  std::vector<Delta> deltas;
};

/// What a direct session run of one project (with one revision applied,
/// or none) renders and predicts.
struct Oracle {
  std::string search;  ///< render_search_result() fragment.
  core::PredictionStats prediction;
  std::uint64_t schedules = 0;  ///< bad.schedules the run added.
};

enum class OpKind { Cold, Repeat, Revise };

struct Op {
  OpKind kind = OpKind::Cold;
  int project = 0;  ///< Submitted project, or the revised job's project.
  int delta = -1;   ///< Revise: index into the project's deltas.
};

struct Inputs {
  std::vector<Project> projects;
  std::vector<Op> ops;
  /// Keyed by (project, delta or -1), for every project and revision of
  /// the universe, whichever the mix draws.
  std::map<std::pair<int, int>, Oracle> oracle;
};

Oracle run_direct(const io::Project& project) {
  const CounterDelta schedules({"bad.schedules"});
  core::ChopSession session = project.make_session();
  Oracle out;
  out.prediction = session.predict_partitions();
  core::SearchOptions options;
  options.heuristic = core::Heuristic::Enumeration;  // submit_tail's "E"
  out.search = serve::render_search_result(session.search(options)).dump();
  out.schedules = schedules.delta().at("bad.schedules");
  return out;
}

/// The fixed universe: 4 cuts x 3 package sets x 3 clockings, 36 projects
/// of the AR filter with pairwise distinct core fingerprints. The
/// clockings are the clock explorer's single-cycle (experiment-1 style)
/// default candidates at the paper's 300 ns main clock: datapath clock
/// multipliers 10, 5 and 2. Most jobs at 5 and 2 find no feasible design
/// and end in about a third of the time a job at 10 takes.
std::vector<Project> make_projects() {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const std::vector<std::vector<std::vector<dfg::NodeId>>> cuts = {
      dfg::ar_two_way_cut(ar),
      dfg::ar_three_way_cut(ar),
      baseline::level_order_partition(ar.graph, ar.all_operations(), 2),
      baseline::level_order_partition(ar.graph, ar.all_operations(), 3),
  };
  std::vector<core::ClockCandidate> clockings;
  for (const core::ClockCandidate& c : core::default_clock_candidates(300.0)) {
    if (c.style.clocking == bad::ClockingStyle::SingleCycle) {
      clockings.push_back(c);
    }
  }
  std::vector<Project> projects;
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    const std::size_t n = cuts[c].size();
    const std::vector<std::vector<int>> package_sets = {
        std::vector<int>(n, 84), std::vector<int>(n, 64),
        [n] {
          std::vector<int> mixed(n, 84);
          mixed[0] = 64;
          return mixed;
        }()};
    for (std::size_t s = 0; s < package_sets.size(); ++s) {
      const std::vector<int>& pins = package_sets[s];
      for (std::size_t k = 0; k < clockings.size(); ++k) {
        Project p;
        p.cut = static_cast<int>(c);
        p.package_set = static_cast<int>(s);
        p.clocking = static_cast<int>(k);
        io::Project project = ar_project(cuts[c], pins, clockings[k].clocks);
        project.config.style = clockings[k].style;
        p.spec = io::write_project_string(project);
        p.submit_tail = "\"heuristic\":\"E\",\"spec\":" +
                        serve::json_quote(p.spec) + "}";
        p.parsed = io::parse_project_string(p.spec);

        Delta tighten;
        tighten.json = R"({"kind":"set_constraints",)"
                       R"("performance_ns":20000,"delay_ns":25000})";
        tighten.spec.kind = serve::DeltaSpec::Kind::SetConstraints;
        tighten.spec.performance_ns = 20000.0;
        tighten.spec.delay_ns = 25000.0;
        p.deltas.push_back(tighten);

        // Move P1's last operation in topological order into P2: it has
        // no successor left in P1, so the partition order stays acyclic.
        const auto& p1 = p.parsed.partitions[0].members;
        dfg::NodeId last = dfg::kNoNode;
        for (const dfg::NodeId id : p.parsed.graph.topological_order()) {
          if (std::find(p1.begin(), p1.end(), id) != p1.end()) last = id;
        }
        const std::string& name = p.parsed.graph.node(last).name;
        if (p1.size() > 1 && !name.empty()) {
          Delta move;
          move.json = R"({"kind":"move_op","op":)" + serve::json_quote(name) +
                      R"(,"to":"P2"})";
          move.spec.kind = serve::DeltaSpec::Kind::MoveOp;
          move.spec.op_name = name;
          move.spec.partition = "P2";
          p.deltas.push_back(move);
        }

        const char* other = pins[0] == 64 ? "mosis84" : "mosis64";
        Delta repackage;
        repackage.json = std::string(R"({"kind":"replace_package",)"
                                     R"("chip":"chip0","package":")") +
                         other + "\"}";
        repackage.spec.kind = serve::DeltaSpec::Kind::ReplacePackage;
        repackage.spec.chip = "chip0";
        repackage.spec.package = other;
        p.deltas.push_back(repackage);
        projects.push_back(std::move(p));
      }
    }
  }
  return projects;
}

/// The seeded op sequence. It starts with a submit, so a revision always
/// has a finished job to revise.
std::vector<Op> make_mix(const std::vector<Project>& projects,
                                      std::uint64_t seed, std::size_t ops) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  // The working set: every (cut, clocking) pair once, on a seeded package
  // set. Covering each pair keeps the cost mix of the ops, and so the
  // latency distribution, alike across seeds.
  std::map<std::pair<int, int>, int> hot_package;
  for (const Project& p : projects) {
    if (!hot_package.count({p.cut, p.clocking})) {
      hot_package[{p.cut, p.clocking}] =
          static_cast<int>(rng.bounded(kPackageSets));
    }
  }
  std::vector<int> hot;
  std::vector<int> cold;
  for (std::size_t i = 0; i < projects.size(); ++i) {
    const Project& p = projects[i];
    const bool in_set = p.package_set == hot_package.at({p.cut, p.clocking});
    (in_set ? hot : cold).push_back(static_cast<int>(i));
  }
  for (std::size_t i = cold.size(); i > 1; --i) {
    std::swap(cold[i - 1], cold[rng.bounded(i)]);
  }

  std::vector<Op> mix;
  int last_submit = -1;
  std::size_t next_cold = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    const std::uint64_t roll = rng.bounded(3);  // revise, cold, repeat
    Op op;
    if (roll == 0 && last_submit >= 0) {
      op.kind = OpKind::Revise;
      op.project = last_submit;
      op.delta = static_cast<int>(rng.bounded(
          projects[static_cast<std::size_t>(op.project)].deltas.size()));
    } else if (roll <= 1) {
      op.kind = OpKind::Cold;
      op.project = cold[next_cold++ % cold.size()];
    } else {
      op.kind = OpKind::Repeat;
      op.project = hot[rng.bounded(hot.size())];
    }
    if (op.kind != OpKind::Revise) last_submit = op.project;
    mix.push_back(op);
  }
  return mix;
}

/// Builds the universe and the mix, and runs the oracle on every project
/// and revision of the universe, so set-up does the same work whatever
/// the seed.
Inputs set_up(std::uint64_t seed, std::size_t ops) {
  Inputs in;
  in.projects = make_projects();
  in.ops = make_mix(in.projects, seed, ops);
  for (std::size_t i = 0; i < in.projects.size(); ++i) {
    const Project& p = in.projects[i];
    const int project = static_cast<int>(i);
    in.oracle[{project, -1}] = run_direct(p.parsed);
    for (std::size_t d = 0; d < p.deltas.size(); ++d) {
      in.oracle[{project, static_cast<int>(d)}] =
          run_direct(serve::apply_delta(p.parsed, p.deltas[d].spec));
    }
  }
  return in;
}

struct OpRecord {
  std::size_t chunk = 0;
  double ms = 0.0;
  bool traced = false;
  bool ok = false;
  std::string id;
};

/// The client's closed loop, in kChunks chunks of the ops; the end of
/// each chunk is stamped in `chunk_ends`. In a traced run every other op
/// is traced.
std::vector<OpRecord> run_client(serve::ChopServer& server, const Inputs& in,
                                 const RunConfig& config, SpanStore& store,
                                 std::vector<Clock::time_point>& chunk_ends) {
  serve::Service service(server);
  std::string last_submit;
  const std::vector<Op>& ops = in.ops;
  std::vector<OpRecord> records(ops.size());
  for (std::size_t k = 0; k < kChunks; ++k) {
    const std::size_t end = ops.size() * (k + 1) / kChunks;
    for (std::size_t i = ops.size() * k / kChunks; i < end; ++i) {
      const Op& op = ops[i];
      const Project& project =
          in.projects[static_cast<std::size_t>(op.project)];
      OpRecord& rec = records[i];
      rec.chunk = k;
      rec.traced = config.trace && (config.smoke || i % 2 == 1);
      rec.id = numbered("op", i);

      const CounterDelta schedules({"bad.schedules"});
      const Clock::time_point start = Clock::now();
      std::string first;
      std::string result;
      {
        const OpScope op_scope(rec.traced);
        if (op.kind == OpKind::Revise) {
          obs::TraceSpan span("bench.revise");
          first = service.handle_line(
              R"({"op":"revise","id":")" + last_submit + R"(","new_id":")" +
              rec.id + R"(","delta":)" +
              project.deltas[static_cast<std::size_t>(op.delta)].json + "}");
        } else {
          obs::TraceSpan span("bench.submit");
          first = service.handle_line(R"({"op":"submit","id":")" + rec.id +
                                      "\"," + project.submit_tail);
        }
        obs::TraceSpan span("bench.result");
        result = service.handle_line(R"({"op":"result","id":")" + rec.id +
                                     R"(","wait":true})");
      }
      rec.ms = ms_since(start);
      if (op.kind != OpKind::Revise) last_submit = rec.id;
      if (rec.traced) {
        // The job's worker-side spans: the response names its trace.
        const std::string key = "\"trace\":\"";
        const std::size_t at = first.find(key);
        if (at != std::string::npos) {
          store.adopt(std::strtoull(first.c_str() + at + key.size(), nullptr,
                                    16));
        }
      }

      const Oracle& oracle = in.oracle.at({op.project, op.delta});
      const core::PredictionStats got = server.view(rec.id).prediction_stats;
      const std::string key = "\"search\":";
      const std::size_t at = result.find(key);
      rec.ok = first.rfind(R"({"ok":true)", 0) == 0 &&
               result.rfind(R"({"ok":true)", 0) == 0 &&
               result.find(R"("state":"done")") != std::string::npos &&
               at != std::string::npos &&
               result.compare(at + key.size(), oracle.search.size(),
                              oracle.search) == 0 &&
               result[at + key.size() + oracle.search.size()] == ',' &&
               got.total == oracle.prediction.total &&
               got.feasible == oracle.prediction.feasible &&
               schedules.delta().at("bad.schedules") == oracle.schedules;
    }
    chunk_ends.push_back(Clock::now());
  }
  return records;
}

serve::ServerOptions server_options() {
  serve::ServerOptions options;
  options.workers = 1;
  options.search_threads = 1;
  return options;
}

}  // namespace

Report run_serve_mixed(const RunConfig& config) {
  Report report;
  if (config.write_expected) {
    report.notes.push_back(
        "serve_mixed has no stored digests: its oracle runs during set-up");
    return report;
  }
  const std::size_t ops =
      config.smoke ? 1 : op_count(config.seconds, kNominalOpsPerS);
  Timing timing;
  SpanStore store;
  // Set-up runs twice before the ops and twice after them, each time with
  // no server alive, so the median samples the machine at both ends of
  // the run under the same conditions.
  const auto set_up_run = [&] { return set_up(config.seed, ops); };
  const Inputs in = timed_setup(timing, set_up_run);
  (void)timed_setup(timing, set_up_run);

  // Untimed warm-up on a throwaway server, so lazy statics are not
  // charged to the first ops and the measured server starts cold.
  {
    serve::ChopServer warm(server_options());
    serve::Service service(warm);
    service.handle_line(R"({"op":"submit","id":"warm",)" +
                        in.projects.front().submit_tail);
    service.handle_line(R"({"op":"result","id":"warm","wait":true})");
  }

  const std::vector<const char*> counter_names = {
      "serve.evaluator_reuse", "serve.evaluator_create", "eval.cache_hits",
      "eval.cache_misses",     "eval.delta_core_hits",   "search.trials",
      "integration.attempts",  "bad.schedules",          "bad.predictions_raw",
      "bad.predictions_eligible"};
  std::optional<serve::ChopServer> server(std::in_place, server_options());
  const CounterDelta counters(counter_names);
  std::vector<OpRecord> records;
  std::vector<Clock::time_point> chunk_ends;
  const Clock::time_point phase_start = Clock::now();
  {
    // The whole op phase of a traced run has the sink installed: a job's
    // last spans end on the worker after its result is out, and would be
    // lost if the sink went with the op. The library's dozen spans per
    // job then cost untraced ops some microseconds too.
    const SinkScope sink(config.trace ? &store : nullptr);
    records = run_client(*server, in, config, store, chunk_ends);
  }
  timing.op_phase_s = ms_since(phase_start) / 1000.0;
  const WorkCounts run_counts = counters.delta();

  std::vector<double> queue_wait_ms;
  std::vector<double> run_ms;
  std::vector<std::vector<double>> chunk_op_ms(kChunks);
  std::vector<double> chunk_ops(kChunks, 0.0);
  for (const OpRecord& rec : records) {
    (rec.traced ? timing.traced_op_ms : timing.op_ms).push_back(rec.ms);
    if (!rec.traced) chunk_op_ms[rec.chunk].push_back(rec.ms);
    chunk_ops[rec.chunk] += 1.0;
    ++report.attempted;
    if (!rec.ok) {
      ++report.failed;
      report.notes.push_back("op " + rec.id + " FAILED: response or work "
                             "counts differ from the direct-session oracle");
    }
    const serve::JobView view = server->view(rec.id);
    queue_wait_ms.push_back(view.queue_wait_ms);
    run_ms.push_back(view.run_ms);
  }
  const obs::PhaseProfileData phases = server->total_profile();
  server->shutdown(true);
  server.reset();
  (void)timed_setup(timing, set_up_run);
  (void)timed_setup(timing, set_up_run);

  report.notes.push_back("work counts per run: " + format_counts(run_counts));
  const std::uint64_t jobs = run_counts.at("serve.evaluator_reuse") +
                             run_counts.at("serve.evaluator_create");
  if (jobs != report.attempted) {
    report.notes.push_back("evaluator pool saw " + std::to_string(jobs) +
                           " jobs, expected " +
                           std::to_string(report.attempted));
  }

  // Throughput and median latency per chunk, then the median over chunks
  // that ran ops (a smoke run has one op, so one chunk).
  std::vector<double> chunk_rate;
  std::vector<double> chunk_p50;
  Clock::time_point chunk_start = phase_start;
  for (std::size_t k = 0; k < kChunks; ++k) {
    const double s =
        std::chrono::duration<double>(chunk_ends[k] - chunk_start).count();
    chunk_start = chunk_ends[k];
    if (chunk_ops[k] == 0.0) continue;
    chunk_rate.push_back(chunk_ops[k] / s);
    if (!chunk_op_ms[k].empty()) chunk_p50.push_back(median(chunk_op_ms[k]));
  }
  std::ostringstream chunks;
  chunks << std::fixed << std::setprecision(1) << "chunk ops/s:";
  for (const double r : chunk_rate) chunks << ' ' << r;
  report.notes.push_back(chunks.str());
  const auto set_chunk_medians = [&] {
    report.values["ops_per_s"] = median(chunk_rate);
    report.values["op_p50_ms"] = median(chunk_p50);
  };

  if (!config.trace) {
    add_common_metrics(config, timing, store, report);
    set_chunk_medians();
    return report;
  }

  std::map<std::string, double>& v = report.values;
  {
    const Clock::time_point start = Clock::now();
    for (const Project& p : in.projects) (void)io::parse_project_string(p.spec);
    v["io.parse_ms"] =
        ms_since(start) / static_cast<double>(in.projects.size());
  }
  {
    std::vector<std::string> lines;
    for (const Project& p : in.projects) {
      lines.push_back(R"({"op":"submit","id":"x",)" + p.submit_tail);
      for (const Delta& d : p.deltas) {
        lines.push_back(R"({"op":"revise","id":"x","new_id":"y","delta":)" +
                        d.json + "}");
      }
      lines.push_back(R"({"op":"result","id":"x","wait":true})");
    }
    const Clock::time_point start = Clock::now();
    for (const std::string& line : lines) {
      (void)serve::parse_request(line, serve::ProtocolLimits{});
    }
    v["serve.request_parse_us"] =
        ms_since(start) * 1000.0 / static_cast<double>(lines.size());
  }
  add_common_metrics(config, timing, store, report);
  set_chunk_medians();

  const double attempted = static_cast<double>(report.attempted);
  add_count_metrics(run_counts, attempted, report);
  add_phase_metrics(phases, attempted, report);
  v["serve.queue_wait_ms"] = median(queue_wait_ms);
  v["serve.run_ms"] = median(run_ms);
  v["serve.render_ms"] =
      static_cast<double>(
          phases.ns[static_cast<std::size_t>(obs::SearchPhase::kRender)]) /
      1e6 / attempted;
  return report;
}

}  // namespace perfbench
