// bench_interactive — the incremental-evaluation benchmark: how fast does
// the §2.7 modify→re-examine loop respond on a warm session compared to
// re-running the whole pipeline cold?
//
// Four canned Figure-7 deltas on the experiment-1 AR filter (a partition
// migration, a package swap, a clock retune, a constraint tightening)
// each run as round trips on one long-lived session — apply(delta) →
// predict_partitions() → search(), then the same for the inverse delta —
// versus a cold session+predict+search at every visited state. The warm
// side re-runs BAD only for partitions whose inputs changed and keeps the
// session evaluator's memo. Three properties are checked/reported per group:
//  * byte identity — render_search_result() of the incremental run must
//    equal the cold run's at every state (the correctness oracle);
//  * work reduction — the incremental path must perform strictly fewer
//    fresh integrations (the `integration.attempts` counter) than cold;
//  * latency — p50/p99 wall ms per state evaluation, cold vs incremental,
//    written to BENCH_interactive.json.
//
// `--quick` runs a 2-partition space with 2 reps and exits non-zero on an
// identity or work-reduction violation — the CI perf-smoke mode. The
// default is the 3-partition space with enough reps for stable quantiles.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/eval/eval_delta.hpp"
#include "serve/protocol.hpp"
#include "util/error.hpp"

namespace {

using namespace chop;

struct DeltaGroup {
  std::string name;
  core::EvalDelta forward;
  core::EvalDelta inverse;
};

/// A member that can legally migrate to the next partition: its source
/// keeps at least one operation and the patched partitioning validates
/// (tried on a copy, so the session is untouched).
bool find_move(const core::ChopSession& session, dfg::NodeId* op,
               int* to_partition) {
  const core::Partitioning& pt = session.partitioning();
  const auto& partitions = pt.partitions();
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    if (partitions[p].members.size() < 2) continue;
    const int dest = static_cast<int>((p + 1) % partitions.size());
    for (dfg::NodeId candidate : partitions[p].members) {
      core::Partitioning probe = pt;
      try {
        probe.move_operation(candidate, dest);
        probe.validate();
      } catch (const Error&) {
        continue;
      }
      *op = candidate;
      *to_partition = dest;
      return true;
    }
  }
  return false;
}

std::vector<DeltaGroup> make_groups(const core::ChopSession& session) {
  const core::ChopConfig& config = session.config();
  std::vector<DeltaGroup> groups;

  dfg::NodeId op = dfg::kNoNode;
  int dest = 0;
  if (find_move(session, &op, &dest)) {
    const core::Partitioning& pt = session.partitioning();
    int src = 0;
    for (std::size_t p = 0; p < pt.partitions().size(); ++p) {
      const auto& members = pt.partitions()[p].members;
      if (std::find(members.begin(), members.end(), op) != members.end()) {
        src = static_cast<int>(p);
      }
    }
    groups.push_back({"move_op", core::EvalDelta::move_operation(op, dest),
                      core::EvalDelta::move_operation(op, src)});
  }

  groups.push_back({"replace_package",
                    core::EvalDelta::replace_chip_package(
                        0, chip::mosis_package_64()),
                    core::EvalDelta::replace_chip_package(
                        0, chip::mosis_package_84())});

  bad::ClockSpec slower = config.clocks;
  slower.main_clock = 330.0;
  groups.push_back({"set_clock",
                    core::EvalDelta::set_clocking(config.style, slower),
                    core::EvalDelta::set_clocking(config.style,
                                                  config.clocks)});

  core::DesignConstraints tighter = config.constraints;
  tighter.performance_ns = 27000.0;
  groups.push_back({"set_constraints",
                    core::EvalDelta::set_constraints(tighter),
                    core::EvalDelta::set_constraints(config.constraints)});
  return groups;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

struct ModeStats {
  std::vector<double> ms;
  std::uint64_t attempts = 0;
};

struct GroupReport {
  std::string name;
  ModeStats cold;
  ModeStats incremental;
  bool identical = true;
};

obs::Counter& attempts_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("integration.attempts");
  return c;
}

/// Cold reference at one state: a fresh session patched by `path` of
/// deltas, full predict+search, rendered for byte comparison.
std::string run_cold(int nparts, const std::vector<core::EvalDelta>& path,
                     ModeStats* stats) {
  core::ChopSession session =
      bench::make_experiment_session(bench::Experiment::One, nparts);
  for (const core::EvalDelta& delta : path) session.apply(delta);
  const std::uint64_t before = attempts_counter().value();
  Timer timer;
  session.predict_partitions();
  const core::SearchResult result = session.search(core::SearchOptions{});
  stats->ms.push_back(timer.elapsed_ms());
  stats->attempts += attempts_counter().value() - before;
  return serve::render_search_result(result).dump();
}

/// One incremental state evaluation on the warm session.
std::string run_incremental(core::ChopSession& session,
                            const core::EvalDelta& delta, ModeStats* stats) {
  const std::uint64_t before = attempts_counter().value();
  Timer timer;
  session.apply(delta);
  session.predict_partitions();
  const core::SearchResult result = session.search(core::SearchOptions{});
  stats->ms.push_back(timer.elapsed_ms());
  stats->attempts += attempts_counter().value() - before;
  return serve::render_search_result(result).dump();
}

GroupReport run_group(const DeltaGroup& group, int nparts, int reps) {
  GroupReport report;
  report.name = group.name;

  // The warm session: one predict+search at base state before the clock
  // starts, exactly like a serve job that already answered its base query.
  core::ChopSession session =
      bench::make_experiment_session(bench::Experiment::One, nparts);
  session.predict_partitions();
  session.search(core::SearchOptions{});

  for (int rep = 0; rep < reps; ++rep) {
    const std::string inc_fwd =
        run_incremental(session, group.forward, &report.incremental);
    const std::string inc_rev =
        run_incremental(session, group.inverse, &report.incremental);
    const std::string cold_fwd =
        run_cold(nparts, {group.forward}, &report.cold);
    const std::string cold_rev = run_cold(nparts, {}, &report.cold);
    report.identical =
        report.identical && inc_fwd == cold_fwd && inc_rev == cold_rev;
  }
  return report;
}

void write_report(const std::vector<GroupReport>& reports, int nparts,
                  int reps, const std::string& path) {
  std::ofstream os(path);
  if (!os.good()) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  os << "{\n  \"nparts\": " << nparts << ",\n  \"reps\": " << reps
     << ",\n  \"groups\": {";
  for (std::size_t g = 0; g < reports.size(); ++g) {
    const GroupReport& r = reports[g];
    os << (g ? ",\n" : "\n") << "    \"" << r.name << "\": {\n";
    const auto mode = [&](const char* label, const ModeStats& m,
                          const char* tail) {
      os << "      \"" << label << "\": {\"p50_ms\": "
         << percentile(m.ms, 0.5) << ", \"p99_ms\": " << percentile(m.ms, 0.99)
         << ", \"integration_attempts\": " << m.attempts << "}" << tail
         << "\n";
    };
    mode("cold", r.cold, ",");
    mode("incremental", r.incremental, ",");
    os << "      \"identical\": " << (r.identical ? "true" : "false")
       << "\n    }";
  }
  os << "\n  }\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  chop::bench::ScopedMetricsDump metrics_dump("bench_interactive");

  const int nparts = quick ? 2 : 3;
  const int reps = quick ? 2 : 11;
  bench::print_header(
      "Incremental §2.7 revisions vs cold re-evaluation (" +
          std::to_string(nparts) + "-partition AR filter, experiment 1)",
      "every incremental result must be byte-identical to its cold "
      "reference while integrating strictly less");

  core::ChopSession probe =
      bench::make_experiment_session(bench::Experiment::One, nparts);
  const std::vector<DeltaGroup> groups = make_groups(probe);

  std::vector<GroupReport> reports;
  bool all_identical = true;
  std::uint64_t cold_attempts = 0;
  std::uint64_t inc_attempts = 0;
  TablePrinter table({"Delta", "Cold p50 (ms)", "Incr p50 (ms)",
                      "Cold Integr.", "Incr Integr.", "Identical"});
  for (const DeltaGroup& group : groups) {
    GroupReport report = run_group(group, nparts, reps);
    table.row(report.name, percentile(report.cold.ms, 0.5),
              percentile(report.incremental.ms, 0.5), report.cold.attempts,
              report.incremental.attempts,
              report.identical ? "yes" : "NO — BUG");
    all_identical = all_identical && report.identical;
    cold_attempts += report.cold.attempts;
    inc_attempts += report.incremental.attempts;
    reports.push_back(std::move(report));
  }
  table.print(std::cout);
  std::cout << "total fresh integrations: cold " << cold_attempts
            << " vs incremental " << inc_attempts << "\n\n";

  write_report(reports, nparts, reps, "BENCH_interactive.json");

  if (!all_identical) {
    std::cerr << "FAIL: incremental result diverged from cold reference\n";
    return 1;
  }
  if (inc_attempts >= cold_attempts) {
    std::cerr << "FAIL: incremental path did not reduce fresh integrations ("
              << inc_attempts << " >= " << cold_attempts << ")\n";
    return 1;
  }
  return 0;
}
