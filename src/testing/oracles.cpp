#include "testing/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "chip/mosis_packages.hpp"
#include "core/eval/candidate_evaluator.hpp"
#include "core/eval/eval_delta.hpp"
#include "core/search.hpp"
#include "core/session.hpp"
#include "core/transfer.hpp"
#include "exact/checker.hpp"
#include "exact/solver.hpp"
#include "gen/generate.hpp"
#include "io/spec_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "serve/protocol.hpp"
#include "testing/properties.hpp"
#include "util/error.hpp"

namespace chop::testing {

namespace {

using core::ChopSession;
using core::SearchOptions;
using core::SearchResult;

std::size_t sat_product(
    const std::vector<std::vector<bad::DesignPrediction>>& lists) {
  std::size_t product = 1;
  for (const auto& list : lists) {
    if (list.empty()) return 0;
    if (product > std::numeric_limits<std::size_t>::max() / list.size()) {
      return std::numeric_limits<std::size_t>::max();
    }
    product *= list.size();
  }
  return product;
}

/// Records the complete callback sequence so two runs can be compared
/// event by event.
struct CaptureObserver : obs::SearchObserver {
  struct Event {
    std::size_t trials;
    std::size_t feasible;
    long long best_ii;
    long long best_delay;
    bool trial_feasible;
    std::string reason;
  };
  std::vector<Event> events;
  std::size_t done_calls = 0;

  void on_trial(const obs::SearchProgress& p) override {
    events.push_back({p.trials, p.feasible, p.best_ii, p.best_delay,
                      p.trial_feasible, p.reason});
  }
  void on_done(const obs::SearchProgress&) override { ++done_calls; }
};

SearchResult run_enumeration(const ChopSession& session, bool bound_pruning,
                             int threads, std::size_t cache_entries,
                             bool record_all = false,
                             obs::SearchObserver* observer = nullptr) {
  core::CandidateEvaluator evaluator(cache_entries);
  SearchOptions opt;
  opt.heuristic = core::Heuristic::Enumeration;
  opt.bound_pruning = bound_pruning;
  opt.threads = threads;
  opt.record_all = record_all;
  opt.evaluator = &evaluator;
  opt.observer = observer;
  return session.search(opt);
}

/// First difference between two design lists, or nullopt when identical.
std::optional<std::string> diff_designs(const SearchResult& a,
                                        const SearchResult& b) {
  if (a.designs.size() != b.designs.size()) {
    return "design count " + std::to_string(a.designs.size()) + " vs " +
           std::to_string(b.designs.size());
  }
  for (std::size_t i = 0; i < a.designs.size(); ++i) {
    const core::GlobalDesign& x = a.designs[i];
    const core::GlobalDesign& y = b.designs[i];
    if (x.choice != y.choice) return "design " + std::to_string(i) + " choice";
    if (x.integration.ii_main != y.integration.ii_main ||
        x.integration.system_delay_main != y.integration.system_delay_main ||
        x.integration.feasible != y.integration.feasible ||
        x.integration.performance_ns.likely() !=
            y.integration.performance_ns.likely() ||
        x.integration.delay_ns.likely() != y.integration.delay_ns.likely()) {
      return "design " + std::to_string(i) + " integration";
    }
  }
  return std::nullopt;
}

std::optional<std::string> diff_counters(const SearchResult& a,
                                         const SearchResult& b) {
  std::ostringstream os;
  if (a.trials != b.trials) os << "trials " << a.trials << "!=" << b.trials;
  else if (a.feasible_raw != b.feasible_raw) os << "feasible_raw";
  else if (a.probe_integrations != b.probe_integrations) os << "probes";
  else if (a.pruned_subtrees != b.pruned_subtrees) os << "pruned_subtrees";
  else if (a.bound_skipped_leaves != b.bound_skipped_leaves) os << "skipped";
  else if (a.truncated != b.truncated) os << "truncated";
  else return std::nullopt;
  return os.str();
}

std::optional<std::string> diff_recorders(const SearchResult& a,
                                          const SearchResult& b) {
  if (a.recorder.total() != b.recorder.total() ||
      a.recorder.unique() != b.recorder.unique() ||
      a.recorder.feasible_count() != b.recorder.feasible_count()) {
    return std::string("recorder aggregates differ");
  }
  const auto& pa = a.recorder.points();
  const auto& pb = b.recorder.points();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].ii_main != pb[i].ii_main ||
        pa[i].delay_main != pb[i].delay_main ||
        pa[i].area_likely != pb[i].area_likely ||
        pa[i].feasible != pb[i].feasible) {
      return "recorder point " + std::to_string(i);
    }
  }
  return std::nullopt;
}

std::optional<std::string> diff_observers(const CaptureObserver& a,
                                          const CaptureObserver& b) {
  if (a.events.size() != b.events.size()) return std::string("event count");
  if (b.done_calls != 1) return std::string("done_calls");
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    const auto& x = a.events[i];
    const auto& y = b.events[i];
    if (x.trials != y.trials || x.feasible != y.feasible ||
        x.best_ii != y.best_ii || x.best_delay != y.best_delay ||
        x.trial_feasible != y.trial_feasible || x.reason != y.reason) {
      return "event " + std::to_string(i);
    }
  }
  return std::nullopt;
}

/// Per-trial feasibility of the full raw odometer space under `ctx`. The
/// trial sequence of the exhaustive serial enumeration is the odometer
/// order, so index i means the same selection for every ctx over the same
/// prediction lists.
std::vector<bool> feasible_by_trial(const core::EvalContext& ctx,
                                    const core::PartitionPredictions& pred) {
  CaptureObserver capture;
  core::CandidateEvaluator evaluator(0);
  SearchOptions opt;
  opt.heuristic = core::Heuristic::Enumeration;
  opt.prune = false;
  opt.bound_pruning = false;
  opt.evaluator = &evaluator;
  opt.observer = &capture;
  core::find_feasible_implementations(ctx, pred, opt);
  std::vector<bool> feasible;
  feasible.reserve(capture.events.size());
  for (const auto& e : capture.events) feasible.push_back(e.trial_feasible);
  return feasible;
}

/// sub must imply super, index by index.
std::optional<std::string> check_subset(const std::vector<bool>& sub,
                                        const std::vector<bool>& super) {
  if (sub.size() != super.size()) return std::string("trial count mismatch");
  for (std::size_t i = 0; i < sub.size(); ++i) {
    if (sub[i] && !super[i]) {
      return "trial " + std::to_string(i) + " feasible only in subset run";
    }
  }
  return std::nullopt;
}

/// Full-content serialization of a generation run: frontier points with
/// their cuts and choices, the winning cut, every counter, and the
/// decision log. Any scheduling dependence shows up as a digest diff.
std::string generation_digest(const gen::GenerateResult& r) {
  std::ostringstream out;
  out << std::hexfloat;
  out << "starts=" << r.starts_run << " evals=" << r.evaluations << " gated=" << r.gated
      << " levels=" << r.levels << " coarse=" << r.coarsest_vertices
      << " cancelled=" << r.cancelled << '\n';
  const auto cut = [&out](const std::vector<std::vector<dfg::NodeId>>& parts) {
    for (const auto& part : parts) {
      for (const dfg::NodeId id : part) out << id << ',';
      out << '|';
    }
  };
  for (const gen::FrontierPoint& p : r.frontier) {
    out << "pt ii=" << p.ii << " delay=" << p.delay << " area=" << p.area
        << " start=" << p.start << " choice=";
    for (const std::size_t c : p.choice) out << c << ',';
    out << " cut=";
    cut(p.members);
    out << '\n';
  }
  out << "best=";
  cut(r.members);
  out << '\n';
  for (const std::string& line : r.log) out << line << '\n';
  return out.str();
}

std::size_t count_true(const std::vector<bool>& v) {
  std::size_t n = 0;
  for (const bool b : v) n += b ? 1 : 0;
  return n;
}

void check_statval(const StatVal& sv, const std::string& what,
                   std::vector<OracleFailure>& failures) {
  if (auto d = check_cdf_bounds(sv)) {
    failures.push_back({"statval", what + ": " + *d});
    return;
  }
  for (const double prob : {0.5, 0.8, 1.0}) {
    if (auto d = check_satisfies_monotone(sv, prob)) {
      failures.push_back({"statval", what + ": " + *d});
      return;
    }
  }
}

}  // namespace

ScenarioReport run_oracles(const io::Project& project,
                           const OracleLimits& limits) {
  ScenarioReport report;
  try {
    // --- Oracle: spec round trip ---------------------------------------
    const std::string once = io::write_project_string(project);
    const io::Project reparsed = io::parse_project_string(once);
    const std::string twice = io::write_project_string(reparsed);
    if (once != twice) {
      report.failures.push_back(
          {"spec_roundtrip", "write(parse(write(p))) != write(p)"});
    }

    obs::Counter& schedules =
        obs::MetricsRegistry::global().counter("bad.schedules");
    ChopSession session = project.make_session();
    std::uint64_t schedules_before = schedules.value();
    const core::PredictionStats stats = session.predict_partitions();
    const std::uint64_t full_schedules = schedules.value() - schedules_before;

    // --- Oracle: level 1 inside BAD's sweep ----------------------------
    // A pruned-only session builds only the predictions level 1 could
    // keep; its eligible lists, totals and schedule count must equal the
    // default session's, which prunes the full raw lists.
    {
      ChopSession pruned_only = project.make_session();
      pruned_only.set_pruned_searches_only(true);
      schedules_before = schedules.value();
      const core::PredictionStats bounded_stats =
          pruned_only.predict_partitions();
      const std::uint64_t bounded_schedules =
          schedules.value() - schedules_before;
      if (bounded_stats.total != stats.total ||
          bounded_stats.feasible != stats.feasible) {
        report.failures.push_back(
            {"bounded_sweep", "total/feasible " +
                                  std::to_string(bounded_stats.total) + "/" +
                                  std::to_string(bounded_stats.feasible) +
                                  " != " + std::to_string(stats.total) + "/" +
                                  std::to_string(stats.feasible)});
      }
      if (bounded_schedules != full_schedules) {
        report.failures.push_back(
            {"bounded_sweep", "schedules " +
                                  std::to_string(bounded_schedules) +
                                  " != " + std::to_string(full_schedules)});
      }
      const auto& want = session.predictions().eligible;
      const auto& got = pruned_only.predictions().eligible;
      for (std::size_t p = 0; p < want.size(); ++p) {
        if (got[p] == want[p]) continue;
        std::size_t i = 0;
        while (i < got[p].size() && i < want[p].size() &&
               got[p][i] == want[p][i]) {
          ++i;
        }
        report.failures.push_back(
            {"bounded_sweep", "partition " + std::to_string(p) +
                                  ": eligible lists of " +
                                  std::to_string(got[p].size()) + " and " +
                                  std::to_string(want[p].size()) +
                                  " predictions differ at " +
                                  std::to_string(i)});
      }
    }

    report.eligible_product = sat_product(session.predictions().eligible);
    report.raw_product = sat_product(session.predictions().raw);
    if (report.eligible_product > limits.max_eligible_product) {
      report.skipped = true;
      return report;
    }

    // --- Oracle: bound pruning vs exhaustive ---------------------------
    const SearchResult exhaustive = run_enumeration(session, false, 1, 0);
    const SearchResult bounded = run_enumeration(
        session, true, 1, core::CandidateEvaluator::kDefaultMaxEntries);
    report.designs = bounded.designs.size();
    report.trials = bounded.trials;
    if (auto d = diff_designs(exhaustive, bounded)) {
      report.failures.push_back({"bound_pruning", *d});
    }
    if (exhaustive.trials != report.eligible_product) {
      report.failures.push_back(
          {"bound_pruning",
           "exhaustive trials " + std::to_string(exhaustive.trials) +
               " != eligible product " +
               std::to_string(report.eligible_product)});
    }
    if (bounded.trials + bounded.bound_skipped_leaves !=
        report.eligible_product) {
      report.failures.push_back(
          {"bound_pruning",
           "bounded trials " + std::to_string(bounded.trials) + " + skipped " +
               std::to_string(bounded.bound_skipped_leaves) +
               " != eligible product " +
               std::to_string(report.eligible_product)});
    }

    // --- Oracle: exact certification -----------------------------------
    // A derivation independent of both enumerators: the implicit 0-1
    // solver reconstructs the non-inferior set from EvalContext alone
    // (no BoundTables, no shared slack constant) and proves it with a
    // checker-replayed certificate. The heuristic frontier must match
    // point for point — a shared bound/dominance bug in the heuristics
    // cannot hide here, because this side never runs their code.
    {
      const core::EvalContext ctx = session.make_eval_context();
      const auto& lists = session.predictions().eligible;
      const exact::ExactResult proven = exact::solve(ctx, lists, {});
      if (proven.truncated) {
        report.failures.push_back(
            {"exact_certification", "solver truncated a space of " +
                                        std::to_string(proven.space) +
                                        " leaves below the oracle limit"});
      } else {
        if (proven.space != report.eligible_product) {
          report.failures.push_back(
              {"exact_certification",
               "model space " + std::to_string(proven.space) +
                   " != eligible product " +
                   std::to_string(report.eligible_product)});
        }
        if (proven.frontier.size() != bounded.designs.size()) {
          report.failures.push_back(
              {"exact_certification",
               "heuristic frontier has " +
                   std::to_string(bounded.designs.size()) +
                   " designs, exact optimum has " +
                   std::to_string(proven.frontier.size())});
        } else {
          for (std::size_t i = 0; i < proven.frontier.size(); ++i) {
            const exact::Witness& w = proven.frontier[i];
            const core::GlobalDesign& d = bounded.designs[i];
            if (w.choice != d.choice || w.ii_main != d.integration.ii_main ||
                w.delay_main != d.integration.system_delay_main) {
              report.failures.push_back(
                  {"exact_certification",
                   "frontier point " + std::to_string(i) +
                       " differs from the certified optimum"});
              break;
            }
          }
        }
        const exact::CheckResult check =
            exact::verify_certificate(ctx, lists, proven.certificate);
        if (!check.ok) {
          report.failures.push_back(
              {"exact_certification", "certificate rejected: " + check.detail});
        }
      }
    }

    // --- Oracle: thread determinism ------------------------------------
    CaptureObserver serial_obs;
    const SearchResult serial =
        run_enumeration(session, true, 1,
                        core::CandidateEvaluator::kDefaultMaxEntries,
                        /*record_all=*/true, &serial_obs);
    for (const int threads : limits.thread_counts) {
      CaptureObserver parallel_obs;
      const SearchResult parallel =
          run_enumeration(session, true, threads,
                          core::CandidateEvaluator::kDefaultMaxEntries,
                          /*record_all=*/true, &parallel_obs);
      const std::string tag = "threads=" + std::to_string(threads) + ": ";
      if (auto d = diff_designs(serial, parallel)) {
        report.failures.push_back({"thread_determinism", tag + *d});
      }
      if (auto d = diff_counters(serial, parallel)) {
        report.failures.push_back({"thread_determinism", tag + *d});
      }
      if (auto d = diff_recorders(serial, parallel)) {
        report.failures.push_back({"thread_determinism", tag + *d});
      }
      if (auto d = diff_observers(serial_obs, parallel_obs)) {
        report.failures.push_back({"thread_determinism", tag + *d});
      }
    }

    // --- Oracle: generation determinism --------------------------------
    // The multilevel generator commits portfolio outcomes in start order
    // at wave barriers, so its full result — frontier, winning cut,
    // counters, and decision log — must be byte-identical at any thread
    // count. A tight per-start budget keeps the arm cheap; the scenario's
    // own partitioning is ignored (generation builds its own cuts).
    if (project.graph.partitionable_operations().size() >=
        project.chips.size()) {
      gen::GenerateOptions gopt;
      gopt.num_starts = 2;
      gopt.budget = 6;
      const auto run = [&](int threads) {
        gen::GenerateOptions o = gopt;
        o.threads = threads;
        return generation_digest(gen::generate_partitions(
            project.graph, project.library, project.chips, project.memory,
            project.config, o));
      };
      try {
        const std::string serial = run(1);
        for (const int threads : limits.thread_counts) {
          const std::string parallel = run(threads);
          if (parallel != serial) {
            report.failures.push_back(
                {"generation_determinism",
                 "threads=" + std::to_string(threads) +
                     ": digest diverged from the serial run"});
          }
        }
      } catch (const Error&) {
        // Generation may legitimately reject a scenario (e.g. no valid
        // cut exists for this chip count) — rejection is deterministic
        // and not a determinism failure.
      }
    }

    // --- Oracle: eval cache on/off -------------------------------------
    const SearchResult uncached = run_enumeration(session, true, 1, 0);
    if (auto d = diff_designs(bounded, uncached)) {
      report.failures.push_back({"eval_cache", *d});
    }
    if (auto d = diff_counters(bounded, uncached)) {
      report.failures.push_back({"eval_cache", *d});
    }

    // --- Oracle: incremental research vs cold --------------------------
    // apply(delta) → predict_partitions() → search() on a warm session
    // (after a base predict + search) must be byte-identical (through the
    // serve rendering, trials included) to a cold session built directly
    // at the patched state, and re-stating the same delta must let the
    // next predict pass reuse every partition's lists and search to the
    // same bytes. The delta kind is picked from a content
    // hash of the spec so the corpus covers every §2.7 group over time.
    {
      std::uint64_t h = 1469598103934665603ull;
      for (const char c : once) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      const core::ChopConfig& cfg = session.config();
      const auto tightened = [&cfg] {
        core::DesignConstraints c = cfg.constraints;
        c.performance_ns *= 0.9;
        return core::EvalDelta::set_constraints(c);
      };
      core::EvalDelta delta = tightened();
      switch (h % 4) {
        case 0:
          break;  // the constraint tighten above
        case 1: {
          bad::ClockSpec clocks = cfg.clocks;
          clocks.main_clock *= 1.1;
          delta = core::EvalDelta::set_clocking(cfg.style, clocks);
          break;
        }
        case 2:
          delta = core::EvalDelta::replace_chip_package(
              0, chip::mosis_package_64());
          break;
        default: {
          // A legal migration if the partitioning offers one (source keeps
          // an operation, the probe copy validates); else keep the tighten.
          const core::Partitioning& pt = session.partitioning();
          const auto& partitions = pt.partitions();
          bool found = false;
          for (std::size_t p = 0; !found && p < partitions.size(); ++p) {
            if (partitions[p].members.size() < 2 || partitions.size() < 2) {
              continue;
            }
            const int dest = static_cast<int>((p + 1) % partitions.size());
            for (const dfg::NodeId op : partitions[p].members) {
              core::Partitioning probe = pt;
              try {
                probe.move_operation(op, dest);
                probe.validate();
              } catch (const Error&) {
                continue;
              }
              delta = core::EvalDelta::move_operation(op, dest);
              found = true;
              break;
            }
          }
          break;
        }
      }
      try {
        ChopSession warm = project.make_session();
        warm.predict_partitions();
        const SearchOptions opt;
        (void)warm.search(opt);
        warm.apply(delta);
        warm.predict_partitions();
        const SearchResult incremental = warm.search(opt);
        const std::string incremental_bytes =
            serve::render_search_result(incremental).dump();
        warm.apply(delta);
        const core::PredictionStats restated = warm.predict_partitions();
        if (restated.reused != warm.partitioning().partitions().size()) {
          report.failures.push_back(
              {"incremental_research",
               "re-applying an applied delta re-ran BAD on " +
                   std::to_string(warm.partitioning().partitions().size() -
                                  restated.reused) +
                   " partition(s)"});
        }
        if (serve::render_search_result(warm.search(opt)).dump() !=
            incremental_bytes) {
          report.failures.push_back(
              {"incremental_research",
               "re-applying an applied delta changed the search output"});
        }

        ChopSession cold = project.make_session();
        cold.apply(delta);
        cold.predict_partitions();
        const SearchResult from_cold = cold.search(opt);
        if (incremental_bytes !=
            serve::render_search_result(from_cold).dump()) {
          report.failures.push_back(
              {"incremental_research",
               "warm apply+research diverged from a cold session at the "
               "same state"});
        }
      } catch (const Error&) {
        // The delta is invalid for this project (chip index out of range,
        // package too small, ...) — rejection is the contract, not a bug.
      }
    }

    // --- Oracle: enumeration vs iterative ------------------------------
    {
      core::CandidateEvaluator evaluator;
      SearchOptions opt;
      opt.heuristic = core::Heuristic::Iterative;
      opt.evaluator = &evaluator;
      const SearchResult iterative = session.search(opt);
      for (std::size_t i = 0; i < iterative.designs.size(); ++i) {
        const core::GlobalDesign& d = iterative.designs[i];
        if (!d.integration.feasible) {
          report.failures.push_back(
              {"enum_vs_iterative",
               "iterative design " + std::to_string(i) + " infeasible"});
          continue;
        }
        bool dominated = false;
        for (const core::GlobalDesign& e : bounded.designs) {
          if (e.integration.ii_main <= d.integration.ii_main &&
              e.integration.system_delay_main <=
                  d.integration.system_delay_main) {
            dominated = true;
            break;
          }
        }
        if (!dominated) {
          report.failures.push_back(
              {"enum_vs_iterative",
               "iterative design " + std::to_string(i) + " (ii=" +
                   std::to_string(d.integration.ii_main) + ", delay=" +
                   std::to_string(d.integration.system_delay_main) +
                   ") not covered by the complete enumeration set"});
        }
      }
    }

    // --- Oracle: StatVal probability laws on real predictions ----------
    for (std::size_t i = 0; i < bounded.designs.size(); ++i) {
      const core::IntegrationResult& r = bounded.designs[i].integration;
      const std::string tag = "design " + std::to_string(i);
      check_statval(r.performance_ns, tag + " performance", report.failures);
      check_statval(r.delay_ns, tag + " delay", report.failures);
      check_statval(r.adjusted_clock_ns, tag + " clock", report.failures);
      check_statval(r.system_power_mw, tag + " power", report.failures);
      for (std::size_t c = 0; c < r.chip_area.size(); ++c) {
        check_statval(r.chip_area[c],
                      tag + " area chip " + std::to_string(c),
                      report.failures);
      }
    }

    // --- Metamorphic group: constraint monotonicity --------------------
    if (limits.metamorphic && report.raw_product > 0 &&
        report.raw_product <= limits.max_raw_product) {
      const core::Partitioning& pt = session.partitioning();
      std::vector<core::DataTransfer> transfers = session.transfer_tasks();
      const core::ChopConfig& cfg = session.config();
      auto context = [&](const core::DesignConstraints& constraints,
                         Pins extra_pins) {
        return core::EvalContext(pt, transfers, cfg.clocks, constraints,
                                 cfg.criteria, extra_pins);
      };
      const std::vector<bool> base =
          feasible_by_trial(context(cfg.constraints, 0), session.predictions());

      // Tightening each hard constraint: feasible set must not grow.
      {
        core::DesignConstraints c = cfg.constraints;
        c.performance_ns *= 0.8;
        if (auto d = check_subset(
                feasible_by_trial(context(c, 0), session.predictions()), base)) {
          report.failures.push_back({"tighten_performance", *d});
        }
      }
      {
        core::DesignConstraints c = cfg.constraints;
        c.delay_ns *= 0.8;
        if (auto d = check_subset(
                feasible_by_trial(context(c, 0), session.predictions()), base)) {
          report.failures.push_back({"tighten_delay", *d});
        }
      }
      if (cfg.constraints.power_constrained()) {
        core::DesignConstraints c = cfg.constraints;
        c.system_power_mw *= 0.8;
        c.chip_power_mw *= 0.8;
        if (auto d = check_subset(
                feasible_by_trial(context(c, 0), session.predictions()), base)) {
          report.failures.push_back({"tighten_power", *d});
        }
      }

      // Loosening every constraint: nothing feasible may be lost.
      {
        core::DesignConstraints c = cfg.constraints;
        c.performance_ns *= 1.5;
        c.delay_ns *= 1.5;
        c.system_power_mw = 0.0;
        c.chip_power_mw = 0.0;
        if (auto d = check_subset(
                base, feasible_by_trial(context(c, 0), session.predictions()))) {
          report.failures.push_back({"loosen_constraints", *d});
        }
      }

      // Reserving extra pins tightens pin budgets. When no transfer
      // crosses chip pins, pin reservation only gates the data-pins > 0
      // feasibility check, so it is monotone: pinching never adds designs.
      // (With crossing transfers the reservation narrows transfer
      // bandwidth, lengthening transfer tasks — and the urgency list
      // scheduler is subject to Graham's timing anomalies, so feasibility
      // is legitimately non-monotone there; the subset check would be an
      // unsound oracle.)
      const bool pins_affect_schedule =
          std::any_of(transfers.begin(), transfers.end(),
                      [](const core::DataTransfer& t) {
                        return t.crosses_pins();
                      });
      if (!pins_affect_schedule) {
        const std::vector<bool> pinched = feasible_by_trial(
            context(cfg.constraints, 8), session.predictions());
        if (auto d = check_subset(pinched, base)) {
          report.failures.push_back({"extra_pin_slack", *d});
        }
        if (count_true(pinched) > count_true(base)) {
          report.failures.push_back(
              {"extra_pin_slack", "pinched run has more feasible trials"});
        }
      }
      // Sound for every topology: reserving more pins than any package
      // offers starves all chips of data pins, so nothing is feasible.
      {
        const std::vector<bool> starved = feasible_by_trial(
            context(cfg.constraints, 10000), session.predictions());
        if (count_true(starved) != 0) {
          report.failures.push_back(
              {"extra_pin_slack",
               "trials stay feasible with every data pin reserved away"});
        }
      }
    }
  } catch (const Error& e) {
    report.failures.push_back({"harness", std::string("exception: ") + e.what()});
  } catch (const std::exception& e) {
    report.failures.push_back(
        {"harness", std::string("std exception: ") + e.what()});
  }
  return report;
}

}  // namespace chop::testing
