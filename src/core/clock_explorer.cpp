#include "core/clock_explorer.hpp"

#include <sstream>

#include "obs/trace.hpp"

namespace chop::core {

std::string ClockCandidate::label() const {
  std::ostringstream os;
  os << to_string(style.clocking) << ' ' << clocks.main_clock << "ns x"
     << clocks.datapath_multiplier << "/x" << clocks.transfer_multiplier;
  if (!style.allow_pipelining) os << " (nopipe)";
  return os.str();
}

std::vector<ClockCandidate> default_clock_candidates(Ns main_clock) {
  std::vector<ClockCandidate> out;
  auto add = [&](bad::ClockingStyle clocking, int dp_mult) {
    ClockCandidate c;
    c.style.clocking = clocking;
    c.clocks = {main_clock, dp_mult, 1};
    out.push_back(c);
  };
  // Experiment 1's style, plus intermediate datapath clocks.
  add(bad::ClockingStyle::SingleCycle, 10);
  add(bad::ClockingStyle::SingleCycle, 5);
  add(bad::ClockingStyle::SingleCycle, 2);
  // Experiment 2's style at a few datapath granularities.
  add(bad::ClockingStyle::MultiCycle, 1);
  add(bad::ClockingStyle::MultiCycle, 2);
  return out;
}

ClockExplorationResult explore_clocks(
    ChopSession& session, const std::vector<ClockCandidate>& candidates,
    const SearchOptions& search) {
  CHOP_REQUIRE(!candidates.empty(), "clock exploration needs candidates");
  obs::TraceSpan span("clock_explorer");
  span.arg("candidates", candidates.size());
  ClockExplorationResult out;
  out.points.reserve(candidates.size());

  for (const ClockCandidate& candidate : candidates) {
    obs::TraceSpan candidate_span("clock_explorer.candidate");
    candidate_span.arg("clock", candidate.label());
    session.apply(EvalDelta::set_clocking(candidate.style, candidate.clocks));
    ClockPoint point;
    point.candidate = candidate;
    const PredictionStats stats = session.predict_partitions();
    point.predictions = stats.total;
    point.eligible = stats.feasible;
    const SearchResult result = session.search(search);
    if (!result.designs.empty()) {
      const IntegrationResult& best = result.designs.front().integration;
      point.feasible = true;
      point.best_ii = best.ii_main;
      point.best_delay = best.system_delay_main;
      point.best_performance_ns = best.performance_ns.likely();
      point.best_delay_ns = best.delay_ns.likely();
    }
    out.points.push_back(point);

    if (point.feasible) {
      const ClockPoint* incumbent = out.best();
      if (incumbent == nullptr ||
          point.best_performance_ns < incumbent->best_performance_ns ||
          (point.best_performance_ns == incumbent->best_performance_ns &&
           point.best_delay_ns < incumbent->best_delay_ns)) {
        out.best_index = static_cast<int>(out.points.size() - 1);
      }
    }
  }

  // Leave the session on the winner so the designer can continue there.
  if (out.best_index >= 0) {
    const ClockCandidate& winner =
        out.points[static_cast<std::size_t>(out.best_index)].candidate;
    session.apply(EvalDelta::set_clocking(winner.style, winner.clocks));
    session.predict_partitions();
  }
  return out;
}

}  // namespace chop::core
