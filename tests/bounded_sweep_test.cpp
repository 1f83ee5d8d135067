// Oracle tests for level 1 inside BAD's sweep: a session declared
// pruned-only (ChopSession::set_pruned_searches_only) must predict exactly
// like a default session — equal eligible lists field by field, equal
// `total` and `feasible`, and the same number of schedules — while it
// builds fewer predictions and holds no raw list. At the predictor level,
// pareto_filter() over a filtered sweep must equal prune_level1() over the
// full raw list. Constraints are drawn from each scenario's own raw
// predictions so that area, performance, delay and power all bind, under
// default and non-default feasibility criteria.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bad/predictor.hpp"
#include "core/search.hpp"
#include "core/session.hpp"
#include "dfg/generator.hpp"
#include "io/spec_format.hpp"
#include "library/experiment_library.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "testing/scenario.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace chop::core {
namespace {

std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// Index of the first prediction where two lists differ, or -1.
long first_difference(const std::vector<bad::DesignPrediction>& a,
                      const std::vector<bad::DesignPrediction>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a[i] == b[i])) return static_cast<long>(i);
  }
  return a.size() == b.size() ? -1 : static_cast<long>(n);
}

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto i = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1));
  return values[i];
}

double pick(Rng& rng, std::initializer_list<double> choices) {
  return choices.begin()[rng.uniform(
      0, static_cast<std::int64_t>(choices.size()) - 1)];
}

/// Level-1 quantities of every raw prediction of a session.
struct RawSpread {
  std::vector<double> area;
  std::vector<double> perf_ns;
  std::vector<double> delay_ns;
  std::vector<double> power_mw;
};

RawSpread spread_of(const ChopSession& session) {
  RawSpread s;
  const Ns clock = session.config().clocks.main_clock;
  for (const auto& list : session.predictions().raw) {
    for (const bad::DesignPrediction& p : list) {
      const Ns cycle = clock + p.clock_overhead_ns;
      s.area.push_back(p.total_area.likely());
      s.perf_ns.push_back(cycle * static_cast<double>(p.ii_main));
      s.delay_ns.push_back(cycle * static_cast<double>(p.latency_main));
      s.power_mw.push_back(p.power_mw.likely());
    }
  }
  return s;
}

/// `project` with constraints, criteria, chip areas and scan design drawn
/// from `rng` against the project's own raw predictions, so that each
/// level-1 check binds for some predictions and passes for others.
io::Project constrained(const io::Project& project, Rng& rng) {
  io::Project out = project;
  ChopConfig& cfg = out.config;
  cfg.testability.scan_design = rng.chance(0.3);
  ChopSession probe(out.library, out.make_partitioning(), cfg);
  probe.predict_partitions();
  const RawSpread s = spread_of(probe);
  if (s.area.empty()) return out;

  const auto draw = [&rng] { return 0.05 + 0.9 * rng.uniform01(); };
  for (chip::ChipInstance& chip : out.chips) {
    chip::ChipPackage& pkg = chip.package;
    if (rng.chance(0.2)) continue;  // keep the package's own area
    const double usable = quantile(s.area, draw());
    pkg.width_mil = (usable + pkg.io_pad_area * pkg.pin_count) / pkg.height_mil;
  }
  cfg.criteria.area_prob = pick(rng, {1.0, 1.0, 0.95, 0.6, 0.3});
  cfg.criteria.performance_prob = pick(rng, {1.0, 0.9, 0.5});
  cfg.criteria.delay_prob = pick(rng, {1.0, 0.8, 0.8, 0.4});
  cfg.criteria.power_prob = pick(rng, {1.0, 0.9, 0.5});
  if (rng.chance(0.7)) cfg.constraints.performance_ns = quantile(s.perf_ns, draw());
  if (rng.chance(0.7)) cfg.constraints.delay_ns = quantile(s.delay_ns, draw());
  if (rng.chance(0.5)) {
    cfg.constraints.chip_power_mw = quantile(s.power_mw, draw());
    if (rng.chance(0.5)) {
      cfg.constraints.system_power_mw = quantile(s.power_mw, draw());
    }
  }
  return out;
}

/// A fuzz scenario, with memory traffic on every third seed.
io::Project scenario(std::uint64_t seed) {
  testing::ScenarioKnobs k = testing::sample_knobs(seed);
  k.operations = std::max(k.operations, 8);
  if (seed % 3 == 0) {
    k.memory_blocks = 1 + static_cast<int>(seed % 2);
    k.mem_reads = 2;
    k.mem_writes = 1;
  }
  return testing::build_scenario(k);
}

struct Predicted {
  PredictionStats stats;
  std::uint64_t schedules = 0;
  std::uint64_t built = 0;
  std::uint64_t pruned = 0;  ///< search.pruned_infeasible + pruned_pareto.
};

Predicted predict(ChopSession& session) {
  const std::uint64_t schedules = counter("bad.schedules");
  const std::uint64_t built = counter("bad.predictions_built");
  const std::uint64_t pruned =
      counter("search.pruned_infeasible") + counter("search.pruned_pareto");
  Predicted out;
  out.stats = session.predict_partitions();
  out.schedules = counter("bad.schedules") - schedules;
  out.built = counter("bad.predictions_built") - built;
  out.pruned = counter("search.pruned_infeasible") +
               counter("search.pruned_pareto") - pruned;
  return out;
}

/// The oracle: equal eligible lists, totals and schedule counts.
void expect_same_predictions(const ChopSession& bounded, const Predicted& b,
                             const ChopSession& full, const Predicted& f) {
  EXPECT_EQ(b.stats.total, f.stats.total);
  EXPECT_EQ(b.stats.feasible, f.stats.feasible);
  EXPECT_EQ(b.stats.reused, f.stats.reused);
  EXPECT_EQ(b.schedules, f.schedules);
  EXPECT_LE(b.built, f.built);
  // Level-1 drop counters account for every raw prediction on both paths.
  EXPECT_EQ(b.pruned, b.stats.total - b.stats.feasible);
  EXPECT_EQ(f.pruned, f.stats.total - f.stats.feasible);
  const auto& be = bounded.predictions().eligible;
  const auto& fe = full.predictions().eligible;
  ASSERT_EQ(be.size(), fe.size());
  for (std::size_t p = 0; p < be.size(); ++p) {
    const long at = first_difference(be[p], fe[p]);
    EXPECT_EQ(at, -1) << "partition " << p << ": eligible lists of "
                      << be[p].size() << " and " << fe[p].size()
                      << " predictions differ at " << at;
    EXPECT_TRUE(bounded.predictions().raw[p].empty());
  }
}

TEST(BoundedSweep, PrunedOnlySessionsMatchDefaultSessions) {
  std::size_t cases = 0;
  std::size_t skipped_points = 0;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    SCOPED_TRACE("scenario " + std::to_string(seed));
    Rng rng(seed * 7919);
    const io::Project base = scenario(seed);
    for (int draw = 0; draw < 3; ++draw) {
      SCOPED_TRACE("draw " + std::to_string(draw));
      std::optional<io::Project> project;
      try {
        project = constrained(base, rng);
        project->make_partitioning().validate();
      } catch (const Error&) {
        continue;  // a drawn chip area too small for a memory block
      }
      ChopSession full = project->make_session();
      const Predicted f = predict(full);
      ChopSession bounded = project->make_session();
      bounded.set_pruned_searches_only(true);
      const Predicted b = predict(bounded);
      expect_same_predictions(bounded, b, full, f);
      skipped_points += f.built - b.built;
      ++cases;
    }
  }
  EXPECT_GE(cases, 120u);
  // The bounds must actually skip work, or the oracle shows nothing.
  EXPECT_GT(skipped_points, 0u);
}

TEST(BoundedSweep, IncrementalPassesMatchDefaultSessions) {
  // A delay tighten keeps each partition's raw inputs; the bounded session
  // holds no raw list, so it re-runs its bounded sweep where the default
  // session re-prunes its raw list. A clock change re-runs both.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("scenario " + std::to_string(seed));
    Rng rng(seed * 104729);
    io::Project project;
    try {
      project = constrained(scenario(seed), rng);
      project.make_partitioning().validate();
    } catch (const Error&) {
      continue;
    }
    ChopSession full = project.make_session();
    ChopSession bounded = project.make_session();
    bounded.set_pruned_searches_only(true);
    full.predict_partitions();
    bounded.predict_partitions();

    DesignConstraints tighter = project.config.constraints;
    tighter.delay_ns *= 0.7;
    bad::ClockSpec slower = project.config.clocks;
    slower.main_clock *= 1.1;
    for (const EvalDelta& delta :
         {EvalDelta::set_constraints(tighter),
          EvalDelta::set_clocking(project.config.style, slower)}) {
      full.apply(delta);
      bounded.apply(delta);
      const Predicted f = predict(full);
      const Predicted b = predict(bounded);
      EXPECT_EQ(b.stats.total, f.stats.total);
      EXPECT_EQ(b.stats.feasible, f.stats.feasible);
      for (std::size_t p = 0; p < full.predictions().eligible.size(); ++p) {
        EXPECT_EQ(first_difference(bounded.predictions().eligible[p],
                                   full.predictions().eligible[p]),
                  -1)
            << "partition " << p;
      }
      SearchOptions options;
      EXPECT_EQ(serve::render_search_result(bounded.search(options)).dump(),
                serve::render_search_result(full.search(options)).dump());
    }
  }
}

TEST(BoundedSweep, FilteredSweepEqualsPrunedRawListOnRandomDags) {
  const lib::ComponentLibrary library = lib::dac91_experiment_library();
  const bad::Predictor predictor;
  Rng rng(20240611);
  std::size_t bound_skips = 0;
  std::size_t dominance_skips = 0;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    dfg::RandomDagSpec spec;
    spec.operations = static_cast<int>(rng.uniform(6, 40));
    spec.depth = static_cast<int>(rng.uniform(2, 6));
    spec.mul_fraction = pick(rng, {0.0, 0.3, 0.6, 1.0});
    const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);

    bad::PredictionRequest req;
    req.graph = &bg.graph;
    req.library = &library;
    const bool multi = rng.chance(0.5);
    req.style.clocking = multi ? bad::ClockingStyle::MultiCycle
                               : bad::ClockingStyle::SingleCycle;
    req.style.allow_pipelining = rng.chance(0.8);
    req.clocks = {pick(rng, {100.0, 300.0}),
                  multi ? 1 : static_cast<int>(pick(rng, {5.0, 10.0})), 1};
    req.testability.scan_design = rng.chance(0.3);
    const std::vector<bad::DesignPrediction> raw = predictor.predict(req);
    ASSERT_FALSE(raw.empty());

    std::vector<double> area, perf, power;
    for (const bad::DesignPrediction& p : raw) {
      area.push_back(p.total_area.likely());
      perf.push_back((req.clocks.main_clock + p.clock_overhead_ns) *
                     static_cast<double>(p.ii_main));
      power.push_back(p.power_mw.likely());
    }
    const auto draw = [&rng] { return 0.05 + 0.9 * rng.uniform01(); };
    DesignConstraints constraints;
    constraints.performance_ns = quantile(perf, draw());
    constraints.delay_ns = quantile(perf, draw()) * 2.0;
    if (rng.chance(0.5)) constraints.chip_power_mw = quantile(power, draw());
    FeasibilityCriteria criteria;
    criteria.area_prob = pick(rng, {1.0, 0.6, 0.3});
    criteria.delay_prob = pick(rng, {1.0, 0.8, 0.4});
    criteria.power_prob = pick(rng, {1.0, 0.5});
    const Level1Test level1(quantile(area, draw()), req.clocks, constraints,
                            criteria);

    const std::vector<bad::DesignPrediction> want = prune_level1(raw, level1);
    const bad::FilteredPredictions sweep = predictor.predict(req, level1);
    EXPECT_EQ(sweep.raw_count, raw.size());
    EXPECT_EQ(first_difference(bad::pareto_filter(sweep.admitted), want), -1);
    const Level1Prediction direct = predict_level1(predictor, req, level1);
    EXPECT_EQ(direct.raw_count, raw.size());
    EXPECT_EQ(first_difference(direct.eligible, want), -1);
    bound_skips += sweep.skipped_bound;
    dominance_skips += sweep.skipped_dominated;
  }
  EXPECT_GT(bound_skips, 0u);
  EXPECT_GT(dominance_skips, 0u);
}

TEST(BoundedSweep, PointsFailingLevel1NeverJustifyASkip) {
  // Steered at the case a dominance skip must not take: an earlier point q
  // no worse on (likely area, II, latency) than a later point p's lower
  // bounds, where q fails level 1 and p passes and survives — here q's
  // larger clock overhead breaks a delay budget set between the two. A
  // sweep that let q justify skipping p would lose p.
  const lib::ComponentLibrary library = lib::dac91_experiment_library();
  const StatVal wiring = library.technology().wiring_area_fraction;
  const bad::Predictor predictor;
  Rng rng(77101);
  std::size_t exposed = 0;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    dfg::RandomDagSpec spec;
    spec.operations = static_cast<int>(rng.uniform(6, 24));
    spec.depth = static_cast<int>(rng.uniform(2, 5));
    const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
    bad::PredictionRequest req;
    req.graph = &bg.graph;
    req.library = &library;
    const bool multi = rng.chance(0.5);
    req.style.clocking = multi ? bad::ClockingStyle::MultiCycle
                               : bad::ClockingStyle::SingleCycle;
    req.style.allow_pipelining = rng.chance(0.5);
    req.clocks = {100.0, multi ? 1 : 5, 1};
    const std::vector<bad::DesignPrediction> raw = predictor.predict(req);

    // delay_prob 1 compares the delay triangle's hi end.
    const auto delay_hi = [&req](const bad::DesignPrediction& d) {
      return (req.clocks.main_clock + 1.15 * d.clock_overhead_ns) *
             static_cast<double>(d.latency_main);
    };
    // With only a delay budget B binding, x passes level 1 iff
    // delay_hi(x) <= B; p then survives unless a passing point dominates
    // it or ties it earlier.
    const auto survives = [&](std::size_t j, double budget) {
      for (std::size_t k = 0; k < raw.size(); ++k) {
        if (k == j || delay_hi(raw[k]) > budget) continue;
        const bad::DesignPrediction& x = raw[k];
        const bad::DesignPrediction& p = raw[j];
        if (bad::dominates(x, p)) return false;
        if (k < j && x.style == p.style &&
            x.total_area.likely() == p.total_area.likely() &&
            x.ii_main == p.ii_main && x.latency_main == p.latency_main) {
          return false;
        }
      }
      return true;
    };
    std::optional<std::size_t> witnessed;
    for (std::size_t j = 0; j < raw.size() && !witnessed; ++j) {
      const bad::DesignPrediction& p = raw[j];
      const double fu = p.fu_area.likely();
      const double floor = (StatVal(fu) + wiring * fu).likely();
      for (std::size_t i = 0; i < j; ++i) {
        const bad::DesignPrediction& q = raw[i];
        if (q.style == p.style && q.total_area.likely() <= floor &&
            q.ii_main <= p.ii_main && q.latency_main <= p.latency_main &&
            delay_hi(q) > delay_hi(p)) {
          if (survives(j, delay_hi(p))) witnessed = j;
          break;
        }
      }
    }
    if (!witnessed) continue;
    DesignConstraints constraints;
    constraints.performance_ns = 1e12;
    constraints.delay_ns = delay_hi(raw[*witnessed]);
    FeasibilityCriteria criteria;
    criteria.delay_prob = 1.0;
    const Level1Test level1(1e12, req.clocks, constraints, criteria);
    const std::vector<bad::DesignPrediction> want = prune_level1(raw, level1);
    ASSERT_NE(std::find(want.begin(), want.end(), raw[*witnessed]),
              want.end());
    ++exposed;
    const Level1Prediction got = predict_level1(predictor, req, level1);
    EXPECT_EQ(first_difference(got.eligible, want), -1);
  }
  EXPECT_GE(exposed, 10u);
}

TEST(BoundedSweep, PrunedOnlySessionRefusesRawListWork) {
  const io::Project project = scenario(5);
  ChopSession session = project.make_session();
  session.set_pruned_searches_only(true);
  session.predict_partitions();
  SearchOptions pruned;
  const SearchResult result = session.search(pruned);
  for (const GlobalDesign& design : result.designs) {
    EXPECT_NO_THROW(session.guideline(design));
  }
  SearchOptions keep_all;
  keep_all.prune = false;
  EXPECT_THROW(session.search(keep_all), Error);
  GlobalDesign unpruned;
  unpruned.prune = false;
  unpruned.choice.assign(session.partitioning().partitions().size(), 0);
  EXPECT_THROW(session.guideline(unpruned), Error);

  // The declaration governs searches even over raw lists it did not build.
  ChopSession held = project.make_session();
  held.predict_partitions();
  EXPECT_NO_THROW(held.search(keep_all));
  held.set_pruned_searches_only(true);
  EXPECT_THROW(held.search(keep_all), Error);
  held.set_pruned_searches_only(false);
  EXPECT_NO_THROW(held.search(keep_all));
}

}  // namespace
}  // namespace chop::core
