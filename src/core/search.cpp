#include "core/search.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "core/eval/bound_state.hpp"
#include "core/eval/candidate_evaluator.hpp"
#include "core/eval/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chop::core {

std::size_t PartitionPredictions::raw_total() const {
  std::size_t total = 0;
  for (const auto& list : raw) total += list.size();
  return total;
}

std::size_t PartitionPredictions::eligible_total() const {
  std::size_t total = 0;
  for (const auto& list : eligible) total += list.size();
  return total;
}

std::vector<bad::DesignPrediction> prune_level1(
    std::vector<bad::DesignPrediction> predictions, AreaMil2 chip_usable_area,
    const bad::ClockSpec& clocks, const DesignConstraints& constraints,
    const FeasibilityCriteria& criteria) {
  constraints.validate();
  criteria.validate();

  const std::size_t input_count = predictions.size();
  std::vector<bad::DesignPrediction> feasible;
  for (auto& p : predictions) {
    if (!criteria.area_ok(p.total_area, chip_usable_area)) continue;
    // Optimistic clock (the partition's own overhead only — integration
    // can only make it worse, so this prune is conservative/safe).
    const Ns base = clocks.main_clock + p.clock_overhead_ns;
    const StatVal clock(clocks.main_clock + 0.9 * p.clock_overhead_ns, base,
                        clocks.main_clock + 1.15 * p.clock_overhead_ns);
    const StatVal perf = clock * static_cast<double>(p.ii_main);
    if (!criteria.performance_ok(perf, constraints.performance_ns)) continue;
    const StatVal delay = clock * static_cast<double>(p.latency_main);
    if (!criteria.delay_ok(delay, constraints.delay_ns)) continue;
    // Power: a partition alone already over a budget can never integrate.
    if (constraints.power_constrained()) {
      if (!criteria.power_ok(p.power_mw, constraints.chip_power_mw)) continue;
      if (!criteria.power_ok(p.power_mw, constraints.system_power_mw)) {
        continue;
      }
    }
    feasible.push_back(std::move(p));
  }
  const std::size_t feasible_count = feasible.size();
  std::vector<bad::DesignPrediction> kept =
      bad::pareto_filter(std::move(feasible));
  // Constraint-infeasible drops and Pareto-inferior drops are distinct
  // phenomena (the Tables-3/5 reconciliation needs both), so they are
  // counted separately.
  static obs::Counter& pruned_infeasible =
      obs::MetricsRegistry::global().counter("search.pruned_infeasible");
  static obs::Counter& pruned_pareto =
      obs::MetricsRegistry::global().counter("search.pruned_pareto");
  pruned_infeasible.add(input_count - feasible_count);
  pruned_pareto.add(feasible_count - kept.size());
  return kept;
}

namespace {

/// Cooperative cancellation state shared by both heuristics: a borrowed
/// flag plus an optional steady-clock deadline, both from SearchOptions.
/// triggered() is cheap relative to one integrate() call, so walkers may
/// consult it per leaf/trial.
struct CancelState {
  const std::atomic<bool>* flag = nullptr;
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;

  explicit CancelState(const SearchOptions& options)
      : flag(options.cancel),
        deadline(options.deadline),
        has_deadline(options.deadline !=
                     std::chrono::steady_clock::time_point{}) {}

  bool armed() const { return flag != nullptr || has_deadline; }

  bool triggered() const {
    if (flag != nullptr && flag->load(std::memory_order_relaxed)) return true;
    return has_deadline && std::chrono::steady_clock::now() >= deadline;
  }
};

/// The per-trial facts the reporting/merge path needs, detached from the
/// full IntegrationResult so parallel chunks can buffer trials compactly.
struct TrialView {
  bool feasible = false;
  Cycles ii_main = 0;
  Cycles delay_main = 0;
  const char* reason = "";
};

TrialView view_of(const IntegrationResult& result) {
  return TrialView{result.feasible, result.ii_main, result.system_delay_main,
                   result.reason.c_str()};
}

/// Feeds the per-trial metrics counters and the optional SearchObserver
/// for both heuristics. Counter references are cached so the hot loop
/// pays one relaxed atomic add per trial. Always invoked on the search's
/// calling thread, in trial order — the parallel enumeration funnels
/// buffered trials through here during its in-order merge.
class TrialReporter {
 public:
  explicit TrialReporter(obs::SearchObserver* observer)
      : observer_(observer),
        trials_(obs::MetricsRegistry::global().counter("search.trials")),
        feasible_(obs::MetricsRegistry::global().counter("search.feasible")) {}

  void trial(std::size_t trials_so_far, const TrialView& result) {
    trials_.add();
    if (result.feasible) {
      feasible_.add();
      ++feasible_count_;
      if (best_ii_ < 0 || result.ii_main < best_ii_ ||
          (result.ii_main == best_ii_ && result.delay_main < best_delay_)) {
        best_ii_ = result.ii_main;
        best_delay_ = result.delay_main;
      }
    }
    if (observer_ == nullptr) return;
    obs::SearchProgress p;
    p.trials = trials_so_far;
    p.feasible = feasible_count_;
    p.best_ii = best_ii_;
    p.best_delay = best_delay_;
    p.trial_feasible = result.feasible;
    p.reason = result.reason;
    observer_->on_trial(p);
  }

 private:
  obs::SearchObserver* observer_;
  obs::Counter& trials_;
  obs::Counter& feasible_;
  std::size_t feasible_count_ = 0;
  long long best_ii_ = -1;
  long long best_delay_ = -1;
};

/// Builds the recorder point for one integration attempt.
DesignPoint make_point(const std::vector<const bad::DesignPrediction*>& selection,
                       const IntegrationResult& result) {
  DesignPoint point;
  point.ii_main = result.ii_main;
  point.delay_main = result.system_delay_main;
  double area = 0.0;
  for (const bad::DesignPrediction* p : selection) {
    area += p->total_area.likely();
  }
  point.area_likely = area;
  point.clock_ns = result.clock_ns();
  point.feasible = result.feasible;
  return point;
}

/// Keeps only Pareto-optimal (ii, delay) designs, II ascending. The sort
/// must be stable: among designs with equal (ii, delay) the first found
/// wins, and branch-and-bound pruning relies on that tie-break being
/// insertion order (pruning removes only strictly-dominated designs, which
/// can never be the first of an equal group's survivors).
std::vector<GlobalDesign> non_inferior(std::vector<GlobalDesign> designs) {
  std::stable_sort(designs.begin(), designs.end(),
            [](const GlobalDesign& a, const GlobalDesign& b) {
              if (a.integration.ii_main != b.integration.ii_main) {
                return a.integration.ii_main < b.integration.ii_main;
              }
              return a.integration.system_delay_main <
                     b.integration.system_delay_main;
            });
  std::vector<GlobalDesign> kept;
  Cycles best_delay = std::numeric_limits<Cycles>::max();
  Cycles last_ii = -1;
  for (auto& d : designs) {
    if (d.integration.ii_main == last_ii) continue;  // same II, worse delay
    if (d.integration.system_delay_main >= best_delay) continue;  // inferior
    best_delay = d.integration.system_delay_main;
    last_ii = d.integration.ii_main;
    kept.push_back(std::move(d));
  }
  return kept;
}

const std::vector<std::vector<bad::DesignPrediction>>& search_lists(
    const PartitionPredictions& pred, const SearchOptions& options) {
  return options.prune ? pred.eligible : pred.raw;
}

// ---------------------------------------------------------------------------
// Enumeration heuristic: depth-first branch-and-bound.
//
// The combination space is a mixed-radix odometer over the per-partition
// lists, with digit 0 fastest — trial i selects lists[p][(i / stride[p]) %
// len[p]]. The walk is organised as a DFS that commits partitions from the
// highest index (the slowest digit) downward, so its leaf order IS the
// odometer order. With bound pruning on, an incremental PrefixState plus
// the precomputed BoundTables cut subtrees whose admissible lower bounds
// already violate a hard constraint or are strictly dominated by the
// incumbent Pareto frontier; the surviving leaf sequence is a subsequence
// of the exhaustive order and the final design set is provably identical.
//
// Work is split on the outermost digits into a fixed number of units —
// the split depth grows until at least kMinUnits units exist, independent
// of the thread count, so the unit boundaries (and therefore every
// observable output) are identical at any SearchOptions::threads. Units
// evaluate concurrently on a work-stealing pool and merge strictly in
// unit order. Each unit's frontier starts from deterministic seed probes
// (greedy per-partition picks, evaluated up front) and grows only with
// the unit's own feasible finds, so its pruning decisions never depend on
// timing and every output stays byte-identical across thread counts and
// schedules.
// ---------------------------------------------------------------------------

/// One buffered enumeration trial, produced by a worker and consumed by
/// the in-order merge. Holds the reason by value (a TrialView's borrowed
/// pointer would dangle when the record moves — SSO strings relocate).
struct TrialRecord {
  DesignPoint point;
  bool feasible = false;
  Cycles ii_main = 0;
  Cycles delay_main = 0;
  std::string reason;
  std::shared_ptr<const IntegrationResult> result;  ///< Set when feasible.
  std::vector<std::size_t> choice;                  ///< Set when feasible.
};

struct OdometerSpace {
  std::vector<std::size_t> len;
  std::size_t total = 0;       ///< Product of lens, saturated at max().
  bool saturated = false;      ///< Product overflowed std::size_t.
};

OdometerSpace odometer_space(
    const std::vector<std::vector<bad::DesignPrediction>>& lists) {
  OdometerSpace space;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  space.total = 1;
  for (const auto& list : lists) {
    space.len.push_back(list.size());
    if (!list.empty() && space.total > kMax / list.size()) {
      space.saturated = true;
      space.total = kMax;
    } else if (!space.saturated) {
      space.total *= list.size();
    }
  }
  return space;
}

std::size_t sat_mul(std::size_t a, std::size_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<std::size_t>::max() / b) {
    return std::numeric_limits<std::size_t>::max();
  }
  return a * b;
}

std::size_t sat_add(std::size_t a, std::size_t b) {
  return a > std::numeric_limits<std::size_t>::max() - b
             ? std::numeric_limits<std::size_t>::max()
             : a + b;
}

/// Minimum number of work units the outermost-digit split must produce.
/// A constant (never derived from the thread count) so unit boundaries —
/// and with them the per-unit incumbent frontiers of the bounded walk —
/// are identical at every thread count.
constexpr std::size_t kMinUnits = 64;

/// The outermost-digit split: partitions [inner_count, P) are fixed per
/// unit (unit index u decodes to their digits, digit `inner_count`
/// fastest), partitions [0, inner_count) are walked within the unit. Unit
/// u covers global odometer indices [u * leaves_per_unit,
/// (u + 1) * leaves_per_unit) — no global index is ever materialised, so
/// spaces beyond 2^64 combinations split exactly like small ones.
struct UnitPlan {
  std::size_t inner_count = 0;
  std::size_t unit_count = 1;
  std::size_t leaves_per_unit = 1;  ///< Saturated product of inner lens.
};

UnitPlan plan_units(const OdometerSpace& space) {
  UnitPlan plan;
  const std::size_t nparts = space.len.size();
  std::size_t split = 0;
  while (split < nparts && plan.unit_count < kMinUnits) {
    plan.unit_count = sat_mul(plan.unit_count, space.len[nparts - 1 - split]);
    ++split;
  }
  plan.inner_count = nparts - split;
  for (std::size_t p = 0; p < plan.inner_count; ++p) {
    plan.leaves_per_unit = sat_mul(plan.leaves_per_unit, space.len[p]);
  }
  return plan;
}

/// Decodes unit `u` into the outer digits of `digits` (digits[p] for p in
/// [inner_count, P)) and points `selection` at them.
void decode_unit(const std::vector<std::vector<bad::DesignPrediction>>& lists,
                 const UnitPlan& plan, std::size_t u,
                 std::vector<std::size_t>& digits,
                 std::vector<const bad::DesignPrediction*>& selection) {
  std::size_t rest = u;
  for (std::size_t p = plan.inner_count; p < lists.size(); ++p) {
    digits[p] = rest % lists[p].size();
    rest /= lists[p].size();
    selection[p] = &lists[p][digits[p]];
  }
}

/// Evaluates the current selection into a buffered record. Attributed to
/// the leaf_eval phase when profiling (cache-wait time inside the
/// evaluator is additionally broken out as cache_wait).
TrialRecord evaluate_leaf(
    const EvalContext& ctx,
    const std::vector<const bad::DesignPrediction*>& selection,
    const std::vector<std::size_t>& digits, CandidateEvaluator& evaluator,
    obs::PhaseProfile* profile) {
  obs::ScopedPhase phase(profile, obs::SearchPhase::kLeafEval);
  const Cycles ii = combination_ii(selection);
  std::shared_ptr<const IntegrationResult> result =
      evaluator.evaluate(ctx, selection, ii, profile);

  TrialRecord record;
  record.point = make_point(selection, *result);
  record.feasible = result->feasible;
  record.ii_main = result->ii_main;
  record.delay_main = result->system_delay_main;
  record.reason = result->reason;
  if (result->feasible) {
    record.result = std::move(result);
    record.choice = digits;
  }
  return record;
}

/// Everything one unit produces. Records from a unit the merge never
/// consumed (because the trial cap was already reached) may be incomplete
/// — workers abort via the shared stop flag — and are discarded unseen.
struct UnitOutcome {
  std::vector<TrialRecord> records;
  std::size_t pruned_subtrees = 0;
  std::size_t skipped_leaves = 0;  ///< Saturating.
  bool capped = false;  ///< Stopped at the max_trials record budget.
  /// The walk observed a raised cancel flag / expired deadline mid-unit.
  /// Collected records are complete evaluations and stay mergeable.
  bool cancelled = false;
};

/// Exhaustive unit walk (bound pruning off): visits the unit's global
/// index range [u*B, u*B + B) clipped to `limit`, in odometer order — the
/// exact historical serial walk, sliced per unit. Units wholly past
/// `limit` come out empty (saturating start arithmetic keeps that correct
/// for > 2^64 spaces: a saturated start is provably >= any limit).
UnitOutcome run_unit_unbounded(
    const EvalContext& ctx,
    const std::vector<std::vector<bad::DesignPrediction>>& lists,
    const UnitPlan& plan, std::size_t u, std::size_t limit,
    const CancelState& cancel, CandidateEvaluator& evaluator,
    obs::PhaseProfile* profile) {
  UnitOutcome out;
  const std::size_t start = sat_mul(u, plan.leaves_per_unit);
  if (start >= limit) return out;
  std::size_t count = limit - start;
  if (plan.leaves_per_unit < count) count = plan.leaves_per_unit;

  std::vector<std::size_t> digits(lists.size(), 0);
  std::vector<const bad::DesignPrediction*> selection(lists.size());
  decode_unit(lists, plan, u, digits, selection);
  for (std::size_t p = 0; p < plan.inner_count; ++p) {
    selection[p] = &lists[p].front();
  }
  if (count < (std::size_t{1} << 20)) out.records.reserve(count);
  for (std::size_t n = 0; n < count; ++n) {
    if (cancel.armed() && cancel.triggered()) {
      out.cancelled = true;
      return out;
    }
    out.records.push_back(
        evaluate_leaf(ctx, selection, digits, evaluator, profile));
    for (std::size_t p = 0; p < plan.inner_count; ++p) {
      if (++digits[p] < lists[p].size()) {
        selection[p] = &lists[p][digits[p]];
        break;
      }
      digits[p] = 0;
      selection[p] = &lists[p].front();
    }
  }
  return out;
}

/// Branch-and-bound unit walk. Commits the unit's outer digits first
/// (pruning the whole unit if the bound already fails), then DFS-walks the
/// inner digits, innermost fastest. `remaining` open partitions are always
/// [0, remaining), matching BoundTables' suffix indexing.
class BoundedWalker {
 public:
  BoundedWalker(const EvalContext& ctx,
                const std::vector<std::vector<bad::DesignPrediction>>& lists,
                const UnitPlan& plan, const BoundTables& tables,
                const ParetoFrontier& seed, std::size_t record_cap,
                const std::atomic<bool>* stop, const CancelState& cancel,
                CandidateEvaluator& evaluator, obs::PhaseProfile* profile)
      : ctx_(ctx),
        lists_(lists),
        plan_(plan),
        tables_(tables),
        record_cap_(record_cap),
        stop_(stop),
        cancel_(cancel),
        evaluator_(evaluator),
        profile_(profile),
        frontier_(seed),
        prefix_(ctx.partitioning().chips().size()),
        digits_(lists.size(), 0),
        selection_(lists.size(), nullptr) {}

  UnitOutcome run(std::size_t u) {
    decode_unit(lists_, plan_, u, digits_, selection_);
    const std::size_t nparts = lists_.size();
    for (std::size_t p = nparts; p-- > plan_.inner_count;) {
      if (!prefix_.push(tables_.chip_of(p), *selection_[p]) ||
          tables_.prune(prefix_, p, frontier_)) {
        ++out_.pruned_subtrees;
        out_.skipped_leaves =
            sat_add(out_.skipped_leaves, plan_.leaves_per_unit);
        return std::move(out_);
      }
    }
    walk(plan_.inner_count);
    return std::move(out_);
  }

 private:
  void walk(std::size_t remaining) {
    if (remaining == 0) {
      leaf();
      return;
    }
    const std::size_t p = remaining - 1;
    for (std::size_t d = 0; d < lists_[p].size(); ++d) {
      digits_[p] = d;
      selection_[p] = &lists_[p][d];
      if (!prefix_.push(tables_.chip_of(p), *selection_[p])) {
        // Pipelined-rate conflict: an exact prune, nothing was committed.
        ++out_.pruned_subtrees;
        out_.skipped_leaves =
            sat_add(out_.skipped_leaves, tables_.leaves_below(p));
        continue;
      }
      if (tables_.prune(prefix_, p, frontier_)) {
        prefix_.pop();
        ++out_.pruned_subtrees;
        out_.skipped_leaves =
            sat_add(out_.skipped_leaves, tables_.leaves_below(p));
        continue;
      }
      walk(p);
      prefix_.pop();
      if (stopped_) return;
    }
  }

  void leaf() {
    if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
      stopped_ = true;  // partial outcome; the merge will never read it
      return;
    }
    if (record_cap_ > 0 && out_.records.size() >= record_cap_) {
      // The in-order merge consumes at most max_trials records in total,
      // so no unit can contribute more: stop *before* evaluating this leaf
      // instead of over-collecting records the merge would only truncate.
      out_.capped = true;
      stopped_ = true;
      return;
    }
    if (cancel_.armed() && cancel_.triggered()) {
      // Unlike a stop-flag abort, a cancelled unit's collected records are
      // complete evaluations — the merge consumes them as a valid prefix.
      out_.cancelled = true;
      stopped_ = true;
      return;
    }
    TrialRecord record =
        evaluate_leaf(ctx_, selection_, digits_, evaluator_, profile_);
    if (record.feasible) frontier_.insert(record.ii_main, record.delay_main);
    out_.records.push_back(std::move(record));
  }

  const EvalContext& ctx_;
  const std::vector<std::vector<bad::DesignPrediction>>& lists_;
  const UnitPlan& plan_;
  const BoundTables& tables_;
  const std::size_t record_cap_;
  const std::atomic<bool>* stop_;
  const CancelState& cancel_;
  CandidateEvaluator& evaluator_;
  obs::PhaseProfile* profile_;
  ParetoFrontier frontier_;
  PrefixState prefix_;
  std::vector<std::size_t> digits_;
  std::vector<const bad::DesignPrediction*> selection_;
  UnitOutcome out_;
  bool stopped_ = false;
};

/// Greedy seed probes: per-partition argmin by (ii, latency) and by
/// (latency, ii). Real integrations (counted as probe_integrations, not
/// trials) whose feasible results seed every unit's incumbent frontier, so
/// dominance pruning bites from the first unit. Each seed is a leaf the
/// walk itself would visit: a feasible seed can never be pruned along its
/// own path (the bounds there are lower bounds of its own exact values),
/// so every design the seeds dominate away stays dominated by a design in
/// the merged result.
ParetoFrontier seed_frontier(
    const EvalContext& ctx,
    const std::vector<std::vector<bad::DesignPrediction>>& lists,
    CandidateEvaluator& evaluator, SearchResult& out,
    obs::Counter& probe_counter, obs::PhaseProfile* profile) {
  obs::ScopedPhase phase(profile, obs::SearchPhase::kSeedProbes);
  ParetoFrontier seed;
  const std::size_t nparts = lists.size();
  if (nparts == 0) return seed;
  std::vector<const bad::DesignPrediction*> by_ii(nparts);
  std::vector<const bad::DesignPrediction*> by_latency(nparts);
  for (std::size_t p = 0; p < nparts; ++p) {
    by_ii[p] = by_latency[p] = &lists[p].front();
    for (const bad::DesignPrediction& cand : lists[p]) {
      if (cand.ii_main < by_ii[p]->ii_main ||
          (cand.ii_main == by_ii[p]->ii_main &&
           cand.latency_main < by_ii[p]->latency_main)) {
        by_ii[p] = &cand;
      }
      if (cand.latency_main < by_latency[p]->latency_main ||
          (cand.latency_main == by_latency[p]->latency_main &&
           cand.ii_main < by_latency[p]->ii_main)) {
        by_latency[p] = &cand;
      }
    }
  }
  const auto probe = [&](const std::vector<const bad::DesignPrediction*>& s) {
    ++out.probe_integrations;
    probe_counter.add();
    const std::shared_ptr<const IntegrationResult> result =
        evaluator.evaluate(ctx, s, combination_ii(s), profile);
    if (result->feasible) {
      seed.insert(result->ii_main, result->system_delay_main);
    }
  };
  probe(by_ii);
  if (by_latency != by_ii) probe(by_latency);
  return seed;
}

/// Merges one trial into the accumulating SearchResult, in trial order.
void merge_trial(SearchResult& out, TrialRecord record, TrialReporter& reporter,
                 const SearchOptions& options,
                 std::vector<GlobalDesign>& feasible) {
  ++out.trials;
  if (options.record_all) out.recorder.record(record.point);
  reporter.trial(out.trials,
                 TrialView{record.feasible, record.ii_main, record.delay_main,
                           record.reason.c_str()});
  if (record.feasible) {
    ++out.feasible_raw;
    feasible.push_back(
        GlobalDesign{std::move(record.choice), *record.result, options.prune});
  }
}

SearchResult search_enumeration(const EvalContext& ctx,
                                const PartitionPredictions& pred,
                                const SearchOptions& options,
                                CandidateEvaluator& evaluator) {
  SearchResult out;
  const auto& lists = search_lists(pred, options);
  CHOP_REQUIRE(lists.size() == ctx.partitioning().partitions().size(),
               "prediction lists must match partition count");
  for (const auto& list : lists) {
    if (list.empty()) return out;  // some partition has no implementation
  }

  const CancelState cancel(options);
  if (cancel.armed() && cancel.triggered()) {
    out.cancelled = true;  // already cancelled / deadline in the past
    return out;
  }

  static obs::Counter& pruned_counter =
      obs::MetricsRegistry::global().counter("search.pruned_subtrees");
  static obs::Counter& skipped_counter =
      obs::MetricsRegistry::global().counter("search.bound_skipped_leaves");
  static obs::Counter& probe_counter =
      obs::MetricsRegistry::global().counter("search.probe_integrations");

  const OdometerSpace space = odometer_space(lists);
  std::size_t limit = space.total;
  if (options.max_trials > 0 && options.max_trials < space.total) {
    limit = options.max_trials;
  }

  const bool bounded = options.bound_pruning;
  const UnitPlan plan = plan_units(space);

  obs::PhaseProfile* profile = options.profile;
  std::unique_ptr<BoundTables> tables;
  ParetoFrontier seed;
  if (bounded) {
    obs::TraceSpan tables_span("search.bound_tables");
    {
      obs::ScopedPhase phase(profile, obs::SearchPhase::kBoundTables);
      tables = std::make_unique<BoundTables>(ctx, lists);
    }
    seed = seed_frontier(ctx, lists, evaluator, out, probe_counter, profile);
    tables_span.arg("partitions", lists.size());
    tables_span.arg("units", plan.unit_count);
    tables_span.arg("seed_points", seed.size());
    if (tables->space_infeasible()) {
      // No selection can integrate (e.g. a chip with no data pins left):
      // the historical walk would have visited every leaf only to fail it.
      out.pruned_subtrees = 1;
      out.bound_skipped_leaves = space.total;
      pruned_counter.add(out.pruned_subtrees);
      skipped_counter.add(out.bound_skipped_leaves);
      return out;
    }
  }

  std::vector<GlobalDesign> feasible;
  TrialReporter reporter(options.observer);
  std::atomic<bool> stop{false};

  // Every bounded unit may collect up to max_trials records: the in-order
  // merge never consumes more than that from any single unit.
  const auto run_unit = [&](std::size_t u) -> UnitOutcome {
    if (bounded) {
      return BoundedWalker(ctx, lists, plan, *tables, seed, options.max_trials,
                           &stop, cancel, evaluator, profile)
          .run(u);
    }
    return run_unit_unbounded(ctx, lists, plan, u, limit, cancel, evaluator,
                              profile);
  };

  // In-order merge state. `reached_cap`/`more_after_cap` are computed only
  // from units the merge actually consumed, which all completed before the
  // stop flag could have been raised — deterministic at any thread count.
  // `cancel_hit` is the one timing-dependent stop: the merge folds in the
  // cancelled unit's complete prefix of records, then stops consuming.
  bool reached_cap = false;
  bool more_after_cap = false;
  bool cancel_hit = false;
  const std::size_t unit_count = plan.unit_count;
  // Takes the outcome by value so a merged unit's records are freed here,
  // not when the search returns.
  const auto consume = [&](std::size_t u, UnitOutcome unit) {
    obs::ScopedPhase phase(profile, obs::SearchPhase::kMerge);
    out.pruned_subtrees = sat_add(out.pruned_subtrees, unit.pruned_subtrees);
    out.bound_skipped_leaves =
        sat_add(out.bound_skipped_leaves, unit.skipped_leaves);
    for (std::size_t i = 0; i < unit.records.size(); ++i) {
      merge_trial(out, std::move(unit.records[i]), reporter, options,
                  feasible);
      if (options.max_trials > 0 && out.trials >= options.max_trials) {
        reached_cap = true;
        more_after_cap = (i + 1 < unit.records.size()) || unit.capped ||
                         (u + 1 < unit_count);
        stop.store(true, std::memory_order_relaxed);
        return;
      }
    }
    if (unit.cancelled) {
      cancel_hit = true;
      stop.store(true, std::memory_order_relaxed);
    }
  };

  {
    // A parallel search runs its units on a pool: an external one
    // (serve's, shared across jobs) interleaves them with everyone
    // else's; otherwise a private work-stealing pool serves this search
    // only. A serial search runs them inline.
    const bool parallel = options.threads > 1 && unit_count > 1;
    std::optional<obs::TraceSpan> span;
    ThreadPool* pool = nullptr;
    std::unique_ptr<ThreadPool> private_pool;
    if (parallel) {
      span.emplace("search.parallel");
      pool = options.pool;
      if (pool == nullptr) {
        private_pool = std::make_unique<ThreadPool>(
            std::min<int>(options.threads, static_cast<int>(unit_count)));
        pool = private_pool.get();
      }
    }
    // Pool threads have no ambient trace context; hand them this span's
    // so unit spans join the job's trace tree instead of floating free.
    const obs::TraceContext unit_ctx =
        parallel ? span->context() : obs::TraceContext{};
    ordered_fold(
        pool, unit_count, stop,
        [&](std::size_t u) -> UnitOutcome {
          if (!parallel) {
            if (cancel.armed() && cancel.triggered()) {
              UnitOutcome none;  // cancelled before the unit began
              none.cancelled = true;
              return none;
            }
            return run_unit(u);
          }
          obs::TraceContextScope ctx_scope(unit_ctx);
          obs::TraceSpan unit_span("search.parallel.unit");
          unit_span.arg("unit", u);
          return run_unit(u);
        },
        consume);
    if (parallel) {
      span->arg("threads", options.threads);
      span->arg("units", unit_count);
      span->arg("trials", out.trials);
    }
  }

  pruned_counter.add(out.pruned_subtrees);
  skipped_counter.add(out.bound_skipped_leaves);

  // Unbounded truncation is exact (the walk stops at a known global
  // index); bounded truncation is deterministically pessimistic — the
  // un-walked tail might have contained no further survivors.
  out.truncated =
      bounded ? (reached_cap && more_after_cap) : (limit < space.total);
  out.cancelled = cancel_hit;
  out.designs = non_inferior(std::move(feasible));
  return out;
}

// ---------------------------------------------------------------------------
// Iterative heuristic (Figure 5).
// ---------------------------------------------------------------------------

SearchResult search_iterative(const EvalContext& ctx,
                              const PartitionPredictions& pred,
                              const SearchOptions& options,
                              CandidateEvaluator& evaluator) {
  SearchResult out;
  const auto& input_lists = search_lists(pred, options);
  const Partitioning& pt = ctx.partitioning();
  CHOP_REQUIRE(input_lists.size() == pt.partitions().size(),
               "prediction lists must match partition count");
  for (const auto& list : input_lists) {
    if (list.empty()) return out;
  }

  // "Sort all predicted implementations for all Pi in increasing order
  // first for the initiation interval and then for the circuit delay."
  std::vector<std::vector<const bad::DesignPrediction*>> lists(
      input_lists.size());
  for (std::size_t p = 0; p < input_lists.size(); ++p) {
    for (const auto& pr : input_lists[p]) lists[p].push_back(&pr);
    std::sort(lists[p].begin(), lists[p].end(),
              [](const bad::DesignPrediction* a,
                 const bad::DesignPrediction* b) {
                if (a->ii_main != b->ii_main) return a->ii_main < b->ii_main;
                return a->latency_main < b->latency_main;
              });
  }

  // Candidate initiation intervals: every distinct achievable II within
  // the performance budget (optimistically at the nominal clock).
  std::set<Cycles> candidate_iis;
  for (const auto& list : lists) {
    for (const bad::DesignPrediction* p : list) {
      if (static_cast<double>(p->ii_main) * ctx.clocks().main_clock <=
          ctx.constraints().performance_ns) {
        candidate_iis.insert(p->ii_main);
      }
    }
  }

  std::vector<GlobalDesign> feasible;
  std::vector<const bad::DesignPrediction*> selection(lists.size());
  TrialReporter reporter(options.observer);
  const CancelState cancel(options);
  // The serialization probes bypass the trial count (the paper's counts
  // exclude them) but are real integrations — surfaced via this counter
  // so --progress/metrics no longer under-report work done. The memo
  // cache also means a probe revisited by the main walk costs nothing.
  static obs::Counter& probe_counter =
      obs::MetricsRegistry::global().counter("search.probe_integrations");

  obs::PhaseProfile* profile = options.profile;
  auto integrate_at = [&](const std::vector<std::size_t>& w) {
    for (std::size_t p = 0; p < lists.size(); ++p) {
      selection[p] = lists[p][w[p]];
    }
    const Cycles ii = combination_ii(selection);
    return evaluator.evaluate(ctx, selection, ii, profile);
  };

  for (Cycles l : candidate_iis) {
    // Acceptance at rate l (Figure 5's advance condition, made rate-safe):
    // a nonpipelined implementation sustains any rate at or above its
    // latency (it idles), a pipelined one only its designed rate — the
    // data-rate-mismatch rule. Both the initial advance and every
    // serialization step move Wi to the next acceptable position, so the
    // walk stays inside rate-compatible space.
    auto acceptable = [l](const bad::DesignPrediction* cand) {
      if (cand->style == bad::DesignStyle::Nonpipelined) {
        return cand->ii_main <= l;
      }
      return cand->ii_main == l;
    };
    auto next_acceptable = [&](std::size_t p, std::size_t from) {
      while (from < lists[p].size() && !acceptable(lists[p][from])) ++from;
      return from;
    };

    // Initialize Wi to the fastest acceptable implementation.
    std::vector<std::size_t> w(lists.size(), 0);
    bool exhausted = false;
    for (std::size_t p = 0; p < lists.size(); ++p) {
      w[p] = next_acceptable(p, 0);
      if (w[p] == lists[p].size()) exhausted = true;
    }
    if (exhausted) continue;  // no implementation sustains rate l

    while (true) {
      if (options.max_trials > 0 && out.trials >= options.max_trials) {
        out.truncated = true;
        break;
      }
      if (cancel.armed() && cancel.triggered()) {
        out.cancelled = true;
        break;
      }
      ++out.trials;
      std::shared_ptr<const IntegrationResult> result;
      {
        obs::ScopedPhase phase(profile, obs::SearchPhase::kLeafEval);
        result = integrate_at(w);
      }
      if (options.record_all) {
        out.recorder.record(make_point(selection, *result));
      }
      reporter.trial(out.trials, view_of(*result));

      if (result->feasible) {
        ++out.feasible_raw;
        // Map sorted positions back to indices in the searched list so
        // GlobalDesign::choice means the same thing for both heuristics.
        std::vector<std::size_t> original(w.size());
        for (std::size_t p = 0; p < w.size(); ++p) {
          original[p] = static_cast<std::size_t>(lists[p][w[p]] -
                                                 input_lists[p].data());
        }
        feasible.push_back(
            GlobalDesign{std::move(original), *result, options.prune});
        break;
      }

      // Q: partitions residing on chips whose area constraint is violated.
      std::vector<std::size_t> q;
      for (int chip : result->violated_chips) {
        for (int p : pt.partitions_on_chip(chip)) {
          q.push_back(static_cast<std::size_t>(p));
        }
      }
      if (q.empty()) break;  // not an area problem; serializing won't help

      // Pick the serialization with the minimum expected system delay
      // (urgency scheduling probes, Figure 5). A serialization step moves
      // Wi to the next rate-acceptable, more serial implementation.
      std::size_t best_partition = lists.size();
      std::size_t best_position = 0;
      Cycles best_delay = std::numeric_limits<Cycles>::max();
      for (std::size_t p : q) {
        const std::size_t next = next_acceptable(p, w[p] + 1);
        if (next >= lists[p].size()) continue;
        std::vector<std::size_t> probe = w;
        probe[p] = next;
        ++out.probe_integrations;
        probe_counter.add();
        std::shared_ptr<const IntegrationResult> probed;
        {
          // The Figure-5 urgency probes are the iterative heuristic's
          // analogue of the enumerator's seed probes.
          obs::ScopedPhase phase2(profile, obs::SearchPhase::kSeedProbes);
          probed = integrate_at(probe);
        }
        const Cycles delay = probed->system_delay_main > 0
                                 ? probed->system_delay_main
                                 : std::numeric_limits<Cycles>::max() / 2;
        if (delay < best_delay) {
          best_delay = delay;
          best_partition = p;
          best_position = next;
        }
      }
      if (best_partition == lists.size()) break;  // nothing to serialize
      w[best_partition] = best_position;
    }
    if (out.truncated || out.cancelled) break;
  }

  out.designs = non_inferior(std::move(feasible));
  return out;
}

}  // namespace

SearchResult find_feasible_implementations(const EvalContext& ctx,
                                           const PartitionPredictions& pred,
                                           const SearchOptions& options) {
  const bool enumeration = options.heuristic == Heuristic::Enumeration;
  obs::TraceSpan span(enumeration ? "search.enumeration" : "search.iterative");
  CHOP_REQUIRE(options.threads >= 1, "search needs at least one thread");
  if (options.profile != nullptr) options.profile->add_search();

  // A caller-provided evaluator carries its memo across searches (the
  // session/auto-partition/clock-sweep reuse cases); otherwise a private
  // one still serves repeats within this run.
  CandidateEvaluator local_evaluator;
  CandidateEvaluator& evaluator =
      options.evaluator != nullptr ? *options.evaluator : local_evaluator;

  SearchResult out = enumeration
                         ? search_enumeration(ctx, pred, options, evaluator)
                         : search_iterative(ctx, pred, options, evaluator);

  // Feasible global designs discarded as Pareto-inferior (level-2 prune).
  static obs::Counter& pruned_inferior =
      obs::MetricsRegistry::global().counter("search.pruned_inferior");
  pruned_inferior.add(out.feasible_raw - out.designs.size());
  if (out.cancelled) {
    static obs::Counter& cancelled_counter =
        obs::MetricsRegistry::global().counter("search.cancelled");
    cancelled_counter.add();
  }
  span.arg("trials", out.trials);
  span.arg("feasible", out.feasible_raw);
  span.arg("designs", out.designs.size());
  span.arg("truncated", out.truncated);
  span.arg("cancelled", out.cancelled);
  span.arg("threads", options.threads);
  if (enumeration) {
    span.arg("pruned_subtrees", out.pruned_subtrees);
    span.arg("bound_skipped_leaves", out.bound_skipped_leaves);
  }

  if (options.observer != nullptr) {
    obs::SearchProgress p;
    p.trials = out.trials;
    p.feasible = out.feasible_raw;
    if (!out.designs.empty()) {
      p.best_ii = out.designs.front().integration.ii_main;
      p.best_delay = out.designs.front().integration.system_delay_main;
      p.trial_feasible = true;
    }
    options.observer->on_done(p);
  }
  return out;
}

}  // namespace chop::core
