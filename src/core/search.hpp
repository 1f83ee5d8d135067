// CHOP's global search: selecting one predicted implementation per
// partition such that the integrated system is feasible (paper §2.4).
//
// Two run-time selectable heuristics, per the paper: explicit enumeration
// over all combinations of per-partition implementations (with immediate
// pruning of infeasible/inferior global designs), and the iterative
// algorithm of Figure 5 that walks feasible initiation intervals from
// fastest implementations toward more serial ones, serializing partitions
// on area-violated chips by minimum incremental system delay. "Neither of
// the heuristics can be claimed to be better than the other in terms of
// the quality of results or run-time but they explore the design space
// differently."
//
// Both heuristics run on the evaluation engine (src/core/eval/): an
// immutable EvalContext carries the problem, and a memoizing
// CandidateEvaluator services the integrations, except that an
// enumeration longer than the evaluator's capacity integrates through a
// per-thread IntegrationMemo instead. The enumeration heuristic
// is a depth-first branch-and-bound walk over the odometer space: an
// incremental PrefixState plus precomputed BoundTables (src/core/eval/
// bound_state.hpp) cut whole subtrees whose admissible lower bounds
// already violate a hard constraint or are dominated by the incumbent
// Pareto front, while provably returning the identical design set as the
// exhaustive walk. The work is split on top-level digit prefixes into a
// fixed number of units; every unit prunes against the same deterministic
// seed probes plus its own finds, runs as one batch on a thread pool
// with one locked task queue (SearchOptions::threads workers, or an
// external shared pool), and merges in prefix order as soon as it is
// ready — the SearchResult (trials, feasible_raw, designs, recorder
// contents, observer callback sequence) is identical across thread
// counts and scheduling orders.
#pragma once

#include <atomic>
#include <chrono>
#include <vector>

#include "bad/prediction.hpp"
#include "bad/predictor.hpp"
#include "core/integration.hpp"
#include "core/recorder.hpp"
#include "obs/observer.hpp"
#include "obs/phase_profile.hpp"

namespace chop::core {

class CandidateEvaluator;
class ThreadPool;

/// Which search heuristic to run ("H" column of Tables 4/6).
enum class Heuristic { Enumeration, Iterative };

inline char to_char(Heuristic h) {
  return h == Heuristic::Enumeration ? 'E' : 'I';
}

/// Search knobs.
struct SearchOptions {
  Heuristic heuristic = Heuristic::Enumeration;
  /// Discard infeasible/inferior designs immediately (the paper's default;
  /// disabling reproduces the Figures 7/8 "keep all implementations" runs).
  bool prune = true;
  /// Record every encountered global design in the result's recorder.
  bool record_all = false;
  /// Safety cap on integration attempts (0 = unlimited). The paper's own
  /// unpruned experiment-2 run died of swap space; we fail gracefully.
  std::size_t max_trials = 0;
  /// Live-progress observer: sees every counted trial and a final
  /// summary. Not owned; may be null (the default — zero overhead).
  /// Callbacks always fire on the calling thread, in trial order, even
  /// when threads > 1 (they are serialized through the merge step).
  obs::SearchObserver* observer = nullptr;
  /// Worker threads for the enumeration heuristic. 1 (the default) is
  /// exactly the historical serial behavior; N > 1 evaluates prefix
  /// units concurrently with a deterministic in-order merge. Must be
  /// >= 1 here — the CLI/daemon layers map a user-facing `0` to the
  /// hardware thread count via ThreadPool::resolve_threads() before
  /// building these options. The iterative heuristic is inherently
  /// sequential and ignores this.
  int threads = 1;
  /// External thread pool to run enumeration units on (not owned).
  /// May be shared across concurrent searches — serve passes one shared
  /// pool so a long search's units interleave with other jobs instead of
  /// monopolizing workers. Null (the default): the search spins up a
  /// private pool when threads > 1. Ignored when threads <= 1.
  ThreadPool* pool = nullptr;
  /// Shared memo cache (not owned; may outlive many searches). When null,
  /// the search uses a private cache that lives for this call only —
  /// ChopSession::search() substitutes its session-lifetime evaluator.
  /// The enumeration consults it only when its leaf limit (the space, or
  /// max_trials when smaller) is at most its capacity(); otherwise it
  /// neither reads nor fills it.
  CandidateEvaluator* evaluator = nullptr;
  /// Cooperative cancellation: when non-null and set to true, the search
  /// stops early and returns whatever it has found so far with
  /// SearchResult::cancelled raised. The enumeration heuristic honors the
  /// flag at prefix-unit granularity (a unit is at most 1/64th of the
  /// space) and between buffered leaves of a bounded unit; the iterative
  /// heuristic checks before every trial. Not owned; may be null.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional wall-clock deadline on the steady clock (the default —
  /// time_point{} — means no deadline). Checked at the same granularity
  /// as `cancel`; an expired deadline behaves exactly like a raised
  /// cancel flag. A deadline already in the past yields an immediately
  /// cancelled, empty result — never a crash.
  std::chrono::steady_clock::time_point deadline{};
  /// Branch-and-bound subtree pruning for the enumeration heuristic.
  /// Admissible lower bounds cut subtrees that provably cannot contribute
  /// to `designs`, so the returned design set is byte-identical with the
  /// flag on or off; `trials` (visited leaves), and therefore the observer
  /// sequence and recorder contents, shrink when subtrees are cut. The
  /// iterative heuristic ignores this.
  bool bound_pruning = true;
  /// Per-phase wall-clock attribution (bound tables, seed probes, leaf
  /// evals, merge, cache wait). Not owned; null (the default) disables
  /// the phase timers entirely — not even a clock read on the hot path.
  obs::PhaseProfile* profile = nullptr;
};

/// Per-partition prediction lists: BAD's raw output and the level-1-pruned
/// eligible lists the search consumes.
struct PartitionPredictions {
  std::vector<std::vector<bad::DesignPrediction>> raw;
  std::vector<std::vector<bad::DesignPrediction>> eligible;

  std::size_t raw_total() const;
  std::size_t eligible_total() const;
};

/// One feasible global implementation found by a search.
struct GlobalDesign {
  std::vector<std::size_t> choice;  ///< Index into the searched list, per partition.
  IntegrationResult integration;
  /// The SearchOptions::prune of the search that found this design:
  /// `choice` indexes the eligible lists when true, the raw lists when false.
  bool prune = true;
};

/// Search outcome and statistics (the Tables 4/6 columns).
struct SearchResult {
  std::vector<GlobalDesign> designs;  ///< Feasible, non-inferior, II-ascending.
  std::size_t trials = 0;             ///< "Partitioning Imp. Trials".
  std::size_t feasible_raw = 0;       ///< Feasible integrations seen.
  /// Serialization-probe integrations of the iterative heuristic (the
  /// Figure-5 urgency probes). Not counted in `trials` — the paper's trial
  /// counts exclude them — but real work, also tracked by the
  /// `search.probe_integrations` metric.
  std::size_t probe_integrations = 0;
  /// Enumeration subtrees cut by branch-and-bound lower bounds, and the
  /// number of leaf evaluations those cuts skipped (saturating; a
  /// saturated odometer space reports the skipped count as SIZE_MAX).
  /// Also exported as the `search.pruned_subtrees` and
  /// `search.bound_skipped_leaves` metrics.
  std::size_t pruned_subtrees = 0;
  std::size_t bound_skipped_leaves = 0;
  bool truncated = false;             ///< Hit SearchOptions::max_trials.
  /// Stopped early by SearchOptions::cancel or an expired deadline. The
  /// result is a valid partial answer: every reported design was fully
  /// evaluated, but un-walked combinations may hide better ones.
  bool cancelled = false;
  DesignSpaceRecorder recorder;       ///< Populated when record_all.
};

/// Level 1's per-point test (paper §2.1): whether one prediction is
/// feasible on its own — area within its chip's usable area, initiation
/// interval, latency and power within the absolute constraints even before
/// integration. The clock it charges is the partition's own overhead only;
/// integration can only make it worse, so the test is conservative. It is
/// monotone in every field, so BAD's sweep may apply it to lower bounds.
class Level1Test final : public bad::Level1Filter {
 public:
  Level1Test(AreaMil2 chip_usable_area, const bad::ClockSpec& clocks,
             const DesignConstraints& constraints,
             const FeasibilityCriteria& criteria);

  bool admits(const bad::Level1Fields& p) const override;

 private:
  AreaMil2 usable_area_;
  Ns main_clock_;
  DesignConstraints constraints_;
  FeasibilityCriteria criteria_;
};

/// Level-1 pruning (paper §2.1): drops the predictions `level1` rejects,
/// then removes Pareto-inferior predictions. Drops are counted separately
/// as `search.pruned_infeasible` and `search.pruned_pareto`.
std::vector<bad::DesignPrediction> prune_level1(
    std::vector<bad::DesignPrediction> predictions, const Level1Test& level1);

/// The same, building the test from its inputs.
std::vector<bad::DesignPrediction> prune_level1(
    std::vector<bad::DesignPrediction> predictions, AreaMil2 chip_usable_area,
    const bad::ClockSpec& clocks, const DesignConstraints& constraints,
    const FeasibilityCriteria& criteria);

/// One partition's level-1 list built inside BAD's sweep.
struct Level1Prediction {
  std::vector<bad::DesignPrediction> eligible;
  std::size_t raw_count = 0;  ///< Size of predictor.predict(request).
};

/// prune_level1(predictor.predict(request), level1), byte for byte, from a
/// sweep that builds only the points level 1 could keep and never holds
/// the raw list. The drop counters still sum to raw_count minus the
/// eligible count; a point skipped as dominated counts as a Pareto drop.
Level1Prediction predict_level1(const bad::Predictor& predictor,
                                const bad::PredictionRequest& request,
                                const Level1Test& level1);

/// Runs the selected heuristic over `pred` (uses `eligible` when
/// options.prune, else `raw`) under `ctx`, which must describe the same
/// partitioning the predictions were made for.
SearchResult find_feasible_implementations(const EvalContext& ctx,
                                           const PartitionPredictions& pred,
                                           const SearchOptions& options);

}  // namespace chop::core
