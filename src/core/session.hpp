// ChopSession — the public facade of the partitioner, mirroring the
// designer loop of the paper's Figure 1: create/modify partitions, run
// BAD per partition (with level-1 pruning), search for feasible global
// implementations, inspect the guideline output, modify, repeat.
//
// One drive path: apply(EvalDelta) is the only mutator, the §2.7 edit as
// data. predict_partitions() then decides what the edit made stale, by
// exact comparison. Each pass builds one bad::PredictEnv from the config
// and the memory blocks (style, clocks, pipelined-II cap, testability,
// ports, access times); a partition's raw inputs are its members plus
// that env. The pass re-runs BAD only for partitions whose raw inputs
// differ from the values their stored list was built from, and re-prunes
// only lists whose pruning inputs differ. search() runs over the stored
// lists on the session's memoizing evaluator. The result is
// byte-identical to a cold session's predict+search of the same state (the
// incremental_research oracle in chop_fuzz and tests/eval_delta_test
// enforce this).
//
// A session may also consult a PredictionMemo (core/prediction_memo.hpp)
// shared with other sessions over the same graph and library: a stale
// partition whose exact inputs are in the memo takes its eligible list
// from there instead of running BAD. Such a partition then holds no raw
// list, so only pruned searches run on the session.
//
// A session declared pruned-only (set_pruned_searches_only()) runs level 1
// inside BAD's sweep for every stale partition: it builds only the
// predictions level 1 could keep, gets the same eligible list and raw
// count, and holds no raw list — the state a memo hit leaves. Served jobs
// that are not keep-all and generation's scoring sessions declare it;
// every other session keeps its raw lists.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "bad/predictor.hpp"
#include "core/eval/candidate_evaluator.hpp"
#include "core/eval/eval_delta.hpp"
#include "core/partitioning.hpp"
#include "core/prediction_memo.hpp"
#include "core/search.hpp"

namespace chop::core {

/// Complete experiment configuration (paper §2.2 input group 6, plus the
/// §5 testability extension).
struct ChopConfig {
  bad::ArchitectureStyle style;
  bad::ClockSpec clocks;
  DesignConstraints constraints;
  FeasibilityCriteria criteria;
  bad::TestabilityOptions testability;
};

/// Statistics of one predict-partitions pass (Tables 3/5 rows).
struct PredictionStats {
  std::size_t total = 0;     ///< Raw predictions from BAD.
  std::size_t feasible = 0;  ///< After level-1 pruning (feasible, non-inferior).
  /// Partitions whose raw BAD run was skipped: nothing the prediction
  /// depends on changed since the last pass, or the attached
  /// PredictionMemo held the partition's exact inputs. `total` still
  /// counts such a partition's raw list at its full size.
  std::size_t reused = 0;
};

/// The interactive partitioning session. Owns the partitioning state;
/// references the specification and library, which must outlive it.
class ChopSession {
 public:
  ChopSession(const lib::ComponentLibrary& library, Partitioning partitioning,
              ChopConfig config);

  /// The library is referenced, not copied — a temporary would dangle.
  ChopSession(lib::ComponentLibrary&&, Partitioning, ChopConfig) = delete;

  const Partitioning& partitioning() const { return partitioning_; }

  const ChopConfig& config() const { return config_; }

  /// Applies one structured §2.7 modification and invalidates the stored
  /// predictions: search() throws until predict_partitions() runs again,
  /// and that pass decides which lists the edit made stale. Throws
  /// chop::Error if the delta is invalid against the current state; the
  /// config is then unchanged, but the partitioning may have been patched.
  void apply(const EvalDelta& delta);

  /// Attaches `memo` (not owned; null detaches), which every later
  /// predict_partitions() consults. The memo must outlive its use here and
  /// hold only entries built over this session's specification graph and
  /// component library; its key covers everything else.
  void set_prediction_memo(PredictionMemo* memo) { memo_ = memo; }

  /// Declares (off by default) that every search on this session is
  /// pruned. Later predict_partitions() passes then predict each stale
  /// partition with level 1 inside BAD's sweep (core::predict_level1):
  /// the same eligible list and `total`, no raw list. While it is on, an
  /// unpruned search() or guideline() throws chop::Error. A list built
  /// under it stays raw-free until its partition's inputs change.
  void set_pruned_searches_only(bool on) { pruned_searches_only_ = on; }

  /// Runs BAD on every partition whose raw inputs differ from those of its
  /// stored list (all of them on the first pass) and re-applies level-1
  /// pruning wherever the raw list or the pruning inputs changed. Stores
  /// the lists for subsequent search() calls and returns the Table-3/5
  /// stats.
  ///
  /// With a memo attached, a partition that needs BAD first looks up its
  /// exact raw and pruning inputs there: a hit copies the eligible list and
  /// leaves the partition's raw list empty (it counts in `reused`), and a
  /// miss stores the eligible list it computed.
  PredictionStats predict_partitions();

  /// Per-partition prediction lists from the last predict_partitions().
  /// A partition served from the memo or predicted pruned-only has an
  /// empty raw list.
  const PartitionPredictions& predictions() const { return predictions_; }

  /// Data transfer tasks of the current partitioning.
  std::vector<DataTransfer> transfer_tasks() const;

  /// The evaluation context for the current partitioning + configuration:
  /// the (partitioning, transfers, clocks, constraints, criteria,
  /// extra-pins) tuple every integrate() needs. The returned context
  /// references this session's partitioning — keep the session alive.
  EvalContext make_eval_context() const;

  /// The session-lifetime memo cache. Every search() on this session
  /// shares it, so clock sweeps and repeated searches over unchanged
  /// state hit the cache; content-hashed keys make entries from stale
  /// configurations harmless (they simply stop matching).
  CandidateEvaluator& evaluator() const { return *evaluator_; }

  /// Runs a search over the stored predictions. predict_partitions() must
  /// have been called since the last apply(), and an unpruned search
  /// (options.prune false) throws chop::Error on a pruned-only session or
  /// while a partition holds no raw list. When options.evaluator is null
  /// the session's own evaluator is used.
  SearchResult search(const SearchOptions& options) const;

  /// Renders the designer guideline for one feasible design (the §3.1
  /// bullet-list output: per-partition style, module library, allocation,
  /// registers, muxes, plus per-transfer-module predictions). The design
  /// is read from the list family its search indexed (GlobalDesign::prune);
  /// an unpruned design throws chop::Error where search() would.
  std::string guideline(const GlobalDesign& design) const;

 private:
  /// The inputs one partition's stored lists were built from.
  struct PartitionPredictState {
    RawInputs raw;
    EligibleInputs eligible;
    std::size_t raw_count = 0;  ///< Size of the raw list, held or not.
    bool raw_held = false;      ///< False when the memo served the list.
    bool valid = false;
  };

  /// The prediction environment of the current config and memory blocks.
  /// Fields BAD never reads (the transfer multiplier, the test-pin
  /// reserve) hold fixed values, so a revision that moves only them
  /// reuses every partition's lists.
  bad::PredictEnv predict_env() const;
  EligibleInputs eligible_inputs(std::size_t p) const;
  Level1Test level1_test(const EligibleInputs& eligible) const;
  /// Runs BAD for partition `p` and stores its lists and raw count: the
  /// raw list and its level-1 prune, or, pruned-only, the eligible list
  /// from the bounded sweep.
  void run_bad(std::size_t p, const bad::PredictEnv& env,
               const EligibleInputs& eligible);
  /// Whether an unpruned search or guideline may read the raw lists: the
  /// session is not pruned-only and every partition holds its raw list.
  bool raw_lists_usable() const;

  const lib::ComponentLibrary* library_;
  Partitioning partitioning_;
  ChopConfig config_;
  PartitionPredictions predictions_;
  bool predictions_valid_ = false;
  std::vector<PartitionPredictState> predict_cache_;
  PredictionMemo* memo_ = nullptr;
  bool pruned_searches_only_ = false;
  /// Session-lifetime memo cache for integrate(); behind a pointer so the
  /// session stays movable (the cache holds mutexes), mutable because
  /// caching is invisible to the session's logical state (search() stays
  /// const). Never null.
  mutable std::unique_ptr<CandidateEvaluator> evaluator_;
};

}  // namespace chop::core
