// ChopSession — the public facade of the partitioner, mirroring the
// designer loop of the paper's Figure 1: create/modify partitions, run
// BAD per partition (with level-1 pruning), search for feasible global
// implementations, inspect the guideline output, modify, repeat.
//
// One drive path: apply(EvalDelta) is the only mutator, the §2.7 edit as
// data. It reports which partitions it dirtied, and predict_partitions()
// then re-runs BAD only for those (every partition whose inputs are
// unchanged keeps its lists). search() runs over the stored lists on the
// session's memoizing evaluator. The result is byte-identical to a cold
// session's predict+search of the same state (the incremental_research
// oracle in chop_fuzz and tests/eval_delta_test enforce this).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "bad/predictor.hpp"
#include "core/eval/candidate_evaluator.hpp"
#include "core/eval/eval_delta.hpp"
#include "core/partitioning.hpp"
#include "core/search.hpp"

namespace chop::core {

/// Complete experiment configuration (paper §2.2 input group 6, plus the
/// §5 testability extension).
struct ChopConfig {
  bad::ArchitectureStyle style;
  bad::ClockSpec clocks;
  DesignConstraints constraints;
  FeasibilityCriteria criteria;
  bad::PredictorOptions predictor;
  bad::TestabilityOptions testability;
};

/// Statistics of one predict-partitions pass (Tables 3/5 rows).
struct PredictionStats {
  std::size_t total = 0;     ///< Raw predictions from BAD.
  std::size_t feasible = 0;  ///< After level-1 pruning (feasible, non-inferior).
  /// Partitions whose raw BAD run was skipped because nothing the
  /// prediction depends on changed since the last pass.
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

  /// Monotone revision counter: 0 at construction, bumped by every
  /// apply() — including no-op deltas, so a revision id names an apply
  /// event, not a distinct state.
  std::uint64_t revision() const { return revision_; }

  /// Applies one structured §2.7 modification and reports its impact:
  /// which partitions now need fresh predictions, whether the delta was a
  /// no-op (state fingerprint unchanged), and whether it only moved the
  /// constraint budget (integration cores stay reusable). Any other delta
  /// invalidates the stored predictions, so search() throws until
  /// predict_partitions() runs again; a no-op keeps them valid. Throws
  /// chop::Error (strong guarantee on config, but the partitioning may
  /// have been patched) if the delta is invalid against the current state.
  DeltaImpact apply(const EvalDelta& delta);

  /// Runs BAD on every partition whose prediction inputs changed since the
  /// last pass (all of them on the first) and applies level-1 pruning.
  /// Stores the lists for subsequent search() calls and returns the
  /// Table-3/5 stats.
  PredictionStats predict_partitions();

  /// Per-partition prediction lists from the last predict_partitions().
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
  /// have been called since the last apply() that was not a no-op. When
  /// options.evaluator is null the session's own evaluator is used.
  SearchResult search(const SearchOptions& options) const;

  /// Renders the designer guideline for one feasible design (the §3.1
  /// bullet-list output: per-partition style, module library, allocation,
  /// registers, muxes, plus per-transfer-module predictions). The design
  /// is read from the list family its search indexed (GlobalDesign::prune).
  std::string guideline(const GlobalDesign& design) const;

 private:
  /// Cached content keys of one partition's prediction lists, deciding
  /// reuse across predict passes. raw_key digests everything the raw BAD
  /// run reads (clocking environment, testability, memory subsystem,
  /// predictor sweep, partition members); eligible_key additionally
  /// digests what level-1 pruning reads (the chip's usable area, the
  /// constraint budget, the feasibility criteria). Equal keys imply
  /// identical lists by construction.
  struct PartitionPredictState {
    std::uint64_t raw_key = 0;
    std::uint64_t eligible_key = 0;
    bool valid = false;
  };

  std::uint64_t predict_env_key() const;
  std::uint64_t raw_key(std::size_t p, std::uint64_t env_key) const;
  std::uint64_t eligible_key(std::size_t p, std::uint64_t raw) const;

  const lib::ComponentLibrary* library_;
  Partitioning partitioning_;
  ChopConfig config_;
  PartitionPredictions predictions_;
  bool predictions_valid_ = false;
  std::uint64_t revision_ = 0;
  std::vector<PartitionPredictState> predict_cache_;
  /// Session-lifetime memo cache for integrate(); behind a pointer so the
  /// session stays movable (the cache holds mutexes), mutable because
  /// caching is invisible to the session's logical state (search() stays
  /// const). Never null.
  mutable std::unique_ptr<CandidateEvaluator> evaluator_;
};

}  // namespace chop::core
