// ChopSession — the public facade of the partitioner, mirroring the
// designer loop of the paper's Figure 1: create/modify partitions, run
// BAD per partition (with level-1 pruning), search for feasible global
// implementations, inspect the guideline output, modify, repeat.
//
// One drive path: apply(EvalDelta) is the only mutator, the §2.7 edit as
// data. predict_partitions() then decides what the edit made stale, by
// exact comparison: it re-runs BAD only for partitions whose raw inputs
// differ from the values their stored list was built from, and re-prunes
// only lists whose pruning inputs differ. search() runs over the stored
// lists on the session's memoizing evaluator. The result is
// byte-identical to a cold session's predict+search of the same state (the
// incremental_research oracle in chop_fuzz and tests/eval_delta_test
// enforce this).
#pragma once

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

  /// Applies one structured §2.7 modification and invalidates the stored
  /// predictions: search() throws until predict_partitions() runs again,
  /// and that pass decides which lists the edit made stale. Throws
  /// chop::Error if the delta is invalid against the current state; the
  /// config is then unchanged, but the partitioning may have been patched.
  void apply(const EvalDelta& delta);

  /// Runs BAD on every partition whose raw inputs differ from those of its
  /// stored list (all of them on the first pass) and re-applies level-1
  /// pruning wherever the raw list or the pruning inputs changed. Stores
  /// the lists for subsequent search() calls and returns the Table-3/5
  /// stats.
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
  /// have been called since the last apply(). When
  /// options.evaluator is null the session's own evaluator is used.
  SearchResult search(const SearchOptions& options) const;

  /// Renders the designer guideline for one feasible design (the §3.1
  /// bullet-list output: per-partition style, module library, allocation,
  /// registers, muxes, plus per-transfer-module predictions). The design
  /// is read from the list family its search indexed (GlobalDesign::prune).
  std::string guideline(const GlobalDesign& design) const;

 private:
  /// The exact values one partition's raw BAD list is built from: its
  /// members, the clocking environment, the pipelined-II cap, the
  /// testability options, the predictor's unit sweep and the memory
  /// blocks' ports and access times (not where the blocks sit).
  struct RawInputs {
    std::vector<dfg::NodeId> members;
    bad::ClockingStyle clocking = bad::ClockingStyle::SingleCycle;
    bool allow_pipelining = false;
    Ns main_clock = 0.0;
    int datapath_multiplier = 0;
    int transfer_multiplier = 0;
    Cycles max_ii_dp = 0;
    bool scan_design = false;
    double register_area_factor = 0.0;
    Ns register_delay_penalty_ns = 0.0;
    double controller_area_factor = 0.0;
    Pins test_pins_per_chip = 0;
    std::vector<int> unit_sweep;
    std::vector<int> memory_ports;
    std::vector<Ns> memory_access_times;

    bool operator==(const RawInputs&) const = default;
  };

  /// What level-1 pruning reads besides the raw list.
  struct EligibleInputs {
    AreaMil2 usable_area = 0.0;
    DesignConstraints constraints;
    FeasibilityCriteria criteria;

    bool operator==(const EligibleInputs&) const = default;
  };

  /// The inputs one partition's stored lists were built from.
  struct PartitionPredictState {
    RawInputs raw;
    EligibleInputs eligible;
    bool valid = false;
  };

  RawInputs raw_inputs(std::size_t p) const;
  EligibleInputs eligible_inputs(std::size_t p) const;

  const lib::ComponentLibrary* library_;
  Partitioning partitioning_;
  ChopConfig config_;
  PartitionPredictions predictions_;
  bool predictions_valid_ = false;
  std::vector<PartitionPredictState> predict_cache_;
  /// Session-lifetime memo cache for integrate(); behind a pointer so the
  /// session stays movable (the cache holds mutexes), mutable because
  /// caching is invisible to the session's logical state (search() stays
  /// const). Never null.
  mutable std::unique_ptr<CandidateEvaluator> evaluator_;
};

}  // namespace chop::core
