// Multilevel partition *generation* (ROADMAP item #1): "find me a
// partitioning", not "check mine". A multi-start portfolio of
// coarsen→partition→refine pipelines races diverse candidate cuts of the
// behavioral graph through the real predict+search evaluation:
//
//  1. Coarsen once (gen/coarsen.hpp): heavy-edge matching on
//     transfer-weighted edges folds the operations into a hierarchy of
//     successively smaller graphs, stopping near 2x the chip count.
//  2. Each start builds an initial cut at the coarsest level — a coarse
//     level-order slab, a lifted repaired Kernighan-Lin cut, or a seeded
//     random assignment (reusing baseline/partition_builders) — then
//     projects it back level by level, trying boundary FM/KL-style vertex
//     moves at every level. Candidate cuts are scored by the session
//     pipeline: cheap per-partition prediction gates the move, the full
//     search() runs only on survivors.
//  3. Starts run as one batch on a ThreadPool (a private one capped at
//     num_starts workers, or a shared one) and share one memoizing
//     CandidateEvaluator, so identical candidate integrations
//     across starts are cache hits. Starts are independent — none reads
//     another's progress — and their results fold in start order, so
//     scheduling cannot change which cuts any start evaluates.
//  4. Every feasible design of every evaluated cut folds into one
//     cross-partitioning Pareto frontier over (area, II, delay).
//
// Determinism contract: generate_partitions() returns byte-identical
// results for the same inputs at any thread count and under adversarial
// scheduling (see docs/GENERATION.md), except when cancelled mid-run —
// cancellation, like the search core's, yields a valid partial answer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/session.hpp"

namespace chop::gen {

/// Portfolio and refinement knobs.
struct GenerateOptions {
  /// Diverse starts raced by the portfolio: start 0 seeds from a coarse
  /// level-order cut, start 1 from a lifted repaired-KL cut, the rest from
  /// seeded random coarse assignments.
  int num_starts = 4;
  /// Coarsening keep-going threshold (see CoarsenOptions::ratio).
  double coarsening_ratio = 0.65;
  /// Seed for every random choice; part of the determinism contract.
  std::uint64_t seed = 1;
  /// Cap on predict+search pipeline evaluations per start (0 = 48). The
  /// cheap prediction gate counts like a full evaluation so the budget
  /// bounds wall time, not just search count.
  std::size_t budget = 0;
  /// Portfolio workers (must be >= 1 here; CLI/daemon map 0 via
  /// ThreadPool::resolve_threads). Thread count never changes results.
  int threads = 1;
  /// External pool to run starts on (not owned); null = private pool.
  core::ThreadPool* pool = nullptr;
  /// Boundary-move candidates evaluated per hierarchy level per pass.
  int max_candidates_per_level = 6;
  /// Scoring search for every candidate cut (iterative by default — the
  /// enumeration heuristic explores implementation combinations, which is
  /// overkill inside a cut-generation loop). Its evaluator field, when
  /// null, is pointed at the portfolio's shared evaluator.
  core::SearchOptions search;
  /// Cooperative cancellation / wall-clock deadline, same contract as
  /// SearchOptions: a cancelled run returns a valid partial result with
  /// `cancelled` raised (and forfeits byte-determinism).
  const std::atomic<bool>* cancel = nullptr;
  std::chrono::steady_clock::time_point deadline{};
  /// Per-phase wall-clock attribution (gen_coarsen/gen_initial/gen_refine
  /// plus the search phases). Not owned; null disables the timers.
  obs::PhaseProfile* profile = nullptr;

  GenerateOptions() { search.heuristic = core::Heuristic::Iterative; }
};

/// One point of the cross-partitioning Pareto frontier.
struct FrontierPoint {
  /// The cut this design lives on (member lists, partition p -> chip p).
  std::vector<std::vector<dfg::NodeId>> members;
  /// Selected implementation per partition (index into the searched list).
  std::vector<std::size_t> choice;
  Cycles ii = 0;               ///< System initiation interval, main cycles.
  Cycles delay = 0;            ///< System delay, main cycles.
  AreaMil2 area = 0.0;         ///< Total likely chip area.
  int start = 0;               ///< Portfolio start that found it.
};

/// Outcome of one generate_partitions() run.
struct GenerateResult {
  /// Feasible designs non-dominated over (area, II, delay), sorted by
  /// (II, delay, area, start). Empty when nothing feasible was found.
  std::vector<FrontierPoint> frontier;
  /// Best cut found (the frontier head's cut when feasible, otherwise the
  /// best-scoring infeasible cut — still useful as a designer starting
  /// point).
  std::vector<std::vector<dfg::NodeId>> members;
  /// Full search result at `members`.
  core::SearchResult search;
  std::size_t evaluations = 0;    ///< predict(+search) pipeline runs.
  std::size_t gated = 0;          ///< Candidates stopped at the prediction gate.
  std::size_t starts_run = 0;
  /// Always 0: starts are never cut short. Kept only because the
  /// benchmark's generate workload still reads it.
  std::size_t starts_killed = 0;
  std::size_t levels = 0;         ///< Coarsening hierarchy depth.
  std::size_t coarsest_vertices = 0;
  bool cancelled = false;
  /// Designer-readable decision trail, one entry per notable event.
  std::vector<std::string> log;

  bool feasible() const { return !frontier.empty(); }
};

/// Generates partitionings of `spec` onto `chips` (one partition per
/// chip, partition p on chip p) under `config`. See the file comment
/// for the algorithm and determinism contract. Throws chop::Error when no
/// structurally valid cut can be built at all.
GenerateResult generate_partitions(const dfg::Graph& spec,
                                   const lib::ComponentLibrary& library,
                                   std::vector<chip::ChipInstance> chips,
                                   chip::MemorySubsystem memory,
                                   const core::ChopConfig& config,
                                   const GenerateOptions& options = {});

}  // namespace chop::gen
