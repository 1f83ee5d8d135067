// The differential / metamorphic oracle battery of the fuzzing harness.
//
// Every generated scenario is pushed through a set of independent checks,
// each of which compares two executions of the partitioner that are
// REQUIRED to agree, or an invariant that must hold of any single run:
//
//  spec_roundtrip     write -> parse -> write is byte-stable
//  bounded_sweep      a pruned-only session (level 1 inside BAD's sweep)
//                     predicts the default session's eligible lists,
//                     totals and schedule count exactly
//  bound_pruning      branch-and-bound E == exhaustive E (design set), and
//                     trials + bound_skipped_leaves == product of lists
//  thread_determinism E at 1/2/4/8 threads: identical designs, counters,
//                     recorder contents and observer callback sequence
//  generation_determinism
//                     the multilevel partition generator's full result is
//                     byte-identical at 1/2/4/8 portfolio threads
//  eval_cache         memoized evaluator == caching disabled
//  enum_vs_iterative  every iterative design is feasible and weakly
//                     dominated by some enumeration design (E is complete)
//  tighten/loosen     tightening any hard constraint never grows the
//                     feasible set; loosening never shrinks it; reserving
//                     extra pins never adds feasible designs
//  statval            triangular-CDF probabilities stay in [0, 1], are
//                     monotone in the query point, and satisfies() is
//                     monotone in the constraint bound
//
// The metamorphic group runs with SearchOptions::prune = false: the
// searched raw lists do not depend on the constraint vector, so feasible
// trial-index sets are directly comparable across constraint variants.
#pragma once

#include <string>
#include <vector>

#include "io/spec_format.hpp"

namespace chop::testing {

/// Caps and toggles for one battery run. Scenario spaces larger than the
/// caps are skipped (and reported as skipped — never silently).
struct OracleLimits {
  std::size_t max_eligible_product = 20000;  ///< Bounded-search oracles.
  std::size_t max_raw_product = 60000;       ///< Metamorphic (raw-list) group.
  bool metamorphic = true;
  std::vector<int> thread_counts = {2, 4, 8};
};

/// One oracle violation: which oracle and a deterministic description.
struct OracleFailure {
  std::string oracle;
  std::string detail;
};

/// Outcome of one scenario's battery run.
struct ScenarioReport {
  bool skipped = false;  ///< Design space exceeded OracleLimits.
  std::size_t eligible_product = 0;
  std::size_t raw_product = 0;
  std::size_t designs = 0;  ///< Enumeration design count.
  std::size_t trials = 0;   ///< Bounded enumeration trials.
  std::vector<OracleFailure> failures;

  bool ok() const { return failures.empty(); }
};

/// Runs the full battery over one project. Exceptions from the partitioner
/// itself are caught and reported as `harness` failures, so a crash in any
/// layer still yields a shrinkable report.
ScenarioReport run_oracles(const io::Project& project,
                           const OracleLimits& limits);

}  // namespace chop::testing
