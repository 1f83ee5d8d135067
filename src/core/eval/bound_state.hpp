// Branch-and-bound support for the enumeration search: admissible
// per-suffix lower bounds plus an incremental prefix accumulator.
//
// The enumeration walks the mixed-radix space of per-partition candidate
// selections. Committing candidates fixes a *prefix* of the selection;
// every quantity a hard constraint checks is then bounded from below by
// the prefix's exact contribution plus a precomputed suffix bound: per-chip
// area and power (sums, plus nonnegative transfer-module terms), the
// system II (a max), the adjusted clock (main clock + max overhead + a
// fixed transfer charge), and the system delay — the longest path through
// the partition/transfer precedence graph, weighted by committed
// latencies, open partitions' minimum latencies and the fixed transfer
// durations. The urgency schedule starts no task before its predecessors
// finish, so its makespan is at least that path. A prefix whose bound
// violates a constraint, or is strictly dominated by the incumbent Pareto
// front, cannot reach the final design set: its subtree is cut.
//
// Admissibility notes:
//  * Triplet (StatVal) bounds combine componentwise minima; triangular
//    CDFs are stochastically monotone in each component, so a bound that
//    fails `satisfies(limit, prob)` guarantees every dominating actual
//    value fails it too.
//  * Area and power sums accumulate in another order than integrate(),
//    and the delay bound can equal a leaf's exact delay, where the CDF is
//    monotone only up to rounding. Those three bounds are shaved by
//    `kBoundSlack` (1e-9 relative, far beyond any rounding drift) before
//    comparing, so rounding noise never cuts a feasible leaf. The
//    dominance test compares integer cycles and needs no slack.
//
// Everything here is immutable after construction (BoundTables) or
// confined to one enumeration worker (PrefixState), so the parallel
// search shares one BoundTables across threads freely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "bad/prediction.hpp"
#include "core/eval/eval_context.hpp"
#include "core/partitioning.hpp"
#include "core/recorder.hpp"

namespace chop::core {

/// Relative shave applied to floating-point lower bounds before the
/// constraint comparison, covering accumulation-order rounding drift.
inline constexpr double kBoundSlack = 1.0 - 1e-9;

/// The slack factor prune() actually applies. Defaults to kBoundSlack;
/// overridable for fault-injection testing (chop_fuzz --inject-bound-bug
/// sets an inadmissible factor > 1 to prove the differential oracles catch
/// a bound that cuts feasible leaves). Never override in production code.
double bound_slack();
void set_bound_slack_for_testing(double slack);

/// Incremental state of one enumeration prefix: exact aggregates of the
/// committed candidates, maintained push/pop in O(1) per step (each push
/// touches exactly one chip). Pops restore the previous values verbatim
/// (no subtraction), so the accumulators never drift.
class PrefixState {
 public:
  /// An empty prefix over the partitions of `pt`, which must outlive it.
  explicit PrefixState(const Partitioning& pt)
      : partitions_(&pt.partitions()),
        area_(pt.chips().size()),
        power_(pt.chips().size()),
        latency_(pt.partitions().size(), 0) {}

  /// Commits `cand` for partition `p`. Returns false — committing nothing
  /// — when the candidate is pipelined at a rate that conflicts with an
  /// already-committed pipelined candidate: every completion of such a
  /// prefix fails rates_compatible(), so the caller can cut the subtree
  /// on the spot.
  bool push(std::size_t p, const bad::DesignPrediction& cand);

  /// Reverts the most recent successful push.
  void pop();

  const StatVal& area(std::size_t chip) const { return area_[chip]; }
  const StatVal& power(std::size_t chip) const { return power_[chip]; }
  Cycles max_ii() const { return max_ii_; }
  Ns max_overhead() const { return max_overhead_; }
  /// Selected latency of partition `p`; meaningful once `p` is committed.
  Cycles latency(std::size_t p) const { return latency_[p]; }

 private:
  struct Frame {
    int chip;
    StatVal prev_area;
    StatVal prev_power;
    Cycles prev_max_ii;
    Ns prev_max_overhead;
    Cycles prev_pipelined_rate;
  };

  const std::vector<Partition>* partitions_;
  std::vector<StatVal> area_;   ///< Committed partition area per chip.
  std::vector<StatVal> power_;  ///< Committed partition power per chip.
  std::vector<Cycles> latency_;  ///< Per partition, set by push().
  Cycles max_ii_ = 0;
  Ns max_overhead_ = 0.0;
  Cycles pipelined_rate_ = 0;  ///< Common pipelined II (0: none committed).
  std::vector<Frame> frames_;
};

/// Precomputed admissible bounds for one (context, candidate lists) pair:
/// the selection-independent transfer facts (from compute_transfer_facts:
/// data-pin budgets, each crossing transfer's duration, the transfer clock
/// charge), fixed memory area per chip, the partition/transfer precedence
/// graph, and, for every count `m` of remaining partitions, componentwise
/// lower bounds over partitions [0, m).
///
/// The enumeration commits partitions from the highest index downward
/// (the highest index is the slowest odometer digit), so "the first m
/// partitions are still open" is exactly the DFS frontier.
class BoundTables {
 public:
  /// `lists` holds one non-empty candidate list per partition.
  BoundTables(const EvalContext& ctx,
              const std::vector<std::vector<bad::DesignPrediction>>& lists);

  /// True when no selection can integrate at all (a chip with no data
  /// pins left): the entire space may be skipped.
  bool space_infeasible() const { return space_infeasible_; }

  /// True when no completion of `prefix` (with partitions [0, remaining)
  /// still open) can be feasible *and* survive non-inferior filtering
  /// against `incumbent`. Admissible: never true for a prefix that
  /// completes to a design in the final set.
  bool prune(const PrefixState& prefix, std::size_t remaining,
             const ParetoFrontier& incumbent) const;

  /// Lower bound, in main-clock cycles, on the system delay of every
  /// completion of `prefix` whose urgency schedule succeeds: the longest
  /// path through the precedence graph, with partitions [0, remaining)
  /// weighted by their minimum candidate latency.
  Cycles delay_bound(const PrefixState& prefix, std::size_t remaining) const;

 private:
  const EvalContext* ctx_;
  bool space_infeasible_ = false;
  Cycles required_ii_ = 0;     ///< Largest crossing-transfer duration.
  Ns transfer_charge_ = 0.0;   ///< Selection-independent clock charge.
  std::vector<StatVal> chip_base_area_;  ///< On-chip memory blocks.
  std::vector<Cycles> min_latency_;  ///< Per partition.

  // The precedence graph. Per partition: the longest transfer with no
  // producing (head) or consuming (tail) partition, and the interpartition
  // transfers into it as (producer, duration).
  std::vector<std::size_t> order_;  ///< Partitions, producers first.
  std::vector<Cycles> head_;
  std::vector<Cycles> tail_;
  std::vector<std::vector<std::pair<std::size_t, Cycles>>> into_;

  // Indexed by remaining-partition count m: aggregates over [0, m).
  std::vector<std::vector<StatVal>> rem_min_area_;   ///< [m][chip].
  std::vector<std::vector<StatVal>> rem_min_power_;  ///< [m][chip].
  std::vector<Cycles> rem_min_ii_max_;   ///< max over p<m of min candidate II.
  std::vector<Cycles> rem_max_ii_;       ///< max over p<m of max candidate II.
  std::vector<Ns> rem_min_overhead_max_;
};

}  // namespace chop::core
