// Branch-and-bound support for the enumeration search: admissible
// per-suffix lower bounds plus an incremental prefix accumulator.
//
// The enumeration heuristic walks the mixed-radix space of per-partition
// candidate selections. Committing a candidate for a partition fixes a
// *prefix* of the final selection; everything the integration predicts is
// then bounded from below by
//
//   prefix contribution (exact, accumulated incrementally)
//     + suffix lower bound (precomputed per remaining-partition count)
//
// for every additive/max-combining quantity the hard constraints check:
// per-chip area and power (sums of per-partition triplets plus always-
// nonnegative transfer-module contributions), the system initiation
// interval (max of per-partition IIs), the system delay (the urgency
// schedule's makespan is at least the longest selected latency), and the
// adjusted clock (main clock + max per-partition overhead + a selection-
// independent transfer charge). If the lower bound already violates a
// hard constraint — or is strictly dominated by the incumbent Pareto
// front — no completion of the prefix can reach the final design set, so
// the whole subtree is cut without being visited.
//
// Admissibility notes:
//  * Triplet (StatVal) bounds combine componentwise minima; triangular
//    CDFs are stochastically monotone in each component, so a bound that
//    fails `satisfies(limit, prob)` guarantees every dominating actual
//    value fails it too.
//  * Multi-term floating-point sums are accumulated in a different order
//    than integrate()'s canonical per-leaf order; the bound is therefore
//    relaxed by `kBoundSlack` (a 1e-9 relative shave, orders of magnitude
//    beyond any accumulation-order rounding drift) before comparing, so a
//    feasible leaf can never be cut by rounding noise.
//  * Integer quantities (cycles) combine with exact max — no slack.
//
// Everything here is immutable after construction (BoundTables) or
// confined to one enumeration worker (PrefixState), so the parallel
// search shares one BoundTables across threads freely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bad/prediction.hpp"
#include "core/eval/eval_context.hpp"
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
  explicit PrefixState(std::size_t chip_count)
      : area_(chip_count), power_(chip_count) {}

  /// Commits `cand` for a partition living on `chip`. Returns false —
  /// committing nothing — when the candidate is pipelined at a rate that
  /// conflicts with an already-committed pipelined candidate: every
  /// completion of such a prefix fails rates_compatible(), so the caller
  /// can cut the subtree on the spot.
  bool push(int chip, const bad::DesignPrediction& cand);

  /// Reverts the most recent successful push.
  void pop();

  std::size_t depth() const { return frames_.size(); }
  const StatVal& area(std::size_t chip) const { return area_[chip]; }
  const StatVal& power(std::size_t chip) const { return power_[chip]; }
  Cycles max_ii() const { return max_ii_; }
  Cycles max_latency() const { return max_latency_; }
  Ns max_overhead() const { return max_overhead_; }

 private:
  struct Frame {
    int chip;
    StatVal prev_area;
    StatVal prev_power;
    Cycles prev_max_ii;
    Cycles prev_max_latency;
    Ns prev_max_overhead;
    Cycles prev_pipelined_rate;
  };

  std::vector<StatVal> area_;   ///< Committed partition area per chip.
  std::vector<StatVal> power_;  ///< Committed partition power per chip.
  Cycles max_ii_ = 0;
  Cycles max_latency_ = 0;
  Ns max_overhead_ = 0.0;
  Cycles pipelined_rate_ = 0;  ///< Common pipelined II (0: none committed).
  std::vector<Frame> frames_;
};

/// Precomputed admissible bounds for one (context, candidate lists) pair:
/// the selection-independent integration facts (data-pin budgets, the
/// minimum II any crossing transfer demands, the transfer clock charge,
/// fixed memory area per chip) and, for every count `m` of remaining
/// partitions, componentwise lower bounds over partitions [0, m).
///
/// The enumeration commits partitions from the highest index downward
/// (the highest index is the slowest odometer digit), so "the first m
/// partitions are still open" is exactly the DFS frontier.
class BoundTables {
 public:
  BoundTables(const EvalContext& ctx,
              const std::vector<std::vector<bad::DesignPrediction>>& lists);

  /// True when no selection can integrate at all (e.g. a chip with no
  /// data pins left): the entire space may be skipped.
  bool space_infeasible() const { return space_infeasible_; }

  /// True when no completion of `prefix` (with partitions [0, remaining)
  /// still open) can be feasible *and* survive non-inferior filtering
  /// against `incumbent`. Admissible: never true for a prefix that
  /// completes to a design in the final set.
  bool prune(const PrefixState& prefix, std::size_t remaining,
             const ParetoFrontier& incumbent) const;

  /// Number of leaves in a subtree with `remaining` open partitions,
  /// saturated at SIZE_MAX.
  std::size_t leaves_below(std::size_t remaining) const {
    return rem_leaves_[remaining];
  }

  /// Chip index of partition `p` (cached from the partitioning).
  int chip_of(std::size_t p) const { return chip_of_[p]; }

 private:
  const EvalContext* ctx_;
  bool space_infeasible_ = false;
  Cycles required_ii_ = 0;     ///< Largest crossing-transfer duration.
  Ns transfer_charge_ = 0.0;   ///< Selection-independent clock charge.
  std::vector<int> chip_of_;
  std::vector<StatVal> chip_base_area_;  ///< On-chip memory blocks.
  std::vector<AreaMil2> chip_usable_;

  // Indexed by remaining-partition count m: aggregates over [0, m).
  std::vector<std::vector<StatVal>> rem_min_area_;   ///< [m][chip].
  std::vector<std::vector<StatVal>> rem_min_power_;  ///< [m][chip].
  std::vector<Cycles> rem_min_ii_max_;   ///< max over p<m of min candidate II.
  std::vector<Cycles> rem_max_ii_;       ///< max over p<m of max candidate II.
  std::vector<Cycles> rem_min_latency_max_;
  std::vector<Ns> rem_min_overhead_max_;
  std::vector<std::size_t> rem_leaves_;  ///< Product of list sizes, saturated.
};

}  // namespace chop::core
