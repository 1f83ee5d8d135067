// Design-space recorder (paper Figures 7/8): when the designer asks CHOP
// to keep every implementation it encounters instead of discarding
// infeasible/inferior ones, the recorder accumulates each design point so
// the explored space can be plotted and counted ("a total of 13411 (699
// unique) designs").
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/csv.hpp"
#include "util/units.hpp"

namespace chop::core {

/// Incremental Pareto frontier over feasible (II, system-delay) points —
/// the incumbent front the branch-and-bound enumerator tests optimistic
/// subtree bounds against. Stores only the non-dominated staircase (II
/// ascending, delay strictly descending), so queries are a binary search.
class ParetoFrontier {
 public:
  /// Adds a feasible design's (ii, delay); dominated entries (either
  /// direction) are folded away. Weakly dominated inserts are no-ops.
  /// Returns true when the staircase tightened (the point was admitted).
  bool insert(Cycles ii, Cycles delay);

  /// Strict-dominance query for bound pruning: true when some inserted
  /// point (i, d) satisfies (i <= ii && d < delay) or (i < ii && d <=
  /// delay). Any design whose coordinates are componentwise >= (ii,
  /// delay) is then guaranteed to be dropped by non-inferior filtering,
  /// so a subtree whose *lower bounds* are (ii, delay) can be cut without
  /// changing the final design set.
  bool dominates_strictly(Cycles ii, Cycles delay) const;

  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }

  /// The staircase, II ascending / delay strictly descending.
  const std::vector<std::pair<Cycles, Cycles>>& points() const {
    return points_;
  }

 private:
  std::vector<std::pair<Cycles, Cycles>> points_;
};

/// One recorded design point: the axes of the paper's scatter plots.
struct DesignPoint {
  Cycles ii_main = 0;
  Cycles delay_main = 0;
  double area_likely = 0.0;
  Ns clock_ns = 0.0;
  bool feasible = false;
};

/// Accumulates design points and tracks the unique count (points rounded
/// onto the plotting grid — II, delay, and area to 3 significant digits).
class DesignSpaceRecorder {
 public:
  void record(const DesignPoint& point);

  std::size_t total() const { return points_.size(); }
  std::size_t unique() const { return unique_keys_.size(); }
  std::size_t feasible_count() const { return feasible_; }

  const std::vector<DesignPoint>& points() const { return points_; }

  /// Pareto front of the feasible points recorded so far, maintained
  /// incrementally — the dominance oracle for bound pruning.
  const ParetoFrontier& frontier() const { return frontier_; }

  /// CSV with one row per recorded point (ii, delay, area, clock,
  /// feasible) for external re-plotting.
  CsvWriter to_csv() const;

  /// Compact textual scatter of delay (rows) vs II (columns) — the shape
  /// of Figures 7/8 rendered for a terminal. `cols`/`rows` set the grid.
  std::string ascii_scatter(int cols = 64, int rows = 20) const;

 private:
  std::vector<DesignPoint> points_;
  std::set<std::string> unique_keys_;
  std::size_t feasible_ = 0;
  ParetoFrontier frontier_;
};

}  // namespace chop::core
