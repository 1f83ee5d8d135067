// BAD — the Behavioral Area-Delay Predictor (paper ref [5], embedded in
// CHOP per Figure 1).
//
// For one partition (a standalone behavioral graph) BAD sweeps the local
// design space: pipelined and nonpipelined styles, every module-set
// combination, and serial-parallel allocation tradeoffs; for each point it
// runs a resource-constrained (or modulo) schedule and predicts registers,
// multiplexers, PLA controller, wiring, clock-cycle overhead and memory
// access profile. The output is the list of predicted designs CHOP's
// global search selects from.
#pragma once

#include <map>
#include <vector>

#include "bad/prediction.hpp"
#include "bad/style.hpp"
#include "bad/testability.hpp"
#include "dfg/graph.hpp"
#include "library/component_library.hpp"

namespace chop::bad {

/// Everything BAD needs to predict one partition.
struct PredictionRequest {
  const dfg::Graph* graph = nullptr;
  const lib::ComponentLibrary* library = nullptr;
  ArchitectureStyle style;
  ClockSpec clocks;

  /// Ports available per memory block the partition accesses (missing
  /// blocks are unconstrained).
  std::map<int, int> memory_ports;
  /// Access time per block id (indexed; missing -> one datapath cycle).
  std::vector<Ns> memory_access_time;

  /// Cap on enumerated pipelined initiation intervals, in datapath cycles
  /// (0 = up to the nonpipelined stage count). CHOP derives this from the
  /// performance constraint — "approximately 60 possible initiation
  /// intervals are considered for each implementation" (§3.2).
  Cycles max_ii_dp = 0;

  /// Scan-design overheads (§5 extension); disabled by default.
  TestabilityOptions testability;
};

/// Knobs of the sweep itself.
struct PredictorOptions {
  /// Candidate functional-unit counts per operation kind; values above the
  /// kind's operation count are skipped.
  std::vector<int> unit_sweep = {1, 2, 3, 4, 6, 8, 12, 16};
};

/// A per-point level-1 test the sweep consults (CHOP's is
/// core::Level1Test). It must be monotone: a point it admits makes it
/// admit every point whose area triangle is componentwise no larger and
/// whose other fields are no larger.
class Level1Filter {
 public:
  virtual bool admits(const Level1Fields& point) const = 0;

 protected:
  ~Level1Filter() = default;
};

/// What a sweep under a Level1Filter returns.
struct FilteredPredictions {
  /// The built points the filter admits, in sweep order. pareto_filter()
  /// over them equals pareto_filter() over the points of the unfiltered
  /// sweep the filter admits.
  std::vector<DesignPrediction> admitted;
  /// Size of the unfiltered sweep's list: every point is still scheduled.
  std::size_t raw_count = 0;
  /// Points not built because their lower bounds fail the filter.
  std::size_t skipped_bound = 0;
  /// Points not built because an earlier built, admitted point of the
  /// same style is no worse on (likely area, II, latency).
  std::size_t skipped_dominated = 0;

  /// Points built (make_prediction), admitted or not.
  std::size_t built() const {
    return raw_count - skipped_bound - skipped_dominated;
  }
};

/// The predictor. Stateless apart from options; predict() is const and
/// thread-compatible.
class Predictor {
 public:
  explicit Predictor(PredictorOptions options = {});

  /// Sweeps the design space for `request` and returns every predicted
  /// design (CHOP prunes infeasible/inferior ones — Table 3/5 count these
  /// raw totals). Throws chop::Error when the request is malformed or the
  /// library cannot cover the graph.
  std::vector<DesignPrediction> predict(const PredictionRequest& request) const;

  /// The same sweep with level 1 inside it: every schedule still runs,
  /// but a point is built only when it could survive `level1` and the
  /// Pareto filter (docs/ARCHITECTURE.md, "Level 1 in the sweep").
  FilteredPredictions predict(const PredictionRequest& request,
                              const Level1Filter& level1) const;

 private:
  FilteredPredictions sweep(const PredictionRequest& request,
                            const Level1Filter* level1) const;

  PredictorOptions options_;
};

}  // namespace chop::bad
