// The unit of BAD's output: one completely specified predicted design for
// one partition — the design decisions (style, module set, allocation) and
// the predicted characteristics (area triplets, performance, delay, clock
// overhead, memory access profile). CHOP's search selects one
// DesignPrediction per partition and integrates them (paper §2.4).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bad/style.hpp"
#include "dfg/graph.hpp"
#include "util/statval.hpp"
#include "util/units.hpp"

namespace chop::bad {

/// One predicted implementation of a partition.
struct DesignPrediction {
  // --- design decisions (the guideline CHOP reports to the designer) ---
  DesignStyle style = DesignStyle::Nonpipelined;
  std::string module_set_label;                  ///< e.g. "add2+mul3".
  std::map<dfg::OpKind, std::string> module_names;
  std::map<dfg::OpKind, int> fu_alloc;           ///< Units per op kind.

  // --- schedule characteristics ---
  Cycles stages = 1;        ///< Control steps (datapath cycles), the latency.
  Cycles ii_dp = 1;         ///< Initiation interval in datapath cycles.
  Cycles ii_main = 1;       ///< Initiation interval in main-clock cycles.
  Cycles latency_main = 1;  ///< Input-to-output delay in main-clock cycles.

  // --- datapath characteristics ---
  Bits register_bits = 0;
  double mux_count_likely = 0.0;  ///< 1-bit 2:1 equivalents.

  // --- area breakdown (mil^2 triplets) ---
  StatVal fu_area;
  StatVal register_area;
  StatVal mux_area;
  StatVal controller_area;
  StatVal wiring_area;
  StatVal total_area;

  /// Datapath-side delay charged to every *main* clock cycle
  /// (steering + wiring + controller, amortized over the datapath
  /// multiplier). System integration adds the transfer-side charge.
  Ns clock_overhead_ns = 0.0;

  /// Predicted datapath power, mW (the §5 power extension). Transfer-side
  /// power is added at system integration.
  StatVal power_mw;

  /// Memory accesses per iteration, per memory block id.
  std::map<int, int> memory_accesses;

  /// Total memory words touched per iteration (all blocks).
  int total_memory_accesses() const;

  /// One-line summary for logs and the designer guideline output.
  std::string summary() const;

  bool operator==(const DesignPrediction&) const = default;
};

/// The fields of a prediction that CHOP's level-1 pruning reads (paper
/// §2.1). A filtered sweep also fills them with lower bounds of a point
/// it has scheduled but not yet built (Predictor::predict).
struct Level1Fields {
  StatVal total_area;
  Ns clock_overhead_ns = 0.0;
  Cycles ii_main = 1;
  Cycles latency_main = 1;
  StatVal power_mw;
};

Level1Fields level1_fields(const DesignPrediction& p);

/// Pareto dominance on (most-likely area, II, latency): true when `a` is no
/// worse than `b` on all three and strictly better on at least one. Used by
/// CHOP's "inferior prediction" pruning (paper §2.1).
bool dominates(const DesignPrediction& a, const DesignPrediction& b);

/// Removes dominated predictions; stable order of survivors.
std::vector<DesignPrediction> pareto_filter(
    std::vector<DesignPrediction> predictions);

}  // namespace chop::bad
