// Datapath estimation: register and multiplexer allocation predictions and
// the steering-path delay they add to the clock (paper §2.4: BAD
// "performs detailed predictions on register and multiplexer allocation
// ... as well as the additional delays introduced to the clock cycle
// (register, multiplexer, wiring ...)").
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "dfg/graph.hpp"
#include "library/component_library.hpp"
#include "schedule/op_schedule.hpp"
#include "util/statval.hpp"

namespace chop::bad {

/// Register/mux/steering predictions for one scheduled design point.
struct DatapathEstimate {
  Bits register_bits = 0;   ///< Peak live bits across control steps.
  StatVal mux_count;        ///< 1-bit 2:1 multiplexer equivalents.
  int mux_levels = 1;       ///< Steering depth on the register-to-FU path.
  StatVal register_area;    ///< mil^2.
  StatVal mux_area;         ///< mil^2.
  Ns steering_delay = 0.0;  ///< Register + mux-tree delay per cycle.
};

/// The part of a datapath estimate that depends on the graph alone:
/// operations per functional-unit kind with their widest operand, and the
/// mux bits of Select operations. A predictor computes it once per graph.
struct OpProfile {
  struct Kind {
    dfg::OpKind kind{};
    std::int64_t count = 0;
    Bits width = 0;
  };
  std::vector<Kind> kinds;      ///< Ascending by kind.
  double select_mux_bits = 0.0; ///< Sum of Select widths, in node order.
};

OpProfile op_profile(const dfg::Graph& g);

/// Estimates the datapath for graph `g` scheduled as `schedule` with
/// functional-unit allocation `fu_alloc` (units per op kind); `ops` is
/// op_profile(g).
///
/// Multiplexers come from three sources: operand steering of shared
/// functional units ((ops - units) * operands * width per kind), register
/// input sharing (one 2:1 per stored bit, most likely), and explicit
/// Select operations (width muxes each). The mux count carries
/// (0.85x, 1x, 1.1x) uncertainty — exact steering depends on binding, which
/// prediction intentionally skips.
DatapathEstimate estimate_datapath(const dfg::Graph& g,
                                   std::span<const Cycles> latency,
                                   const sched::OpSchedule& schedule,
                                   const std::map<dfg::OpKind, int>& fu_alloc,
                                   const lib::ComponentLibrary& library,
                                   const OpProfile& ops);

/// The same, computing op_profile(g) for this one call.
DatapathEstimate estimate_datapath(const dfg::Graph& g,
                                   std::span<const Cycles> latency,
                                   const sched::OpSchedule& schedule,
                                   const std::map<dfg::OpKind, int>& fu_alloc,
                                   const lib::ComponentLibrary& library);

}  // namespace chop::bad
