#include "bad/datapath_model.hpp"

#include <algorithm>
#include <cmath>

#include "schedule/register_demand.hpp"

namespace chop::bad {

OpProfile op_profile(const dfg::Graph& g) {
  OpProfile out;
  std::map<dfg::OpKind, OpProfile::Kind> by_kind;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const dfg::Node& n = g.node(static_cast<dfg::NodeId>(i));
    if (dfg::needs_functional_unit(n.kind)) {
      OpProfile::Kind& k = by_kind[n.kind];
      k.kind = n.kind;
      ++k.count;
      k.width = std::max(k.width, n.width);
    } else if (n.kind == dfg::OpKind::Select) {
      out.select_mux_bits += static_cast<double>(n.width);
    }
  }
  for (const auto& [kind, k] : by_kind) out.kinds.push_back(k);
  return out;
}

DatapathEstimate estimate_datapath(const dfg::Graph& g,
                                   std::span<const Cycles> latency,
                                   const sched::OpSchedule& schedule,
                                   const std::map<dfg::OpKind, int>& fu_alloc,
                                   const lib::ComponentLibrary& library) {
  return estimate_datapath(g, latency, schedule, fu_alloc, library,
                           op_profile(g));
}

DatapathEstimate estimate_datapath(const dfg::Graph& g,
                                   std::span<const Cycles> latency,
                                   const sched::OpSchedule& schedule,
                                   const std::map<dfg::OpKind, int>& fu_alloc,
                                   const lib::ComponentLibrary& library,
                                   const OpProfile& ops) {
  DatapathEstimate out;
  out.register_bits = sched::register_demand(g, latency, schedule);

  // Mux sources: selects, FU operand sharing, register write sharing.
  double mux_likely = ops.select_mux_bits;
  int worst_sharing = 1;
  for (const OpProfile::Kind& k : ops.kinds) {
    auto it = fu_alloc.find(k.kind);
    const int units = it == fu_alloc.end() ? static_cast<int>(k.count)
                                           : std::max(1, it->second);
    if (k.count > units) {
      const std::int64_t shared = k.count - units;
      mux_likely += static_cast<double>(shared * 2 * k.width);
      worst_sharing = std::max(
          worst_sharing,
          static_cast<int>((k.count + units - 1) / units));
    }
  }
  // Register write steering: most likely one 2:1 per stored bit.
  mux_likely += static_cast<double>(out.register_bits);

  out.mux_count = StatVal(0.85 * mux_likely, mux_likely, 1.1 * mux_likely);
  out.mux_levels =
      1 + static_cast<int>(std::ceil(std::log2(std::max(2, worst_sharing))));
  out.mux_levels = std::min(out.mux_levels, 4);

  const lib::BitCellSpec reg = library.register_bit();
  const lib::BitCellSpec mux = library.mux_bit();
  out.register_area =
      StatVal(static_cast<double>(out.register_bits)) * reg.area;
  // Registers themselves carry little count uncertainty (lifetimes are
  // measured), but allocation may merge/split words: +/-10%/+20%.
  out.register_area = StatVal(out.register_area.likely() * 0.95,
                              out.register_area.likely(),
                              out.register_area.likely() * 1.1);
  out.mux_area = out.mux_count * mux.area;
  out.steering_delay =
      reg.delay + static_cast<double>(out.mux_levels) * mux.delay;
  return out;
}

}  // namespace chop::bad
