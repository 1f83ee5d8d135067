#include "bad/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>

#include "bad/controller_model.hpp"
#include "bad/datapath_model.hpp"
#include "bad/latency_model.hpp"
#include "bad/power_model.hpp"
#include "library/module_set.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "schedule/op_schedule.hpp"

namespace chop::bad {

namespace {

/// Memory accesses per block in `g`.
std::map<int, int> memory_profile(const dfg::Graph& g) {
  std::map<int, int> accesses;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const dfg::Node& n = g.node(static_cast<dfg::NodeId>(i));
    if (n.kind == dfg::OpKind::MemRead || n.kind == dfg::OpKind::MemWrite) {
      accesses[n.memory_block]++;
    }
  }
  return accesses;
}

/// What make_prediction needs that does not depend on the allocation or
/// the schedule: computed once per module set.
struct ModuleSetFacts {
  const lib::ModuleSet* set = nullptr;
  std::span<const Cycles> latency;
  std::string label;
  std::map<dfg::OpKind, std::string> module_names;
  Bits max_width = 1;
  std::map<dfg::OpKind, Cycles> busy_cycles;
  std::map<int, int> memory_accesses;
  const OpProfile* ops = nullptr;  ///< Of the graph, shared by every set.
};

ModuleSetFacts module_set_facts(const dfg::Graph& g, const lib::ModuleSet& set,
                                std::span<const Cycles> latency,
                                const OpProfile& ops) {
  ModuleSetFacts facts;
  facts.set = &set;
  facts.latency = latency;
  facts.ops = &ops;
  facts.label = set.label();
  for (const auto& [kind, module] : set.choices()) {
    facts.module_names[kind] = module->name;
    facts.max_width = std::max(facts.max_width, module->width);
  }
  facts.busy_cycles = busy_cycles_by_kind(g, latency);
  facts.memory_accesses = memory_profile(g);
  return facts;
}

/// Builds the full DesignPrediction for one scheduled point.
DesignPrediction make_prediction(const PredictionRequest& req,
                                 const ModuleSetFacts& facts,
                                 const std::map<dfg::OpKind, int>& alloc,
                                 const sched::OpSchedule& schedule,
                                 DesignStyle style) {
  const dfg::Graph& g = *req.graph;
  const lib::ComponentLibrary& library = *req.library;
  const lib::TechnologyParams& tech = library.technology();
  const lib::ModuleSet& set = *facts.set;

  DesignPrediction p;
  p.style = style;
  p.module_set_label = facts.label;
  p.module_names = facts.module_names;
  p.fu_alloc = alloc;
  p.stages = std::max<Cycles>(1, schedule.length);
  p.ii_dp = style == DesignStyle::Pipelined
                ? schedule.initiation_interval
                : p.stages;
  p.ii_main = p.ii_dp * req.clocks.datapath_multiplier;
  p.latency_main = p.stages * req.clocks.datapath_multiplier;

  DatapathEstimate dp = estimate_datapath(g, facts.latency, schedule, alloc,
                                          library, *facts.ops);
  // Scan-design overheads (§5): heavier registers, a scan mux on the
  // register setup path, a fatter controller.
  const TestabilityOptions& test = req.testability;
  test.validate();
  if (test.scan_design) {
    dp.register_area = dp.register_area * test.register_area_factor;
    dp.steering_delay += test.register_delay_penalty_ns;
  }
  p.register_bits = dp.register_bits;
  p.mux_count_likely = dp.mux_count.likely();

  // Functional unit area is exact given the allocation.
  double fu_area = 0.0;
  int fu_total = 0;
  for (const auto& [kind, count] : alloc) {
    fu_area += static_cast<double>(count) * set.module_for(kind).area;
    fu_total += count;
  }
  p.fu_area = StatVal(fu_area);
  p.register_area = dp.register_area;
  p.mux_area = dp.mux_area;

  const int register_words = static_cast<int>(
      (p.register_bits + facts.max_width - 1) /
      std::max<Bits>(1, facts.max_width));
  const PlaEstimate pla = estimate_controller(
      p.stages, fu_total, register_words,
      static_cast<int>(dp.mux_count.likely()), tech);
  p.controller_area = test.scan_design
                          ? pla.area * test.controller_area_factor
                          : pla.area;

  const double placed = p.fu_area.likely() + p.register_area.likely() +
                        p.mux_area.likely() + p.controller_area.likely();
  p.wiring_area = tech.wiring_area_fraction * placed;
  p.total_area = p.fu_area + p.register_area + p.mux_area +
                 p.controller_area + p.wiring_area;

  // Per-datapath-cycle overhead: steering + wiring share + controller,
  // amortized over the datapath multiplier onto the main clock.
  const Ns wiring_delay =
      tech.wiring_delay_fraction.likely() * (dp.steering_delay + pla.delay);
  const Ns dp_overhead = dp.steering_delay + pla.delay + wiring_delay;
  p.clock_overhead_ns =
      dp_overhead / static_cast<double>(req.clocks.datapath_multiplier);

  const AreaMil2 support_area = p.register_area.likely() +
                                p.mux_area.likely() +
                                p.controller_area.likely();
  p.power_mw = estimate_datapath_power(set, alloc, facts.busy_cycles, p.ii_dp,
                                       support_area, tech);

  p.memory_accesses = facts.memory_accesses;
  return p;
}

}  // namespace

Predictor::Predictor(PredictorOptions options) : options_(std::move(options)) {
  CHOP_REQUIRE(!options_.unit_sweep.empty(),
               "predictor unit sweep must not be empty");
  for (int v : options_.unit_sweep) {
    CHOP_REQUIRE(v >= 1, "unit sweep entries must be positive");
  }
}

std::vector<DesignPrediction> Predictor::predict(
    const PredictionRequest& req) const {
  obs::TraceSpan span("bad.predict");
  CHOP_REQUIRE(req.graph != nullptr, "prediction request needs a graph");
  CHOP_REQUIRE(req.library != nullptr, "prediction request needs a library");
  req.clocks.validate();
  req.graph->validate();

  const dfg::Graph& g = *req.graph;
  const std::vector<dfg::OpKind> kinds = lib::functional_kinds(g);
  CHOP_REQUIRE(req.library->covers(kinds),
               "component library does not cover the graph");

  // Ops per kind bound the useful allocation sweep.
  std::map<dfg::OpKind, int> ops_of_kind;
  for (dfg::OpKind k : kinds) {
    ops_of_kind[k] = static_cast<int>(g.count_of_kind(k));
  }

  // Steering-delay guess for module-set eligibility under the single-cycle
  // style: a register plus two mux levels — refined per design point later,
  // but eligibility needs a number before the datapath is sized.
  const lib::BitCellSpec reg = req.library->register_bit();
  const lib::BitCellSpec mux = req.library->mux_bit();
  const Ns eligibility_overhead = reg.delay + 2.0 * mux.delay;

  static obs::Counter& module_sets =
      obs::MetricsRegistry::global().counter("bad.module_sets");
  static obs::Counter& schedules =
      obs::MetricsRegistry::global().counter("bad.schedules");

  std::vector<DesignPrediction> out;
  const OpProfile ops = op_profile(g);

  for (const lib::ModuleSet& set :
       lib::enumerate_module_sets(*req.library, kinds)) {
    const auto latency_opt =
        operation_latencies(g, set, req.style.clocking, req.clocks,
                            eligibility_overhead, req.memory_access_time);
    if (!latency_opt) continue;  // single-cycle: module set does not fit
    module_sets.add();
    const std::vector<Cycles>& latency = *latency_opt;
    const ModuleSetFacts facts = module_set_facts(g, set, latency, ops);
    const sched::SchedulePlan plan(g, latency);

    // Allocation sweep: cartesian product of per-kind unit counts.
    std::vector<std::map<dfg::OpKind, int>> allocs{{}};
    for (dfg::OpKind kind : kinds) {
      std::vector<int> counts;
      for (int v : options_.unit_sweep) {
        if (v <= ops_of_kind[kind]) counts.push_back(v);
      }
      if (counts.empty()) counts.push_back(ops_of_kind[kind]);
      std::vector<std::map<dfg::OpKind, int>> next;
      next.reserve(allocs.size() * counts.size());
      for (const auto& base : allocs) {
        for (int c : counts) {
          auto extended = base;
          extended[kind] = c;
          next.push_back(std::move(extended));
        }
      }
      allocs = std::move(next);
    }

    for (const auto& alloc : allocs) {
      sched::ResourceLimits limits;
      limits.fu = alloc;
      limits.memory_ports = req.memory_ports;

      const sched::OpSchedule nonpipe = plan.list_schedule(limits);
      schedules.add();
      CHOP_ASSERT(nonpipe.feasible, "nonpipelined list schedule cannot fail");
      out.push_back(make_prediction(req, facts, alloc, nonpipe,
                                    DesignStyle::Nonpipelined));
      const Cycles stages = out.back().stages;

      if (!req.style.allow_pipelining || stages <= 1) continue;
      const Cycles min_ii =
          std::max<Cycles>(1, plan.min_initiation_interval(limits));
      Cycles ii_cap = stages - 1;
      if (req.max_ii_dp > 0) ii_cap = std::min(ii_cap, req.max_ii_dp);
      for (Cycles ii = min_ii; ii <= ii_cap; ++ii) {
        const sched::OpSchedule pipe = plan.pipeline_schedule(limits, ii);
        schedules.add();
        if (!pipe.feasible) continue;
        out.push_back(make_prediction(req, facts, alloc, pipe,
                                      DesignStyle::Pipelined));
      }
    }
  }
  static obs::Counter& raw =
      obs::MetricsRegistry::global().counter("bad.predictions_raw");
  raw.add(out.size());
  span.arg("predictions", out.size());
  return out;
}

}  // namespace chop::bad
