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
  // Of the graph, shared by every set.
  const std::map<int, int>* memory_accesses = nullptr;
  const OpProfile* ops = nullptr;
};

ModuleSetFacts module_set_facts(const dfg::Graph& g, const lib::ModuleSet& set,
                                std::span<const Cycles> latency,
                                const std::map<int, int>& memory_accesses,
                                const OpProfile& ops) {
  ModuleSetFacts facts;
  facts.set = &set;
  facts.latency = latency;
  facts.memory_accesses = &memory_accesses;
  facts.ops = &ops;
  facts.label = set.label();
  for (const auto& [kind, module] : set.choices()) {
    facts.module_names[kind] = module->name;
    facts.max_width = std::max(facts.max_width, module->width);
  }
  facts.busy_cycles = busy_cycles_by_kind(g, latency);
  return facts;
}

/// Functional-unit area and unit count of one allocation: exact given the
/// allocation, so the same for every schedule of it.
struct FuTotals {
  double area = 0.0;
  int units = 0;
};

FuTotals fu_totals(const lib::ModuleSet& set,
                   const std::map<dfg::OpKind, int>& alloc) {
  FuTotals fu;
  for (const auto& [kind, count] : alloc) {
    fu.area += static_cast<double>(count) * set.module_for(kind).area;
    fu.units += count;
  }
  return fu;
}

/// The timing of one scheduled point, known before it is built.
struct PointTiming {
  Cycles stages = 1;
  Cycles ii_dp = 1;
  Cycles ii_main = 1;
  Cycles latency_main = 1;
};

PointTiming point_timing(const sched::OpSchedule& schedule, DesignStyle style,
                         const ClockSpec& clocks) {
  PointTiming t;
  t.stages = std::max<Cycles>(1, schedule.length);
  t.ii_dp = style == DesignStyle::Pipelined ? schedule.initiation_interval
                                            : t.stages;
  t.ii_main = t.ii_dp * clocks.datapath_multiplier;
  t.latency_main = t.stages * clocks.datapath_multiplier;
  return t;
}

/// Builds the full DesignPrediction for one scheduled point.
DesignPrediction make_prediction(const PredictionRequest& req,
                                 const ModuleSetFacts& facts,
                                 const std::map<dfg::OpKind, int>& alloc,
                                 const FuTotals& fu,
                                 const sched::OpSchedule& schedule,
                                 DesignStyle style, const PointTiming& t) {
  const dfg::Graph& g = *req.graph;
  const lib::ComponentLibrary& library = *req.library;
  const lib::TechnologyParams& tech = library.technology();
  const lib::ModuleSet& set = *facts.set;

  DesignPrediction p;
  p.style = style;
  p.module_set_label = facts.label;
  p.module_names = facts.module_names;
  p.fu_alloc = alloc;
  p.stages = t.stages;
  p.ii_dp = t.ii_dp;
  p.ii_main = t.ii_main;
  p.latency_main = t.latency_main;

  DatapathEstimate dp = estimate_datapath(g, facts.latency, schedule, alloc,
                                          library, *facts.ops);
  // Scan-design overheads (§5): heavier registers, a scan mux on the
  // register setup path, a fatter controller.
  const TestabilityOptions& test = req.env.testability;
  if (test.scan_design) {
    dp.register_area = dp.register_area * test.register_area_factor;
    dp.steering_delay += test.register_delay_penalty_ns;
  }
  p.register_bits = dp.register_bits;
  p.mux_count_likely = dp.mux_count.likely();

  p.fu_area = StatVal(fu.area);
  p.register_area = dp.register_area;
  p.mux_area = dp.mux_area;

  const int register_words = static_cast<int>(
      (p.register_bits + facts.max_width - 1) /
      std::max<Bits>(1, facts.max_width));
  const PlaEstimate pla = estimate_controller(
      p.stages, fu.units, register_words,
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
      dp_overhead / static_cast<double>(req.env.clocks.datapath_multiplier);

  const AreaMil2 support_area = p.register_area.likely() +
                                p.mux_area.likely() +
                                p.controller_area.likely();
  p.power_mw = estimate_datapath_power(set, alloc, facts.busy_cycles, p.ii_dp,
                                       support_area, tech);

  p.memory_accesses = *facts.memory_accesses;
  return p;
}

/// Lower bounds of every level-1 field of a point, known once it is
/// scheduled: exact II and latency; the area triangle of the functional
/// units plus their own wiring share (registers, muxes and controller add
/// nonnegative area, so make_prediction's sums only grow from here); no
/// clock overhead and no power.
Level1Fields level1_floor(const FuTotals& fu, const PointTiming& t,
                          const lib::TechnologyParams& tech) {
  Level1Fields floor;
  floor.total_area = StatVal(fu.area) + tech.wiring_area_fraction * fu.area;
  floor.ii_main = t.ii_main;
  floor.latency_main = t.latency_main;
  return floor;
}

/// The (likely area, II, latency) of the built points a filter admitted,
/// per style, reduced to those no other one is no worse than.
class AdmittedFront {
 public:
  /// True when an admitted point of `style` is no worse than the bounds.
  bool covers(DesignStyle style, double area, Cycles ii,
              Cycles latency) const {
    for (const Entry& e : entries_[index(style)]) {
      if (e.area <= area && e.ii <= ii && e.latency <= latency) return true;
    }
    return false;
  }

  void add(DesignStyle style, double area, Cycles ii, Cycles latency) {
    if (covers(style, area, ii, latency)) return;
    std::vector<Entry>& list = entries_[index(style)];
    std::erase_if(list, [&](const Entry& e) {
      return area <= e.area && ii <= e.ii && latency <= e.latency;
    });
    list.push_back({area, ii, latency});
  }

 private:
  struct Entry {
    double area;
    Cycles ii;
    Cycles latency;
  };

  static std::size_t index(DesignStyle style) {
    return style == DesignStyle::Pipelined ? 1 : 0;
  }

  std::vector<Entry> entries_[2];
};

/// The sweep behind both predict() overloads: every point when `level1`
/// is null, else only the points level 1 could keep.
FilteredPredictions sweep(const PredictionRequest& req,
                          const Level1Filter* level1) {
  obs::TraceSpan span("bad.predict");
  CHOP_REQUIRE(req.graph != nullptr, "prediction request needs a graph");
  CHOP_REQUIRE(req.library != nullptr, "prediction request needs a library");
  const PredictEnv& env = req.env;
  env.clocks.validate();
  env.testability.validate();
  req.graph->validate();

  const dfg::Graph& g = *req.graph;
  const std::vector<dfg::OpKind> kinds = lib::functional_kinds(g);
  CHOP_REQUIRE(req.library->covers(kinds),
               "component library does not cover the graph");
  const lib::TechnologyParams& tech = req.library->technology();

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

  FilteredPredictions out;
  AdmittedFront front;
  // Only the unit counts change per allocation.
  sched::ResourceLimits limits;
  limits.memory_ports = env.memory_ports;
  const OpProfile ops = op_profile(g);
  const std::map<int, int> memory_accesses = memory_profile(g);

  for (const lib::ModuleSet& set :
       lib::enumerate_module_sets(*req.library, kinds)) {
    const auto latency_opt =
        operation_latencies(g, set, env.style.clocking, env.clocks,
                            eligibility_overhead, env.memory_access_time);
    if (!latency_opt) continue;  // single-cycle: module set does not fit
    module_sets.add();
    const std::vector<Cycles>& latency = *latency_opt;
    const ModuleSetFacts facts =
        module_set_facts(g, set, latency, memory_accesses, ops);
    const sched::SchedulePlan plan(g, latency);

    // Allocation sweep: cartesian product of per-kind unit counts.
    std::vector<std::map<dfg::OpKind, int>> allocs{{}};
    for (dfg::OpKind kind : kinds) {
      std::vector<int> counts;
      for (int v : kUnitSweep) {
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
      const FuTotals fu = fu_totals(set, alloc);
      // One point of the unfiltered sweep: skipped when level 1 cannot
      // keep it (see FilteredPredictions), else built.
      const auto visit = [&](const sched::OpSchedule& schedule,
                             DesignStyle style, const PointTiming& t) {
        ++out.raw_count;
        if (level1 != nullptr) {
          const Level1Fields floor = level1_floor(fu, t, tech);
          if (!level1->admits(floor)) {
            ++out.skipped_bound;
            return;
          }
          if (front.covers(style, floor.total_area.likely(), t.ii_main,
                           t.latency_main)) {
            ++out.skipped_dominated;
            return;
          }
        }
        DesignPrediction p =
            make_prediction(req, facts, alloc, fu, schedule, style, t);
        if (level1 != nullptr) {
          if (!level1->admits(level1_fields(p))) return;
          front.add(style, p.total_area.likely(), p.ii_main, p.latency_main);
        }
        out.admitted.push_back(std::move(p));
      };

      limits.fu = alloc;

      const sched::OpSchedule& nonpipe = plan.list_schedule(limits);
      schedules.add();
      CHOP_ASSERT(nonpipe.feasible, "nonpipelined list schedule cannot fail");
      const PointTiming nonpipe_timing =
          point_timing(nonpipe, DesignStyle::Nonpipelined, env.clocks);
      visit(nonpipe, DesignStyle::Nonpipelined, nonpipe_timing);
      const Cycles stages = nonpipe_timing.stages;

      if (!env.style.allow_pipelining || stages <= 1) continue;
      const Cycles min_ii =
          std::max<Cycles>(1, plan.min_initiation_interval(limits));
      Cycles ii_cap = stages - 1;
      if (env.max_ii_dp > 0) ii_cap = std::min(ii_cap, env.max_ii_dp);
      for (Cycles ii = min_ii; ii <= ii_cap; ++ii) {
        const sched::OpSchedule& pipe = plan.pipeline_schedule(limits, ii);
        schedules.add();
        if (!pipe.feasible) continue;
        visit(pipe, DesignStyle::Pipelined,
              point_timing(pipe, DesignStyle::Pipelined, env.clocks));
      }
    }
  }
  static obs::Counter& raw =
      obs::MetricsRegistry::global().counter("bad.predictions_raw");
  static obs::Counter& built_counter =
      obs::MetricsRegistry::global().counter("bad.predictions_built");
  static obs::Counter& skipped_bound =
      obs::MetricsRegistry::global().counter("bad.skipped_bound");
  static obs::Counter& skipped_dominated =
      obs::MetricsRegistry::global().counter("bad.skipped_dominated");
  raw.add(out.raw_count);
  built_counter.add(out.built());
  skipped_bound.add(out.skipped_bound);
  skipped_dominated.add(out.skipped_dominated);
  span.arg("predictions", out.raw_count);
  span.arg("built", out.built());
  span.arg("skipped_bound", out.skipped_bound);
  span.arg("skipped_dominated", out.skipped_dominated);
  return out;
}

}  // namespace

std::vector<DesignPrediction> predict(const PredictionRequest& req) {
  return sweep(req, nullptr).admitted;
}

FilteredPredictions predict(const PredictionRequest& req,
                            const Level1Filter& level1) {
  return sweep(req, &level1);
}

}  // namespace chop::bad
