#include "core/integration.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "bad/power_model.hpp"
#include "core/eval/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "schedule/task_schedule.hpp"

namespace chop::core {

Cycles combination_ii(
    const std::vector<const bad::DesignPrediction*>& selection) {
  Cycles ii = 1;
  for (const bad::DesignPrediction* p : selection) {
    CHOP_REQUIRE(p != nullptr, "combination has an unselected partition");
    ii = std::max(ii, p->ii_main);
  }
  return ii;
}

bool rates_compatible(
    const std::vector<const bad::DesignPrediction*>& selection) {
  Cycles pipelined_rate = 0;
  for (const bad::DesignPrediction* p : selection) {
    if (p == nullptr || p->style != bad::DesignStyle::Pipelined) continue;
    if (pipelined_rate == 0) {
      pipelined_rate = p->ii_main;
    } else if (p->ii_main != pipelined_rate) {
      return false;
    }
  }
  return true;
}

namespace {

/// Mux depth implied by `transfers` pin-crossing transfers multiplexing one
/// chip's data pins.
int mux_levels(int transfers) {
  return transfers <= 1 ? 0
                        : static_cast<int>(std::ceil(std::log2(transfers)));
}

struct Counters {
  obs::Counter& attempts =
      obs::MetricsRegistry::global().counter("integration.attempts");
  obs::Counter& infeasible =
      obs::MetricsRegistry::global().counter("integration.infeasible");
};

Counters& counters() {
  static Counters c;
  return c;
}

void check_arguments(const EvalContext& ctx,
                     const std::vector<const bad::DesignPrediction*>& selection,
                     Cycles ii_main) {
  CHOP_REQUIRE(selection.size() == ctx.partitioning().partitions().size(),
               "selection size must match partition count");
  for (const bad::DesignPrediction* p : selection) {
    CHOP_REQUIRE(p != nullptr, "selection has an unselected partition");
  }
  // Clocks/constraints/criteria/extra-pins were validated when the
  // EvalContext was built; only the per-candidate arguments are checked
  // here.
  CHOP_REQUIRE(ii_main >= 1, "system initiation interval must be positive");
}

/// Why an integration failed, in the order integrate() checks.
enum class Fail : std::uint8_t {
  kNone,
  kRateMismatch,
  kSlowerThanIi,
  kNoDataPins,   ///< Names a chip.
  kTransferFit,  ///< Names a transfer.
  kSchedule,
  kArea,
  kPerformance,
  kDelay,
  kChipPower,    ///< Names a chip.
  kSystemPower,
};

struct Failure {
  Fail code = Fail::kNone;
  std::size_t index = 0;  ///< The chip or transfer the reason names.
  explicit operator bool() const { return code != Fail::kNone; }
};

/// The reason text of a failure that names nothing, else null.
const char* fixed_text(Fail code) {
  switch (code) {
    case Fail::kNone: return "";
    case Fail::kRateMismatch: return "pipelined data-rate mismatch";
    case Fail::kSlowerThanIi:
      return "partition slower than the system initiation interval";
    case Fail::kSchedule:
      return "urgency schedule found no feasible pin/memory sharing";
    case Fail::kArea: return "chip area constraint violated";
    case Fail::kPerformance: return "performance constraint violated";
    case Fail::kDelay: return "system delay constraint violated";
    case Fail::kSystemPower: return "system power budget violated";
    case Fail::kNoDataPins:
    case Fail::kTransferFit:
    case Fail::kChipPower: return nullptr;
  }
  return nullptr;
}

std::string failure_text(const EvalContext& ctx, Failure f) {
  const auto& chips = ctx.partitioning().chips();
  switch (f.code) {
    case Fail::kNoDataPins:
      return "chip " + chips[f.index].name +
             " has no data pins left after control reservations";
    case Fail::kTransferFit:
      return "transfer " + ctx.transfers()[f.index].name +
             " cannot fit in the initiation interval (pins)";
    case Fail::kChipPower:
      return "chip power budget violated on " + chips[f.index].name;
    default: return fixed_text(f.code);
  }
}

/// Stage 1: the checks that read only the selection's rates.
Failure precheck(const std::vector<const bad::DesignPrediction*>& selection,
                 Cycles ii_main) {
  if (!rates_compatible(selection)) return {Fail::kRateMismatch};
  for (const bad::DesignPrediction* p : selection) {
    if (p->ii_main > ii_main) return {Fail::kSlowerThanIi};
  }
  return {};
}

/// What integrate() derives from the context alone: pin budgets, each
/// transfer's bandwidth and duration, and the clock's transfer charge.
struct ContextFacts {
  std::vector<Pins> reserved;
  std::vector<Pins> data_pins;
  /// First chip with no data pins left after control reservations, or -1;
  /// when set, the transfer facts below are not computed.
  int starved_chip = -1;
  std::vector<int> sharing;     ///< Pin-crossing transfer count per chip.
  std::vector<Pins> pins;       ///< Per transfer; 0 when on chip.
  std::vector<Cycles> cycles;   ///< X per transfer; 0 when on chip.
  Ns transfer_charge = 0.0;     ///< Pin-mux clock stretch.
};

void compute_facts(const EvalContext& ctx, ContextFacts& f) {
  const Partitioning& pt = ctx.partitioning();
  const std::vector<DataTransfer>& transfers = ctx.transfers();
  const bad::ClockSpec& clocks = ctx.clocks();
  const auto& chips = pt.chips();

  // --- pin budgets -------------------------------------------------------
  reserved_control_pins_into(pt, transfers, 2, f.reserved);
  f.data_pins.assign(chips.size(), 0);
  f.starved_chip = -1;
  for (std::size_t c = 0; c < chips.size(); ++c) {
    f.data_pins[c] =
        chips[c].package.signal_pins() - f.reserved[c] - ctx.extra_pins();
    if (f.data_pins[c] <= 0) {
      f.starved_chip = static_cast<int>(c);
      return;
    }
  }

  f.sharing.assign(chips.size(), 0);
  for (const DataTransfer& t : transfers) {
    for (int c : t.chips) f.sharing[static_cast<std::size_t>(c)]++;
  }

  // --- transfer bandwidth and duration ------------------------------------
  f.pins.assign(transfers.size(), 0);
  f.cycles.assign(transfers.size(), 0);
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const DataTransfer& t = transfers[i];
    // An on-chip move is absorbed in the datapath: no pins, no cycles.
    if (!t.crosses_pins()) continue;
    Pins bw = std::numeric_limits<Pins>::max();
    for (int c : t.chips) {
      bw = std::min(bw, f.data_pins[static_cast<std::size_t>(c)]);
    }
    const Pins pins =
        static_cast<Pins>(std::min<Bits>(bw, std::max<Bits>(1, t.bits)));
    const Cycles transfer_clocks =
        static_cast<Cycles>((t.bits + pins - 1) / std::max<Pins>(1, pins));
    // Pad traversal (out of one chip, into the other) lengthens the
    // transfer rather than the clock — the paper attributes pin-count
    // effects to system delay, not cycle time.
    Ns pad_path = 0.0;
    for (int c : t.chips) {
      pad_path += chips[static_cast<std::size_t>(c)].package.pad_delay;
    }
    const Cycles pad_cycles =
        static_cast<Cycles>(std::ceil(pad_path / clocks.transfer_period()));
    f.pins[i] = pins;
    f.cycles[i] = std::max<Cycles>(
        1, transfer_clocks * clocks.transfer_multiplier + pad_cycles);
  }

  // Only the on-chip pin-multiplexing tree stretches the clock; pad delay
  // is charged to the transfer duration above.
  const lib::BitCellSpec mux{18.0, 4.0};
  f.transfer_charge = 0.0;
  for (std::size_t c = 0; c < chips.size(); ++c) {
    if (f.sharing[c] == 0) continue;
    const Ns path = static_cast<double>(mux_levels(f.sharing[c])) * mux.delay;
    f.transfer_charge =
        std::max(f.transfer_charge,
                 path / static_cast<double>(clocks.transfer_multiplier));
  }
}

/// The structure stage's result for one pin-crossing transfer.
struct TransferShape {
  Cycles wait_cycles = 0;
  Bits buffer_bits = 0;
  bad::PlaEstimate controller;
  StatVal module_area;
  StatVal module_power_mw;
};

/// Stage 2's result: a function of the II and of each partition's
/// latency and local memory-block demands.
struct Structure {
  Failure failure;  ///< kNoDataPins, kTransferFit or kSchedule.
  Cycles makespan = 0;
  std::vector<TransferShape> transfers;  ///< Per transfer, when no failure.
};

struct StructureScratch {
  sched::TaskGraph tg;
  std::vector<int> pin_res;
  std::vector<int> mem_res;  ///< Resource id per memory block (flat).
  std::vector<int> pu_task;
  std::vector<int> transfer_task;
};

/// Stage 2: the system task graph, its urgency schedule, and each
/// pin-crossing transfer's wait, buffer, controller, area and power.
void build_structure(const EvalContext& ctx, const ContextFacts& f,
                     const std::vector<const bad::DesignPrediction*>& selection,
                     Cycles ii_main, StructureScratch& sc, Structure& out) {
  const Partitioning& pt = ctx.partitioning();
  const std::vector<DataTransfer>& transfers = ctx.transfers();
  const auto& partitions = pt.partitions();
  const auto& chips = pt.chips();
  out.failure = {};
  out.makespan = 0;
  out.transfers.clear();

  if (f.starved_chip >= 0) {
    out.failure = {Fail::kNoDataPins,
                   static_cast<std::size_t>(f.starved_chip)};
    return;
  }
  // Hard data-clash rule: X must fit within the initiation interval.
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    if (f.cycles[i] > ii_main) {
      out.failure = {Fail::kTransferFit, i};
      return;
    }
  }

  // --- system task graph and urgency schedule -----------------------------
  sched::TaskGraph& tg = sc.tg;
  tg.tasks.clear();
  tg.precedence.clear();
  tg.capacity.clear();
  // Resources: one per chip (data pins), one per memory block (ports).
  sc.pin_res.assign(chips.size(), -1);
  for (std::size_t c = 0; c < chips.size(); ++c) {
    sc.pin_res[c] = tg.add_resource(f.data_pins[c]);
  }
  sc.mem_res.assign(pt.memory().blocks.size(), -1);
  for (std::size_t b = 0; b < pt.memory().blocks.size(); ++b) {
    sc.mem_res[b] = tg.add_resource(pt.memory().blocks[b].ports);
  }

  sc.pu_task.assign(partitions.size(), -1);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    sched::Task task;
    task.name = partitions[p].name;
    task.duration = selection[p]->latency_main;
    // Local memory port occupancy while the PU runs.
    for (const auto& [block, accesses] : selection[p]->memory_accesses) {
      (void)accesses;
      if (pt.memory().placement(block) == partitions[p].chip) {
        task.demands.emplace_back(
            sc.mem_res[static_cast<std::size_t>(block)], 1);
      }
    }
    sc.pu_task[p] = tg.add_task(std::move(task));
  }

  sc.transfer_task.assign(transfers.size(), -1);
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const DataTransfer& t = transfers[i];
    sched::Task task;
    task.name = t.name;
    task.duration = f.cycles[i];
    for (int c : t.chips) {
      task.demands.emplace_back(sc.pin_res[static_cast<std::size_t>(c)],
                                f.pins[i]);
    }
    if (t.memory_block >= 0 && t.crosses_pins()) {
      task.demands.emplace_back(
          sc.mem_res[static_cast<std::size_t>(t.memory_block)], 1);
    }
    const int id = tg.add_task(std::move(task));
    sc.transfer_task[i] = id;

    // Precedence: producer -> transfer -> consumer.
    const auto pu = [&](int partition) {
      return sc.pu_task[static_cast<std::size_t>(partition)];
    };
    switch (t.kind) {
      case DataTransfer::Kind::InputDelivery:
        tg.add_precedence(id, pu(t.dst_partition));
        break;
      case DataTransfer::Kind::OutputCollection:
        tg.add_precedence(pu(t.src_partition), id);
        break;
      case DataTransfer::Kind::Interpartition:
        tg.add_precedence(pu(t.src_partition), id);
        tg.add_precedence(id, pu(t.dst_partition));
        break;
      case DataTransfer::Kind::MemoryRead:
        tg.add_precedence(id, pu(t.dst_partition));
        break;
      case DataTransfer::Kind::MemoryWrite:
        tg.add_precedence(pu(t.src_partition), id);
        break;
    }
  }

  const sched::TaskSchedule schedule = sched::urgency_schedule(tg, ii_main);
  if (!schedule.feasible) {
    out.failure = {Fail::kSchedule};
    return;
  }
  out.makespan = schedule.makespan;

  // --- wait times and buffers ---------------------------------------------
  const lib::TechnologyParams tech;  // transfer modules use default tech
  out.transfers.resize(transfers.size());
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const DataTransfer& t = transfers[i];
    if (!t.crosses_pins()) continue;
    TransferShape& shape = out.transfers[i];
    const Pins pins = f.pins[i];
    const Cycles x_cycles = f.cycles[i];
    const Cycles t_start =
        schedule.start[static_cast<std::size_t>(sc.transfer_task[i])];

    // Output-side wait: data ready (producer end) until transfer starts.
    Cycles ready = 0;
    if (t.src_partition != kEnvironment) {
      const auto sp = static_cast<std::size_t>(t.src_partition);
      ready = schedule.start[static_cast<std::size_t>(sc.pu_task[sp])] +
              selection[sp]->latency_main;
    }
    const Cycles wait_out = std::max<Cycles>(0, t_start - ready);

    // Input-side wait: transfer end until the consumer can accept.
    Cycles wait_in = 0;
    if (t.dst_partition != kEnvironment) {
      const auto dp = static_cast<std::size_t>(t.dst_partition);
      wait_in = std::max<Cycles>(
          0, schedule.start[static_cast<std::size_t>(sc.pu_task[dp])] -
                 (t_start + x_cycles));
    }
    shape.wait_cycles = wait_out + wait_in;

    // B = D * (ceil(W/l) + X/l)  (paper §2.5).
    const double d = static_cast<double>(t.bits);
    const double w = static_cast<double>(shape.wait_cycles);
    const double x = static_cast<double>(x_cycles);
    const double l = static_cast<double>(ii_main);
    shape.buffer_bits =
        static_cast<Bits>(std::ceil(d * (std::ceil(w / l) + x / l)));

    shape.controller = bad::estimate_transfer_controller(
        shape.wait_cycles, x_cycles, pins, tech);

    // Module area: buffer registers + per-pin multiplexing + controller.
    const lib::BitCellSpec reg{31.0, 5.0};
    const lib::BitCellSpec mux{18.0, 4.0};
    const double buffer_area =
        static_cast<double>(shape.buffer_bits) * reg.area;
    double mux_area = 0.0;
    for (int c : t.chips) {
      const int levels = mux_levels(f.sharing[static_cast<std::size_t>(c)]);
      mux_area = std::max(mux_area, static_cast<double>(pins) *
                                        static_cast<double>(levels) * mux.area);
    }
    const StatVal buffers(0.9 * buffer_area, buffer_area, 1.15 * buffer_area);
    shape.module_area = buffers + StatVal(mux_area) + shape.controller.area;
    // Pads at duty X/l plus the module's own support logic, so this reads
    // the module area computed just above.
    shape.module_power_mw = bad::estimate_transfer_power(
        pins, x_cycles, ii_main, shape.module_area.likely(), tech);
  }
}

/// The transfer plans integrate() reports: every plan once the structure
/// is built; when it failed, the bandwidth and duration of the transfers
/// checked before the failure.
void report_transfers(const EvalContext& ctx, const ContextFacts& f,
                      const Structure& s, std::vector<TransferPlan>& out) {
  const std::vector<DataTransfer>& transfers = ctx.transfers();
  std::size_t count = transfers.size();
  if (s.failure.code == Fail::kNoDataPins) count = 0;
  if (s.failure.code == Fail::kTransferFit) count = s.failure.index;
  out.clear();
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    TransferPlan plan;
    plan.task = transfers[i];
    plan.pins = f.pins[i];
    plan.transfer_cycles = f.cycles[i];
    if (!s.failure) {
      const TransferShape& shape = s.transfers[i];
      plan.wait_cycles = shape.wait_cycles;
      plan.buffer_bits = shape.buffer_bits;
      plan.controller = shape.controller;
      plan.module_area = shape.module_area;
      plan.module_power_mw = shape.module_power_mw;
    }
    out.push_back(std::move(plan));
  }
}

struct TailScratch {
  StatBank chip_area;
  StatBank chip_power;
};

/// Stage 3: per-chip area and power sums, the clock adjustment and the
/// verdict, in integrate()'s order of additions and checks. Sets `clock`
/// to the most likely adjusted clock. With `out` null only the verdict is
/// needed: it stops at the first failed check and sums power only when a
/// budget is set. Otherwise `out` receives every field integrate() reports
/// past the structure.
Failure finish(const EvalContext& ctx, const ContextFacts& f,
               const Structure& s,
               const std::vector<const bad::DesignPrediction*>& selection,
               Cycles ii_main, TailScratch& sc, Ns& clock,
               IntegrationResult* out) {
  const Partitioning& pt = ctx.partitioning();
  const std::vector<DataTransfer>& transfers = ctx.transfers();
  const bad::ClockSpec& clocks = ctx.clocks();
  const auto& partitions = pt.partitions();
  const auto& chips = pt.chips();
  const DesignConstraints& constraints = ctx.constraints();
  const FeasibilityCriteria& criteria = ctx.criteria();

  // --- per-chip area accumulation (SoA scratch) --------------------------
  sc.chip_area.assign(chips.size());
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    sc.chip_area.add(static_cast<std::size_t>(partitions[p].chip),
                     selection[p]->total_area);
  }
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    for (int c : transfers[i].chips) {
      sc.chip_area.add(static_cast<std::size_t>(c),
                       s.transfers[i].module_area);
    }
  }
  for (std::size_t b = 0; b < pt.memory().blocks.size(); ++b) {
    const int placement = pt.memory().placement(static_cast<int>(b));
    if (placement != chip::kOffTheShelfChip) {
      sc.chip_area.add_exact(static_cast<std::size_t>(placement),
                             pt.memory().blocks[b].area);
    }
  }

  // --- per-chip and system power (the §5 power extension) -----------------
  const bool power = out != nullptr || constraints.power_constrained();
  StatVal system_power_mw;
  if (power) {
    sc.chip_power.assign(chips.size());
    for (std::size_t p = 0; p < partitions.size(); ++p) {
      sc.chip_power.add(static_cast<std::size_t>(partitions[p].chip),
                        selection[p]->power_mw);
    }
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      for (int c : transfers[i].chips) {
        sc.chip_power.add(static_cast<std::size_t>(c),
                          s.transfers[i].module_power_mw);
      }
    }
    for (std::size_t c = 0; c < chips.size(); ++c) {
      system_power_mw += sc.chip_power.get(c);
    }
  }

  // --- clock adjustment ----------------------------------------------------
  Ns partition_charge = 0.0;
  for (const bad::DesignPrediction* p : selection) {
    partition_charge = std::max(partition_charge, p->clock_overhead_ns);
  }
  const Ns transfer_charge = f.transfer_charge;
  clock = clocks.main_clock + partition_charge + transfer_charge;
  const StatVal adjusted_clock_ns(
      clocks.main_clock + 0.9 * (partition_charge + transfer_charge), clock,
      clocks.main_clock + 1.15 * (partition_charge + transfer_charge));
  const StatVal performance_ns =
      adjusted_clock_ns * static_cast<double>(ii_main);
  const StatVal delay_ns = adjusted_clock_ns * static_cast<double>(s.makespan);

  if (out != nullptr) {
    out->chip_area.assign(chips.size(), StatVal{});
    out->chip_power_mw.assign(chips.size(), StatVal{});
    for (std::size_t c = 0; c < chips.size(); ++c) {
      out->chip_area[c] = sc.chip_area.get(c);
      out->chip_power_mw[c] = sc.chip_power.get(c);
    }
    out->system_power_mw = system_power_mw;
    out->adjusted_clock_ns = adjusted_clock_ns;
    out->performance_ns = performance_ns;
    out->delay_ns = delay_ns;
  }

  // --- verdict: chip area, performance, delay, power ---------------------
  bool area_violated = false;
  for (std::size_t c = 0; c < chips.size(); ++c) {
    if (!criteria.area_ok(sc.chip_area.get(c),
                          chips[c].package.usable_area())) {
      if (out == nullptr) return {Fail::kArea};
      out->violated_chips.push_back(static_cast<int>(c));
      area_violated = true;
    }
  }
  if (area_violated) return {Fail::kArea};
  if (!criteria.performance_ok(performance_ns, constraints.performance_ns)) {
    return {Fail::kPerformance};
  }
  if (!criteria.delay_ok(delay_ns, constraints.delay_ns)) {
    return {Fail::kDelay};
  }
  if (constraints.power_constrained()) {
    for (std::size_t c = 0; c < chips.size(); ++c) {
      if (!criteria.power_ok(sc.chip_power.get(c),
                             constraints.chip_power_mw)) {
        return {Fail::kChipPower, c};
      }
    }
    if (!criteria.power_ok(system_power_mw, constraints.system_power_mw)) {
      return {Fail::kSystemPower};
    }
  }
  return {};
}

/// Per-thread scratch for the bare integrate(), which runs once per
/// evaluator miss, so its buffers stay alive across calls. thread_local
/// because callers run it from pool threads concurrently.
struct BareScratch {
  ContextFacts facts;
  StructureScratch structure_scratch;
  Structure structure;
  TailScratch tail;
};

BareScratch& scratch_for_thread() {
  thread_local BareScratch scratch;
  return scratch;
}

}  // namespace

IntegrationResult integrate(
    const EvalContext& ctx,
    const std::vector<const bad::DesignPrediction*>& selection,
    Cycles ii_main) {
  check_arguments(ctx, selection, ii_main);
  counters().attempts.add();

  IntegrationResult out;
  out.ii_main = ii_main;
  Failure failure = precheck(selection, ii_main);
  if (!failure) {
    BareScratch& sc = scratch_for_thread();
    compute_facts(ctx, sc.facts);
    build_structure(ctx, sc.facts, selection, ii_main, sc.structure_scratch,
                    sc.structure);
    report_transfers(ctx, sc.facts, sc.structure, out.transfers);
    failure = sc.structure.failure;
    if (!failure) {
      out.system_delay_main = sc.structure.makespan;
      Ns clock = 0.0;
      failure = finish(ctx, sc.facts, sc.structure, selection, ii_main,
                       sc.tail, clock, &out);
    }
  }
  if (failure) {
    counters().infeasible.add();
    out.feasible = false;
    out.reason = failure_text(ctx, failure);
    return out;
  }
  out.feasible = true;
  return out;
}

// ---------------------------------------------------------------------------
// IntegrationMemo
// ---------------------------------------------------------------------------

/// The context facts plus the text of every reason a failure can name,
/// shared read-only by a memo and its forks.
struct IntegrationMemo::Frame {
  const EvalContext* ctx = nullptr;
  ContextFacts facts;
  std::string starved_text;              ///< kNoDataPins, if a chip starves.
  std::vector<std::string> fit_text;     ///< kTransferFit, per transfer.
  std::vector<std::string> power_text;   ///< kChipPower, per chip.

  explicit Frame(const EvalContext& c) : ctx(&c) {
    compute_facts(c, facts);
    if (facts.starved_chip >= 0) {
      starved_text =
          failure_text(c, {Fail::kNoDataPins,
                           static_cast<std::size_t>(facts.starved_chip)});
    }
    for (std::size_t i = 0; i < c.transfers().size(); ++i) {
      fit_text.push_back(failure_text(c, {Fail::kTransferFit, i}));
    }
    if (c.constraints().power_constrained()) {
      for (std::size_t chip = 0; chip < c.partitioning().chips().size();
           ++chip) {
        power_text.push_back(failure_text(c, {Fail::kChipPower, chip}));
      }
    }
  }

  const char* text(Failure f) const {
    switch (f.code) {
      case Fail::kNoDataPins: return starved_text.c_str();
      case Fail::kTransferFit: return fit_text[f.index].c_str();
      case Fail::kChipPower: return power_text[f.index].c_str();
      default: return fixed_text(f.code);
    }
  }
};

namespace {

struct KeyHash {
  std::size_t operator()(const std::vector<std::int64_t>& key) const {
    Fnv1a h;
    for (std::int64_t v : key) h.mix(v);
    return static_cast<std::size_t>(h.digest());
  }
};

}  // namespace

struct IntegrationMemo::State {
  /// Key: the II, then per partition its latency, its local-demand count
  /// and those memory blocks in the prediction's order.
  std::unordered_map<std::vector<std::int64_t>, Structure, KeyHash>
      structures;
  std::vector<std::int64_t> key;
  Structure spare;  ///< Where a miss at the bound is built.
  StructureScratch structure_scratch;
  TailScratch tail;
};

IntegrationMemo::IntegrationMemo(const EvalContext& ctx)
    : IntegrationMemo(std::make_shared<const Frame>(ctx)) {}

IntegrationMemo::IntegrationMemo(std::shared_ptr<const Frame> frame)
    : frame_(std::move(frame)), state_(std::make_unique<State>()) {}

IntegrationMemo::~IntegrationMemo() = default;

IntegrationMemo IntegrationMemo::fork() const {
  return IntegrationMemo(frame_);
}

std::size_t IntegrationMemo::size() const { return state_->structures.size(); }

LeafVerdict IntegrationMemo::integrate(
    const std::vector<const bad::DesignPrediction*>& selection,
    Cycles ii_main, IntegrationResult* result) {
  const EvalContext& ctx = *frame_->ctx;
  const ContextFacts& facts = frame_->facts;
  check_arguments(ctx, selection, ii_main);
  counters().attempts.add();

  LeafVerdict verdict;
  Failure failure = precheck(selection, ii_main);
  const Structure* s = nullptr;
  if (!failure) {
    State& st = *state_;
    const Partitioning& pt = ctx.partitioning();
    const auto& partitions = pt.partitions();
    st.key.clear();
    st.key.push_back(ii_main);
    for (std::size_t p = 0; p < partitions.size(); ++p) {
      st.key.push_back(selection[p]->latency_main);
      const std::size_t count_at = st.key.size();
      st.key.push_back(0);
      for (const auto& [block, accesses] : selection[p]->memory_accesses) {
        (void)accesses;
        if (pt.memory().placement(block) == partitions[p].chip) {
          st.key.push_back(block);
        }
      }
      st.key[count_at] =
          static_cast<std::int64_t>(st.key.size() - count_at - 1);
    }
    const auto it = st.structures.find(st.key);
    if (it != st.structures.end()) {
      s = &it->second;
    } else {
      Structure& fresh = st.structures.size() < kMaxEntries
                             ? st.structures[st.key]
                             : st.spare;
      build_structure(ctx, facts, selection, ii_main, st.structure_scratch,
                      fresh);
      s = &fresh;
    }
    failure = s->failure;
    if (!failure) {
      verdict.delay_main = s->makespan;
      failure = finish(ctx, facts, *s, selection, ii_main, st.tail,
                       verdict.clock_ns, nullptr);
    }
  }
  if (failure) {
    counters().infeasible.add();
    verdict.reason = frame_->text(failure);
    return verdict;
  }
  verdict.feasible = true;
  if (result != nullptr) {
    *result = IntegrationResult{};
    result->feasible = true;
    result->ii_main = ii_main;
    result->system_delay_main = s->makespan;
    report_transfers(ctx, facts, *s, result->transfers);
    Ns clock = 0.0;
    (void)finish(ctx, facts, *s, selection, ii_main, state_->tail, clock,
                 result);
  }
  return verdict;
}

}  // namespace chop::core
