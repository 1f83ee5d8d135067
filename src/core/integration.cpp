#include "core/integration.hpp"

#include <algorithm>
#include <cmath>

#include "bad/power_model.hpp"
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

/// Per-thread scratch arena for integrate(). The search evaluates
/// thousands of combinations per second and every one used to allocate a
/// dozen vectors, a map and a task graph; the arena keeps those buffers
/// (and an SoA StatBank for the chip area/power accumulators) alive across
/// trials so the steady-state inner loop is allocation-free. thread_local
/// because the parallel enumeration runs leaf evaluations from pool
/// threads concurrently.
struct EvalScratch {
  std::vector<Pins> reserved;
  std::vector<Pins> data_pins;
  std::vector<int> sharing;  ///< Pin-crossing transfer count per chip.
  sched::TaskGraph tg;
  std::vector<int> pin_res;
  std::vector<int> mem_res;  ///< Resource id per memory block (flat).
  std::vector<int> pu_task;
  std::vector<int> transfer_task;
  StatBank chip_area;
  StatBank chip_power;
};

EvalScratch& scratch_for_thread() {
  thread_local EvalScratch scratch;
  return scratch;
}

}  // namespace

IntegrationResult integrate(
    const EvalContext& ctx,
    const std::vector<const bad::DesignPrediction*>& selection,
    Cycles ii_main) {
  const Partitioning& pt = ctx.partitioning();
  const std::vector<DataTransfer>& transfers = ctx.transfers();
  const bad::ClockSpec& clocks = ctx.clocks();
  const auto& partitions = pt.partitions();
  const auto& chips = pt.chips();
  CHOP_REQUIRE(selection.size() == partitions.size(),
               "selection size must match partition count");
  for (const bad::DesignPrediction* p : selection) {
    CHOP_REQUIRE(p != nullptr, "selection has an unselected partition");
  }
  // Clocks/constraints/criteria/extra-pins were validated when the
  // EvalContext was built; only the per-candidate arguments are checked
  // here.
  CHOP_REQUIRE(ii_main >= 1, "system initiation interval must be positive");

  static obs::Counter& attempts =
      obs::MetricsRegistry::global().counter("integration.attempts");
  static obs::Counter& infeasible =
      obs::MetricsRegistry::global().counter("integration.infeasible");
  attempts.add();

  EvalScratch& scratch = scratch_for_thread();
  IntegrationResult out;
  out.ii_main = ii_main;
  auto fail = [&](std::string why) {
    infeasible.add();
    out.feasible = false;
    out.reason = std::move(why);
    return std::move(out);
  };

  if (!rates_compatible(selection)) {
    return fail("pipelined data-rate mismatch");
  }
  for (const bad::DesignPrediction* p : selection) {
    if (p->ii_main > ii_main) {
      return fail("partition slower than the system initiation interval");
    }
  }

  // --- pin budgets -------------------------------------------------------
  reserved_control_pins_into(pt, transfers, 2, scratch.reserved);
  const std::vector<Pins>& reserved = scratch.reserved;
  std::vector<Pins>& data_pins = scratch.data_pins;
  data_pins.assign(chips.size(), 0);
  const Pins extra_reserved_pins_per_chip = ctx.extra_pins();
  for (std::size_t c = 0; c < chips.size(); ++c) {
    data_pins[c] = chips[c].package.signal_pins() - reserved[c] -
                   extra_reserved_pins_per_chip;
    if (data_pins[c] <= 0) {
      return fail("chip " + chips[c].name +
                  " has no data pins left after control reservations");
    }
  }

  std::vector<int>& sharing = scratch.sharing;
  sharing.assign(chips.size(), 0);
  for (const DataTransfer& t : transfers) {
    for (int c : t.chips) sharing[static_cast<std::size_t>(c)]++;
  }

  // --- transfer bandwidth and duration ------------------------------------
  out.transfers.reserve(transfers.size());
  for (const DataTransfer& t : transfers) {
    TransferPlan plan;
    plan.task = t;
    if (t.crosses_pins()) {
      Pins bw = std::numeric_limits<Pins>::max();
      for (int c : t.chips) {
        bw = std::min(bw, data_pins[static_cast<std::size_t>(c)]);
      }
      plan.pins = static_cast<Pins>(
          std::min<Bits>(bw, std::max<Bits>(1, t.bits)));
      const Cycles transfer_clocks = static_cast<Cycles>(
          (t.bits + plan.pins - 1) / std::max<Pins>(1, plan.pins));
      // Pad traversal (out of one chip, into the other) lengthens the
      // transfer rather than the clock — the paper attributes pin-count
      // effects to system delay, not cycle time.
      Ns pad_path = 0.0;
      for (int c : t.chips) {
        pad_path += chips[static_cast<std::size_t>(c)].package.pad_delay;
      }
      const Cycles pad_cycles = static_cast<Cycles>(
          std::ceil(pad_path / clocks.transfer_period()));
      plan.transfer_cycles = std::max<Cycles>(
          1, transfer_clocks * clocks.transfer_multiplier + pad_cycles);
      // Hard data-clash rule: X must fit within the initiation interval.
      if (plan.transfer_cycles > ii_main) {
        return fail("transfer " + t.name +
                    " cannot fit in the initiation interval (pins)");
      }
    } else {
      plan.pins = 0;
      plan.transfer_cycles = 0;  // on-chip move: absorbed in the datapath
    }
    out.transfers.push_back(std::move(plan));
  }

  // --- system task graph and urgency schedule -----------------------------
  sched::TaskGraph& tg = scratch.tg;
  tg.tasks.clear();
  tg.precedence.clear();
  tg.capacity.clear();
  // Resources: one per chip (data pins), one per memory block (ports).
  std::vector<int>& pin_res = scratch.pin_res;
  pin_res.assign(chips.size(), -1);
  for (std::size_t c = 0; c < chips.size(); ++c) {
    pin_res[c] = tg.add_resource(data_pins[c]);
  }
  std::vector<int>& mem_res = scratch.mem_res;
  mem_res.assign(pt.memory().blocks.size(), -1);
  for (std::size_t b = 0; b < pt.memory().blocks.size(); ++b) {
    mem_res[b] = tg.add_resource(pt.memory().blocks[b].ports);
  }

  std::vector<int>& pu_task = scratch.pu_task;
  pu_task.assign(partitions.size(), -1);
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    sched::Task task;
    task.name = partitions[p].name;
    task.duration = selection[p]->latency_main;
    // Local memory port occupancy while the PU runs.
    for (const auto& [block, accesses] : selection[p]->memory_accesses) {
      (void)accesses;
      const int mem_chip = pt.memory().placement(block);
      if (mem_chip == partitions[p].chip) {
        task.demands.emplace_back(mem_res[static_cast<std::size_t>(block)], 1);
      }
    }
    pu_task[p] = tg.add_task(std::move(task));
  }

  std::vector<int>& transfer_task = scratch.transfer_task;
  transfer_task.assign(out.transfers.size(), -1);
  for (std::size_t i = 0; i < out.transfers.size(); ++i) {
    const TransferPlan& plan = out.transfers[i];
    sched::Task task;
    task.name = plan.task.name;
    task.duration = plan.transfer_cycles;
    for (int c : plan.task.chips) {
      task.demands.emplace_back(pin_res[static_cast<std::size_t>(c)],
                                plan.pins);
    }
    if (plan.task.memory_block >= 0 && plan.task.crosses_pins()) {
      task.demands.emplace_back(
          mem_res[static_cast<std::size_t>(plan.task.memory_block)], 1);
    }
    transfer_task[i] = tg.add_task(std::move(task));

    // Precedence: producer -> transfer -> consumer.
    const DataTransfer& t = plan.task;
    switch (t.kind) {
      case DataTransfer::Kind::InputDelivery:
        tg.add_precedence(transfer_task[i],
                          pu_task[static_cast<std::size_t>(t.dst_partition)]);
        break;
      case DataTransfer::Kind::OutputCollection:
        tg.add_precedence(pu_task[static_cast<std::size_t>(t.src_partition)],
                          transfer_task[i]);
        break;
      case DataTransfer::Kind::Interpartition:
        tg.add_precedence(pu_task[static_cast<std::size_t>(t.src_partition)],
                          transfer_task[i]);
        tg.add_precedence(transfer_task[i],
                          pu_task[static_cast<std::size_t>(t.dst_partition)]);
        break;
      case DataTransfer::Kind::MemoryRead:
        tg.add_precedence(transfer_task[i],
                          pu_task[static_cast<std::size_t>(t.dst_partition)]);
        break;
      case DataTransfer::Kind::MemoryWrite:
        tg.add_precedence(pu_task[static_cast<std::size_t>(t.src_partition)],
                          transfer_task[i]);
        break;
    }
  }

  const sched::TaskSchedule schedule = sched::urgency_schedule(tg, ii_main);
  if (!schedule.feasible) {
    return fail("urgency schedule found no feasible pin/memory sharing");
  }
  out.system_delay_main = schedule.makespan;

  // --- wait times and buffers ---------------------------------------------
  const lib::TechnologyParams tech;  // transfer modules use default tech
  for (std::size_t i = 0; i < out.transfers.size(); ++i) {
    TransferPlan& plan = out.transfers[i];
    if (!plan.task.crosses_pins()) continue;
    const Cycles t_start = schedule.start[static_cast<std::size_t>(
        transfer_task[i])];

    // Output-side wait: data ready (producer end) until transfer starts.
    Cycles ready = 0;
    if (plan.task.src_partition != kEnvironment) {
      const auto sp = static_cast<std::size_t>(plan.task.src_partition);
      ready = schedule.start[static_cast<std::size_t>(pu_task[sp])] +
              selection[sp]->latency_main;
    }
    const Cycles wait_out = std::max<Cycles>(0, t_start - ready);

    // Input-side wait: transfer end until the consumer can accept.
    Cycles wait_in = 0;
    if (plan.task.dst_partition != kEnvironment) {
      const auto dp = static_cast<std::size_t>(plan.task.dst_partition);
      wait_in = std::max<Cycles>(
          0, schedule.start[static_cast<std::size_t>(pu_task[dp])] -
                 (t_start + plan.transfer_cycles));
    }
    plan.wait_cycles = wait_out + wait_in;

    // B = D * (ceil(W/l) + X/l)  (paper §2.5).
    const double d = static_cast<double>(plan.task.bits);
    const double w = static_cast<double>(plan.wait_cycles);
    const double x = static_cast<double>(plan.transfer_cycles);
    const double l = static_cast<double>(ii_main);
    plan.buffer_bits =
        static_cast<Bits>(std::ceil(d * (std::ceil(w / l) + x / l)));

    plan.controller = bad::estimate_transfer_controller(
        plan.wait_cycles, plan.transfer_cycles, plan.pins, tech);
    plan.module_power_mw = bad::estimate_transfer_power(
        plan.pins, plan.transfer_cycles, ii_main, plan.module_area.likely(),
        tech);

    // Module area: buffer registers + per-pin multiplexing + controller.
    const lib::BitCellSpec reg{31.0, 5.0};
    const lib::BitCellSpec mux{18.0, 4.0};
    const double buffer_area = static_cast<double>(plan.buffer_bits) * reg.area;
    double mux_area = 0.0;
    for (int c : plan.task.chips) {
      const int levels = mux_levels(sharing[static_cast<std::size_t>(c)]);
      mux_area = std::max(mux_area, static_cast<double>(plan.pins) *
                                        static_cast<double>(levels) * mux.area);
    }
    const StatVal buffers(0.9 * buffer_area, buffer_area, 1.15 * buffer_area);
    plan.module_area =
        buffers + StatVal(mux_area) + plan.controller.area;
  }

  // --- per-chip area accumulation (SoA scratch, then materialised) --------
  scratch.chip_area.assign(chips.size());
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    scratch.chip_area.add(static_cast<std::size_t>(partitions[p].chip),
                          selection[p]->total_area);
  }
  for (const TransferPlan& plan : out.transfers) {
    for (int c : plan.task.chips) {
      scratch.chip_area.add(static_cast<std::size_t>(c), plan.module_area);
    }
  }
  for (std::size_t b = 0; b < pt.memory().blocks.size(); ++b) {
    const int placement = pt.memory().placement(static_cast<int>(b));
    if (placement != chip::kOffTheShelfChip) {
      scratch.chip_area.add_exact(static_cast<std::size_t>(placement),
                                  pt.memory().blocks[b].area);
    }
  }
  out.chip_area.assign(chips.size(), StatVal{});
  for (std::size_t c = 0; c < chips.size(); ++c) {
    out.chip_area[c] = scratch.chip_area.get(c);
  }

  // --- per-chip and system power (the §5 power extension) -----------------
  scratch.chip_power.assign(chips.size());
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    scratch.chip_power.add(static_cast<std::size_t>(partitions[p].chip),
                           selection[p]->power_mw);
  }
  for (const TransferPlan& plan : out.transfers) {
    for (int c : plan.task.chips) {
      scratch.chip_power.add(static_cast<std::size_t>(c), plan.module_power_mw);
    }
  }
  out.chip_power_mw.assign(chips.size(), StatVal{});
  for (std::size_t c = 0; c < chips.size(); ++c) {
    out.chip_power_mw[c] = scratch.chip_power.get(c);
  }
  for (const StatVal& p : out.chip_power_mw) out.system_power_mw += p;

  // --- clock adjustment ----------------------------------------------------
  Ns partition_charge = 0.0;
  for (const bad::DesignPrediction* p : selection) {
    partition_charge = std::max(partition_charge, p->clock_overhead_ns);
  }
  Ns transfer_charge = 0.0;
  const lib::BitCellSpec mux{18.0, 4.0};
  for (std::size_t c = 0; c < chips.size(); ++c) {
    if (sharing[c] == 0) continue;
    // Only the on-chip pin-multiplexing tree stretches the clock; pad
    // delay is charged to the transfer duration above.
    const Ns path = static_cast<double>(mux_levels(sharing[c])) * mux.delay;
    transfer_charge = std::max(
        transfer_charge,
        path / static_cast<double>(clocks.transfer_multiplier));
  }
  const Ns likely_clock = clocks.main_clock + partition_charge + transfer_charge;
  out.adjusted_clock_ns =
      StatVal(clocks.main_clock + 0.9 * (partition_charge + transfer_charge),
              likely_clock, clocks.main_clock +
                                1.15 * (partition_charge + transfer_charge));

  out.performance_ns =
      out.adjusted_clock_ns * static_cast<double>(out.ii_main);
  out.delay_ns =
      out.adjusted_clock_ns * static_cast<double>(out.system_delay_main);

  // --- verdict: chip area, performance, delay, power ---------------------
  const DesignConstraints& constraints = ctx.constraints();
  const FeasibilityCriteria& criteria = ctx.criteria();
  for (std::size_t c = 0; c < chips.size(); ++c) {
    if (!criteria.area_ok(out.chip_area[c], chips[c].package.usable_area())) {
      out.violated_chips.push_back(static_cast<int>(c));
    }
  }

  if (!out.violated_chips.empty()) {
    return fail("chip area constraint violated");
  }
  if (!criteria.performance_ok(out.performance_ns, constraints.performance_ns)) {
    return fail("performance constraint violated");
  }
  if (!criteria.delay_ok(out.delay_ns, constraints.delay_ns)) {
    return fail("system delay constraint violated");
  }
  if (constraints.power_constrained()) {
    for (std::size_t c = 0; c < chips.size(); ++c) {
      if (!criteria.power_ok(out.chip_power_mw[c],
                             constraints.chip_power_mw)) {
        return fail("chip power budget violated on " + chips[c].name);
      }
    }
    if (!criteria.power_ok(out.system_power_mw,
                           constraints.system_power_mw)) {
      return fail("system power budget violated");
    }
  }
  out.feasible = true;
  out.reason.clear();
  return out;
}

}  // namespace chop::core
