#include "core/eval/bound_state.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "core/partitioning.hpp"
#include "core/transfer.hpp"
#include "library/component_library.hpp"
#include "obs/metrics.hpp"

namespace chop::core {

namespace {

std::size_t sat_mul(std::size_t a, std::size_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<std::size_t>::max() / b) {
    return std::numeric_limits<std::size_t>::max();
  }
  return a * b;
}

/// Componentwise minimum of two triplets. Valid as a StatVal because each
/// component's minimum preserves lo <= likely <= hi (min_p lo_p <= lo_q <=
/// likely_q for the q attaining min likely, and so on).
StatVal component_min(const StatVal& a, const StatVal& b) {
  return StatVal(std::min(a.lo(), b.lo()), std::min(a.likely(), b.likely()),
                 std::min(a.hi(), b.hi()));
}

std::atomic<double> g_bound_slack{kBoundSlack};

}  // namespace

double bound_slack() { return g_bound_slack.load(std::memory_order_relaxed); }

void set_bound_slack_for_testing(double slack) {
  g_bound_slack.store(slack, std::memory_order_relaxed);
}

bool PrefixState::push(int chip, const bad::DesignPrediction& cand) {
  if (cand.style == bad::DesignStyle::Pipelined && pipelined_rate_ != 0 &&
      cand.ii_main != pipelined_rate_) {
    // Every completion fails rates_compatible() — an exact prune, so the
    // caller may cut the subtree without this candidate being committed.
    return false;
  }
  const auto c = static_cast<std::size_t>(chip);
  frames_.push_back({chip, area_[c], power_[c], max_ii_, max_latency_,
                     max_overhead_, pipelined_rate_});
  area_[c] += cand.total_area;
  power_[c] += cand.power_mw;
  max_ii_ = std::max(max_ii_, cand.ii_main);
  max_latency_ = std::max(max_latency_, cand.latency_main);
  max_overhead_ = std::max(max_overhead_, cand.clock_overhead_ns);
  if (cand.style == bad::DesignStyle::Pipelined) {
    pipelined_rate_ = cand.ii_main;
  }
  return true;
}

void PrefixState::pop() {
  const Frame& f = frames_.back();
  const auto c = static_cast<std::size_t>(f.chip);
  area_[c] = f.prev_area;
  power_[c] = f.prev_power;
  max_ii_ = f.prev_max_ii;
  max_latency_ = f.prev_max_latency;
  max_overhead_ = f.prev_max_overhead;
  pipelined_rate_ = f.prev_pipelined_rate;
  frames_.pop_back();
}

void BoundTablesCache::prepare(std::uint64_t statics_key,
                               std::vector<std::uint64_t> column_keys) {
  if (columns_.size() != column_keys.size()) {
    // Partition count changed: every stored column is for a different
    // problem shape.
    columns_.assign(column_keys.size(), Column{});
  }
  statics_key_ = statics_key;
  column_keys_ = std::move(column_keys);
  armed_ = true;
}

BoundTables::BoundTables(
    const EvalContext& ctx,
    const std::vector<std::vector<bad::DesignPrediction>>& lists,
    BoundTablesCache* cache)
    : ctx_(&ctx) {
  const Partitioning& pt = ctx.partitioning();
  const auto& chips = pt.chips();
  const auto& partitions = pt.partitions();
  const std::size_t nchips = chips.size();
  const std::size_t nparts = partitions.size();

  static obs::Counter& cols_reused_counter =
      obs::MetricsRegistry::global().counter("eval.delta_bound_cols_reused");
  static obs::Counter& cols_rebuilt_counter =
      obs::MetricsRegistry::global().counter("eval.delta_bound_cols_rebuilt");

  if (cache != nullptr &&
      (!cache->armed_ || cache->column_keys_.size() != nparts)) {
    cache = nullptr;  // unarmed or mis-shaped cache: behave as cacheless
  }

  chip_of_.resize(nparts);
  for (std::size_t p = 0; p < nparts; ++p) chip_of_[p] = partitions[p].chip;

  chip_usable_.resize(nchips);
  for (std::size_t c = 0; c < nchips; ++c) {
    chip_usable_[c] = chips[c].package.usable_area();
  }

  if (cache != nullptr && cache->statics_.valid &&
      cache->statics_.key == cache->statics_key_ &&
      cache->statics_.chip_base_area.size() == nchips) {
    // Statics reuse: everything below is a pure function of the core
    // fingerprint the statics key digests.
    chip_base_area_ = cache->statics_.chip_base_area;
    required_ii_ = cache->statics_.required_ii;
    transfer_charge_ = cache->statics_.transfer_charge;
    space_infeasible_ = cache->statics_.pin_infeasible;
    ++cache->stats_.statics_reused;
  } else {
    // Fixed on-chip memory macro area, exactly as integrate() charges it.
    chip_base_area_.assign(nchips, StatVal{});
    for (std::size_t b = 0; b < pt.memory().blocks.size(); ++b) {
      const int placement = pt.memory().placement(static_cast<int>(b));
      if (placement != chip::kOffTheShelfChip) {
        chip_base_area_[static_cast<std::size_t>(placement)] +=
            StatVal(pt.memory().blocks[b].area);
      }
    }

    // Selection-independent integration facts: per-chip data-pin budgets,
    // crossing-transfer durations (every term in integrate()'s transfer
    // plan is fixed by the partitioning + clocks), and the pin-mux clock
    // charge.
    const std::vector<Pins> reserved =
        reserved_control_pins(pt, ctx.transfers());
    std::vector<Pins> data_pins(nchips, 0);
    for (std::size_t c = 0; c < nchips; ++c) {
      data_pins[c] =
          chips[c].package.signal_pins() - reserved[c] - ctx.extra_pins();
      if (data_pins[c] <= 0) space_infeasible_ = true;
    }

    std::vector<int> sharing(nchips, 0);
    if (!space_infeasible_) {
      for (const DataTransfer& t : ctx.transfers()) {
        for (int c : t.chips) ++sharing[static_cast<std::size_t>(c)];
        if (!t.crosses_pins()) continue;
        Pins bw = std::numeric_limits<Pins>::max();
        for (int c : t.chips) {
          bw = std::min(bw, data_pins[static_cast<std::size_t>(c)]);
        }
        const Pins pins =
            static_cast<Pins>(std::min<Bits>(bw, std::max<Bits>(1, t.bits)));
        const Cycles transfer_clocks = static_cast<Cycles>(
            (t.bits + pins - 1) / std::max<Pins>(1, pins));
        Ns pad_path = 0.0;
        for (int c : t.chips) {
          pad_path += chips[static_cast<std::size_t>(c)].package.pad_delay;
        }
        const Cycles pad_cycles = static_cast<Cycles>(
            std::ceil(pad_path / ctx.clocks().transfer_period()));
        const Cycles cycles = std::max<Cycles>(
            1, transfer_clocks * ctx.clocks().transfer_multiplier + pad_cycles);
        required_ii_ = std::max(required_ii_, cycles);
      }
      const lib::BitCellSpec mux{18.0, 4.0};
      for (std::size_t c = 0; c < nchips; ++c) {
        if (sharing[c] <= 1) continue;
        const int levels =
            static_cast<int>(std::ceil(std::log2(sharing[c])));
        transfer_charge_ = std::max(
            transfer_charge_,
            static_cast<double>(levels) * mux.delay /
                static_cast<double>(ctx.clocks().transfer_multiplier));
      }
    }
    if (cache != nullptr) {
      cache->statics_.valid = true;
      cache->statics_.key = cache->statics_key_;
      cache->statics_.pin_infeasible = space_infeasible_;
      cache->statics_.required_ii = required_ii_;
      cache->statics_.transfer_charge = transfer_charge_;
      cache->statics_.chip_base_area = chip_base_area_;
      ++cache->stats_.statics_rebuilt;
    }
  }

  // Per-partition candidate minima, folded into suffix tables: entry m
  // aggregates partitions [0, m), i.e. the still-open partitions when the
  // DFS has committed partitions nparts-1 .. m.
  rem_min_area_.assign(nparts + 1, std::vector<StatVal>(nchips));
  rem_min_power_.assign(nparts + 1, std::vector<StatVal>(nchips));
  rem_min_ii_max_.assign(nparts + 1, 0);
  rem_max_ii_.assign(nparts + 1, 0);
  rem_min_latency_max_.assign(nparts + 1, 0);
  rem_min_overhead_max_.assign(nparts + 1, 0.0);
  rem_leaves_.assign(nparts + 1, 1);
  for (std::size_t m = 1; m <= nparts; ++m) {
    const std::size_t p = m - 1;
    const auto& cands = lists[p];

    // Column reuse: the cached minima are a pure function of the list
    // content the column key digests; the size cross-check is a belt-and-
    // braces guard against key misuse.
    BoundTablesCache::Column* col =
        cache != nullptr ? &cache->columns_[p] : nullptr;
    const bool col_hit = col != nullptr && col->valid &&
                         col->key == cache->column_keys_[p] &&
                         col->list_size == cands.size();
    if (col_hit) {
      ++cache->stats_.cols_reused;
      cols_reused_counter.add();
    } else {
      if (cache != nullptr) ++cache->stats_.cols_rebuilt;
      cols_rebuilt_counter.add();
    }

    if (col_hit ? col->empty : cands.empty()) {
      space_infeasible_ = true;
      rem_leaves_[m] = 0;
      if (col != nullptr && !col_hit) {
        *col = BoundTablesCache::Column{};
        col->valid = true;
        col->key = cache->column_keys_[p];
        col->empty = true;
        col->list_size = 0;
      }
      continue;
    }

    StatVal min_area;
    StatVal min_power;
    Cycles min_ii = 0;
    Cycles max_ii = 0;
    Cycles min_latency = 0;
    Ns min_overhead = 0.0;
    if (col_hit) {
      min_area = col->min_area;
      min_power = col->min_power;
      min_ii = col->min_ii;
      max_ii = col->max_ii;
      min_latency = col->min_latency;
      min_overhead = col->min_overhead;
    } else {
      min_area = cands.front().total_area;
      min_power = cands.front().power_mw;
      min_ii = cands.front().ii_main;
      max_ii = cands.front().ii_main;
      min_latency = cands.front().latency_main;
      min_overhead = cands.front().clock_overhead_ns;
      for (std::size_t i = 1; i < cands.size(); ++i) {
        const bad::DesignPrediction& cand = cands[i];
        min_area = component_min(min_area, cand.total_area);
        min_power = component_min(min_power, cand.power_mw);
        min_ii = std::min(min_ii, cand.ii_main);
        max_ii = std::max(max_ii, cand.ii_main);
        min_latency = std::min(min_latency, cand.latency_main);
        min_overhead = std::min(min_overhead, cand.clock_overhead_ns);
      }
      if (col != nullptr) {
        col->valid = true;
        col->key = cache->column_keys_[p];
        col->empty = false;
        col->list_size = cands.size();
        col->min_area = min_area;
        col->min_power = min_power;
        col->min_ii = min_ii;
        col->max_ii = max_ii;
        col->min_latency = min_latency;
        col->min_overhead = min_overhead;
      }
    }

    rem_min_area_[m] = rem_min_area_[m - 1];
    rem_min_area_[m][static_cast<std::size_t>(chip_of_[p])] += min_area;
    rem_min_power_[m] = rem_min_power_[m - 1];
    rem_min_power_[m][static_cast<std::size_t>(chip_of_[p])] += min_power;
    rem_min_ii_max_[m] = std::max(rem_min_ii_max_[m - 1], min_ii);
    rem_max_ii_[m] = std::max(rem_max_ii_[m - 1], max_ii);
    rem_min_latency_max_[m] = std::max(rem_min_latency_max_[m - 1], min_latency);
    rem_min_overhead_max_[m] = std::max(rem_min_overhead_max_[m - 1],
                                        min_overhead);
    rem_leaves_[m] = sat_mul(rem_leaves_[m - 1], cands.size());
  }
}

bool BoundTables::prune(const PrefixState& prefix, std::size_t remaining,
                        const ParetoFrontier& incumbent) const {
  const std::size_t m = remaining;

  // No achievable system II can accommodate the slowest crossing transfer:
  // every leaf below fails integrate()'s data-clash rule.
  const Cycles ub_ii = std::max(prefix.max_ii(), rem_max_ii_[m]);
  if (ub_ii < required_ii_) return true;

  const DesignConstraints& constraints = ctx_->constraints();
  const FeasibilityCriteria& criteria = ctx_->criteria();

  // Clock / performance / delay bounds combine with exact max and monotone
  // FP operations (see header) — no slack needed.
  const Cycles lb_ii = std::max<Cycles>(
      1, std::max(prefix.max_ii(), rem_min_ii_max_[m]));
  const Ns charge =
      std::max(prefix.max_overhead(), rem_min_overhead_max_[m]) +
      transfer_charge_;
  const Ns base = ctx_->clocks().main_clock;
  const StatVal clock_lb(base + 0.9 * charge, base + charge,
                         base + 1.15 * charge);
  if (!criteria.performance_ok(clock_lb * static_cast<double>(lb_ii),
                               constraints.performance_ns)) {
    return true;
  }
  // The urgency schedule's makespan is at least the longest task: any
  // selected partition latency, and any crossing transfer's fixed duration
  // (which is exactly required_ii_ at its max).
  const Cycles lb_delay = std::max(
      {prefix.max_latency(), rem_min_latency_max_[m], required_ii_});
  if (!criteria.delay_ok(clock_lb * static_cast<double>(lb_delay),
                         constraints.delay_ns)) {
    return true;
  }

  // Additive per-chip bounds accumulate in a different order than
  // integrate(); shave by kBoundSlack so rounding drift can never cut a
  // feasible leaf.
  const double slack = bound_slack();
  const std::size_t nchips = chip_usable_.size();
  for (std::size_t c = 0; c < nchips; ++c) {
    const StatVal area_lb =
        (chip_base_area_[c] + prefix.area(c) + rem_min_area_[m][c]) * slack;
    if (!criteria.area_ok(area_lb, chip_usable_[c])) return true;
  }
  if (constraints.power_constrained()) {
    StatVal system_lb;
    for (std::size_t c = 0; c < nchips; ++c) {
      const StatVal chip_lb = prefix.power(c) + rem_min_power_[m][c];
      system_lb += chip_lb;
      if (!criteria.power_ok(chip_lb * slack,
                             constraints.chip_power_mw)) {
        return true;
      }
    }
    if (!criteria.power_ok(system_lb * slack,
                           constraints.system_power_mw)) {
      return true;
    }
  }

  // Incumbent dominance: a feasible design componentwise <(ii, delay) than
  // the subtree's lower bounds guarantees non-inferior filtering drops
  // every leaf below. The caller passes an empty frontier when inferior
  // designs are being kept.
  return incumbent.dominates_strictly(lb_ii, lb_delay);
}

}  // namespace chop::core
