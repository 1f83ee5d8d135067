#include "core/eval/bound_state.hpp"

#include <algorithm>
#include <atomic>

#include "core/integration.hpp"
#include "core/transfer.hpp"
#include "util/error.hpp"

namespace chop::core {

namespace {

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

bool PrefixState::push(std::size_t p, const bad::DesignPrediction& cand) {
  if (cand.style == bad::DesignStyle::Pipelined && pipelined_rate_ != 0 &&
      cand.ii_main != pipelined_rate_) {
    // Every completion fails rates_compatible() — an exact prune, so the
    // caller may cut the subtree without this candidate being committed.
    return false;
  }
  const int chip = (*partitions_)[p].chip;
  const auto c = static_cast<std::size_t>(chip);
  frames_.push_back({chip, area_[c], power_[c], max_ii_, max_overhead_,
                     pipelined_rate_});
  area_[c] += cand.total_area;
  power_[c] += cand.power_mw;
  latency_[p] = cand.latency_main;
  max_ii_ = std::max(max_ii_, cand.ii_main);
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
  max_overhead_ = f.prev_max_overhead;
  pipelined_rate_ = f.prev_pipelined_rate;
  frames_.pop_back();
}

BoundTables::BoundTables(
    const EvalContext& ctx,
    const std::vector<std::vector<bad::DesignPrediction>>& lists)
    : ctx_(&ctx) {
  const Partitioning& pt = ctx.partitioning();
  const auto& chips = pt.chips();
  const auto& partitions = pt.partitions();
  const std::size_t nchips = chips.size();
  const std::size_t nparts = partitions.size();

  // Fixed on-chip memory macro area, exactly as integrate() charges it.
  chip_base_area_.assign(nchips, StatVal{});
  for (std::size_t b = 0; b < pt.memory().blocks.size(); ++b) {
    const int placement = pt.memory().placement(static_cast<int>(b));
    if (placement != chip::kOffTheShelfChip) {
      chip_base_area_[static_cast<std::size_t>(placement)] +=
          StatVal(pt.memory().blocks[b].area);
    }
  }

  // Selection-independent integration facts, as integrate() derives them.
  TransferFacts facts;
  compute_transfer_facts(ctx, facts);
  space_infeasible_ = facts.starved_chip >= 0;
  transfer_charge_ = facts.transfer_charge;
  for (Cycles cycles : facts.cycles) {
    required_ii_ = std::max(required_ii_, cycles);
  }

  // The precedence graph integrate() schedules: producer -> transfer ->
  // consumer, each transfer weighted by its fixed duration.
  const std::vector<DataTransfer>& transfers = ctx.transfers();
  head_.assign(nparts, 0);
  tail_.assign(nparts, 0);
  into_.assign(nparts, {});
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const DataTransfer& t = transfers[i];
    const auto src = static_cast<std::size_t>(t.src_partition);
    const auto dst = static_cast<std::size_t>(t.dst_partition);
    switch (t.kind) {
      case DataTransfer::Kind::InputDelivery:
      case DataTransfer::Kind::MemoryRead:
        head_[dst] = std::max(head_[dst], facts.cycles[i]);
        break;
      case DataTransfer::Kind::OutputCollection:
      case DataTransfer::Kind::MemoryWrite:
        tail_[src] = std::max(tail_[src], facts.cycles[i]);
        break;
      case DataTransfer::Kind::Interpartition:
        into_[dst].emplace_back(src, facts.cycles[i]);
        break;
    }
  }
  // Topological order, producers first (the quotient graph is acyclic).
  std::vector<bool> placed(nparts, false);
  const auto place = [&](const auto& self, std::size_t p) -> void {
    if (placed[p]) return;
    placed[p] = true;
    for (const auto& edge : into_[p]) self(self, edge.first);
    order_.push_back(p);
  };
  for (std::size_t p = 0; p < nparts; ++p) place(place, p);

  // Per-partition candidate minima, folded into suffix tables: entry m
  // aggregates partitions [0, m), i.e. the still-open partitions when the
  // DFS has committed partitions nparts-1 .. m.
  rem_min_area_.assign(nparts + 1, std::vector<StatVal>(nchips));
  rem_min_power_.assign(nparts + 1, std::vector<StatVal>(nchips));
  rem_min_ii_max_.assign(nparts + 1, 0);
  rem_max_ii_.assign(nparts + 1, 0);
  min_latency_.assign(nparts, 0);
  rem_min_overhead_max_.assign(nparts + 1, 0.0);
  for (std::size_t m = 1; m <= nparts; ++m) {
    const std::size_t p = m - 1;
    const auto& cands = lists[p];
    CHOP_REQUIRE(!cands.empty(), "every candidate list must be non-empty");

    StatVal min_area = cands.front().total_area;
    StatVal min_power = cands.front().power_mw;
    Cycles min_ii = cands.front().ii_main;
    Cycles max_ii = cands.front().ii_main;
    Cycles min_latency = cands.front().latency_main;
    Ns min_overhead = cands.front().clock_overhead_ns;
    for (std::size_t i = 1; i < cands.size(); ++i) {
      const bad::DesignPrediction& cand = cands[i];
      min_area = component_min(min_area, cand.total_area);
      min_power = component_min(min_power, cand.power_mw);
      min_ii = std::min(min_ii, cand.ii_main);
      max_ii = std::max(max_ii, cand.ii_main);
      min_latency = std::min(min_latency, cand.latency_main);
      min_overhead = std::min(min_overhead, cand.clock_overhead_ns);
    }

    const auto chip = static_cast<std::size_t>(partitions[p].chip);
    rem_min_area_[m] = rem_min_area_[m - 1];
    rem_min_area_[m][chip] += min_area;
    rem_min_power_[m] = rem_min_power_[m - 1];
    rem_min_power_[m][chip] += min_power;
    rem_min_ii_max_[m] = std::max(rem_min_ii_max_[m - 1], min_ii);
    rem_max_ii_[m] = std::max(rem_max_ii_[m - 1], max_ii);
    min_latency_[p] = min_latency;
    rem_min_overhead_max_[m] = std::max(rem_min_overhead_max_[m - 1],
                                        min_overhead);
  }
}

Cycles BoundTables::delay_bound(const PrefixState& prefix,
                                std::size_t remaining) const {
  // Earliest finish per partition; workers share the tables, so the
  // scratch is per thread.
  thread_local std::vector<Cycles> finish;
  finish.resize(order_.size());
  Cycles longest = 0;
  for (std::size_t p : order_) {
    Cycles start = head_[p];
    for (const auto& [producer, cycles] : into_[p]) {
      start = std::max(start, finish[producer] + cycles);
    }
    finish[p] =
        start + (p < remaining ? min_latency_[p] : prefix.latency(p));
    longest = std::max(longest, finish[p] + tail_[p]);
  }
  return longest;
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

  // The clock and performance bounds combine with exact max and monotone
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
  // The delay bound can equal a leaf's exact delay, and additive per-chip
  // bounds accumulate in a different order than integrate(); shave all
  // three by kBoundSlack so rounding can never cut a feasible leaf.
  const double slack = bound_slack();
  const Cycles lb_delay = delay_bound(prefix, m);
  if (!criteria.delay_ok(clock_lb * static_cast<double>(lb_delay) * slack,
                         constraints.delay_ns)) {
    return true;
  }

  const auto& chips = ctx_->partitioning().chips();
  const std::size_t nchips = chips.size();
  for (std::size_t c = 0; c < nchips; ++c) {
    const StatVal area_lb =
        (chip_base_area_[c] + prefix.area(c) + rem_min_area_[m][c]) * slack;
    if (!criteria.area_ok(area_lb, chips[c].package.usable_area())) {
      return true;
    }
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
