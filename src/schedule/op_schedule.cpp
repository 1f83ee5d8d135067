#include "schedule/op_schedule.hpp"

#include <algorithm>
#include <numeric>

namespace chop::sched {

namespace {

bool is_memory_op(dfg::OpKind kind) {
  return kind == dfg::OpKind::MemRead || kind == dfg::OpKind::MemWrite;
}

}  // namespace

// SlotFinder: first-fit slot search for one resource class of `capacity`
// units (negative: unlimited).
//
// Nonpipelined (`ii == 0`) it counts usage per absolute cycle. Pipelined,
// it counts usage per phase modulo `ii` only: a reservation adds 1 to
// every cycle it covers and 1 to every phase it covers (once per phase,
// however long the op), so a cycle's usage never exceeds its phase's and
// the phase check alone decides whether a start fits. Fitting then
// depends only on the start's phase, so at most `ii` candidate starts
// exist; when none fits, none ever will.
//
// Cells only fill up, so a full cell points at the next cell to try
// (`next_[c] == c` marks a cell below capacity; pointers are
// path-compressed, and wrap around the phases when pipelined). A search
// jumps over runs of full cells instead of walking them, and a multi-cycle
// op whose window hits a full cell restarts just past it.

void SchedulePlan::SlotFinder::reset(int capacity, Cycles ii) {
  capacity_ = capacity;
  ii_ = ii;
  full_cells_ = 0;
  used_.clear();
  next_.clear();
  if (ii_ > 0 && capacity_ > 0) {
    used_.resize(static_cast<std::size_t>(ii_), 0);
    next_.resize(static_cast<std::size_t>(ii_));
    std::iota(next_.begin(), next_.end(), Cycles{0});
  }
}

/// Earliest start >= `ready` at which an op busy for `duration` cycles
/// fits, or kNoSlot when no start does.
Cycles SchedulePlan::SlotFinder::first_fit(Cycles ready, Cycles duration) {
  if (capacity_ < 0) return ready;
  if (capacity_ == 0) return kNoSlot;
  if (ii_ == 0) {
    Cycles t = next_free(ready);
    for (Cycles c = t + 1; c < t + duration; ++c) {
      if (full(c)) {
        t = next_free(c + 1);
        c = t;
      }
    }
    return t;
  }
  const Cycles span = std::min(duration, ii_);
  Cycles k = 0;  // candidate start is ready + k
  while (k < ii_) {
    const Cycles p = (ready + k) % ii_;
    const Cycles q = next_free(p);
    if (q == kNoSlot) return kNoSlot;
    k += (q - p + ii_) % ii_;
    if (k >= ii_) return kNoSlot;
    Cycles j = 1;
    while (j < span && !full((q + j) % ii_)) ++j;
    if (j == span) return ready + k;
    k += j + 1;
  }
  return kNoSlot;
}

/// Occupies [t, t + duration); the caller found `t` with first_fit.
void SchedulePlan::SlotFinder::reserve(Cycles t, Cycles duration) {
  if (capacity_ < 0) return;
  if (ii_ == 0) {
    const auto end = static_cast<std::size_t>(t + duration);
    if (end > used_.size()) {
      const std::size_t old = next_.size();
      used_.resize(end, 0);
      next_.resize(end);
      std::iota(next_.begin() + static_cast<std::ptrdiff_t>(old), next_.end(),
                static_cast<Cycles>(old));
    }
    for (Cycles c = t; c < t + duration; ++c) {
      const auto i = static_cast<std::size_t>(c);
      if (++used_[i] == capacity_) next_[i] = c + 1;
    }
    return;
  }
  const Cycles span = std::min(duration, ii_);
  for (Cycles j = 0; j < span; ++j) {
    const auto p = static_cast<std::size_t>((t + j) % ii_);
    if (++used_[p] == capacity_) {
      next_[p] = (static_cast<Cycles>(p) + 1) % ii_;
      ++full_cells_;
    }
  }
}

bool SchedulePlan::SlotFinder::full(Cycles c) const {
  return c < static_cast<Cycles>(used_.size()) &&
         used_[static_cast<std::size_t>(c)] >= capacity_;
}

/// First cell at or after `c` (circularly when pipelined) below capacity;
/// kNoSlot when every phase is full. Cells past the end of a nonpipelined
/// timeline are empty.
Cycles SchedulePlan::SlotFinder::next_free(Cycles c) {
  if (ii_ > 0 && full_cells_ == ii_) return kNoSlot;
  const auto size = static_cast<Cycles>(next_.size());
  Cycles root = c;
  while (root < size && next_[static_cast<std::size_t>(root)] != root) {
    root = next_[static_cast<std::size_t>(root)];
  }
  while (c != root && c < size) {
    const Cycles after = next_[static_cast<std::size_t>(c)];
    next_[static_cast<std::size_t>(c)] = root;
    c = after;
  }
  return root;
}

int ResourceLimits::limit_for(const dfg::Node& node) const {
  if (dfg::needs_functional_unit(node.kind)) {
    auto it = fu.find(node.kind);
    return it == fu.end() ? -1 : it->second;
  }
  if (is_memory_op(node.kind)) {
    auto it = memory_ports.find(node.memory_block);
    return it == memory_ports.end() ? -1 : it->second;
  }
  return 0;
}

SchedulePlan::SchedulePlan(const dfg::Graph& g,
                           std::span<const Cycles> latency)
    : graph_(&g), latency_(latency.begin(), latency.end()) {
  CHOP_REQUIRE(latency.size() == g.node_count(),
               "latency vector size must match node count");
  CHOP_REQUIRE(std::all_of(latency.begin(), latency.end(),
                           [](Cycles l) { return l >= 0; }),
               "operation latencies must be non-negative");
  const std::size_t n = g.node_count();
  const dfg::Levels levels = dfg::compute_levels(g, latency);

  // Resource classes: functional-unit kinds map to themselves, memory ops
  // to a per-block class, everything else to none.
  class_of_.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const dfg::Node& node = g.node(static_cast<dfg::NodeId>(i));
    const bool memory = is_memory_op(node.kind);
    if (!memory && !dfg::needs_functional_unit(node.kind)) continue;
    auto it = std::find_if(
        classes_.begin(), classes_.end(), [&](const ResourceClass& c) {
          return c.is_memory == memory &&
                 (memory ? c.block == node.memory_block : c.kind == node.kind);
        });
    if (it == classes_.end()) {
      ResourceClass c;
      c.is_memory = memory;
      c.kind = node.kind;
      c.block = memory ? node.memory_block : -1;
      c.representative = static_cast<dfg::NodeId>(i);
      classes_.push_back(c);
      it = classes_.end() - 1;
    }
    it->busy += latency_[i];
    class_of_[i] = static_cast<int>(it - classes_.begin());
  }

  // Priority order: ALAP ascending (most urgent first), critical path as
  // tiebreak via ASAP, then id for determinism.
  std::vector<dfg::NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](dfg::NodeId a, dfg::NodeId b) {
    const auto ia = static_cast<std::size_t>(a);
    const auto ib = static_cast<std::size_t>(b);
    if (levels.alap[ia] != levels.alap[ib]) {
      return levels.alap[ia] < levels.alap[ib];
    }
    if (levels.asap[ia] != levels.asap[ib]) {
      return levels.asap[ia] < levels.asap[ib];
    }
    return a < b;
  });

  // The list scheduler places nodes in priority order, each once its
  // predecessors are placed. A predecessor always ranks first: ALAP and
  // ASAP never decrease along an edge (latencies are non-negative), and
  // the graph builder gives every node a larger id than its operands. So
  // one pass over the priority list places every node.
  std::vector<std::size_t> rank(n);
  for (std::size_t k = 0; k < n; ++k) {
    rank[static_cast<std::size_t>(order[k])] = k;
  }
  pred_begin_.reserve(n + 1);
  pred_begin_.push_back(0);
  for (dfg::NodeId id : order) {
    for (dfg::EdgeId e : g.fanin(id)) {
      const dfg::NodeId src = g.edge(e).src;
      CHOP_ASSERT(rank[static_cast<std::size_t>(src)] <
                      rank[static_cast<std::size_t>(id)],
                  "priority order is not topological");
      preds_.push_back(src);
    }
    pred_begin_.push_back(preds_.size());
  }
  order_ = std::move(order);

  const Cycles total_latency =
      std::accumulate(latency_.begin(), latency_.end(), Cycles{0});
  horizon_base_ = levels.length + total_latency + 4;
  finders_.resize(classes_.size());
}

const OpSchedule& SchedulePlan::schedule(const ResourceLimits& limits,
                                         Cycles ii) const {
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    finders_[c].reset(
        limits.limit_for(graph_->node(classes_[c].representative)), ii);
  }

  OpSchedule& out = last_;
  out.start.assign(latency_.size(), 0);
  out.length = 0;
  out.initiation_interval = 0;
  out.feasible = true;
  const Cycles horizon = horizon_base_ + ii;
  for (std::size_t k = 0; k < order_.size(); ++k) {
    const auto i = static_cast<std::size_t>(order_[k]);
    Cycles ready = 0;
    for (std::size_t e = pred_begin_[k]; e < pred_begin_[k + 1]; ++e) {
      const auto s = static_cast<std::size_t>(preds_[e]);
      ready = std::max(ready, out.start[s] + latency_[s]);
    }
    Cycles t = ready;
    const int cls = class_of_[i];
    if (cls >= 0 && latency_[i] > 0) {
      SlotFinder& finder = finders_[static_cast<std::size_t>(cls)];
      t = finder.first_fit(ready, latency_[i]);
      if (t == SlotFinder::kNoSlot || t > horizon) {
        out.feasible = false;
        return out;
      }
      finder.reserve(t, latency_[i]);
    }
    out.start[i] = t;
    out.length = std::max(out.length, t + latency_[i]);
  }
  out.initiation_interval = ii > 0 ? ii : out.length;
  return out;
}

const OpSchedule& SchedulePlan::list_schedule(
    const ResourceLimits& limits) const {
  return schedule(limits, 0);
}

const OpSchedule& SchedulePlan::pipeline_schedule(
    const ResourceLimits& limits, Cycles ii) const {
  CHOP_REQUIRE(ii >= 1, "pipeline initiation interval must be positive");
  return schedule(limits, ii);
}

Cycles SchedulePlan::min_initiation_interval(
    const ResourceLimits& limits) const {
  Cycles bound = 1;
  // Functional-unit classes are checked before memory classes.
  for (const bool memory : {false, true}) {
    for (const ResourceClass& c : classes_) {
      if (c.is_memory != memory) continue;
      int units = 0;
      if (memory) {
        auto it = limits.memory_ports.find(c.block);
        if (it == limits.memory_ports.end()) continue;
        units = it->second;
        CHOP_REQUIRE(units >= 1, "memory port count must be positive");
      } else {
        auto it = limits.fu.find(c.kind);
        if (it == limits.fu.end()) continue;
        units = it->second;
        CHOP_REQUIRE(units >= 1, "functional unit count must be positive");
      }
      bound = std::max(bound, (c.busy + units - 1) / units);
    }
  }
  return bound;
}

OpSchedule list_schedule(const dfg::Graph& g, std::span<const Cycles> latency,
                         const ResourceLimits& limits) {
  return SchedulePlan(g, latency).list_schedule(limits);
}

OpSchedule pipeline_schedule(const dfg::Graph& g,
                             std::span<const Cycles> latency,
                             const ResourceLimits& limits, Cycles ii) {
  CHOP_REQUIRE(ii >= 1, "pipeline initiation interval must be positive");
  return SchedulePlan(g, latency).pipeline_schedule(limits, ii);
}

Cycles min_initiation_interval(const dfg::Graph& g,
                               std::span<const Cycles> latency,
                               const ResourceLimits& limits) {
  return SchedulePlan(g, latency).min_initiation_interval(limits);
}

}  // namespace chop::sched
