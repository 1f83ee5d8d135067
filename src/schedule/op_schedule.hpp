// Operation scheduling inside one partition.
//
// BAD's prediction engine needs, for every (module set, allocation, design
// style) candidate, the number of control steps a resource-constrained
// schedule takes — nonpipelined — and, for pipelined designs, whether a
// given initiation interval is achievable (the Sehwa-style question, paper
// ref [8]). Both are answered by priority list scheduling with ALAP-based
// urgency; the pipelined variant adds modulo-II resource reservation.
//
// Cost. Everything that depends only on the graph and the latency vector —
// levels, the priority order, resource classes — lives in a SchedulePlan,
// built once per module set in O(n log n + e). One schedule from a plan is
// then O(n + e) plus its slot searches: each resource class keeps a
// path-compressed "next cycle (or phase) below capacity" array, so a
// first-fit search jumps over full cycles instead of walking them, and a
// pipelined search never looks at more than II candidate starts, because
// fitting depends only on the start's phase modulo II.
#pragma once

#include <map>
#include <span>
#include <vector>

#include "dfg/analysis.hpp"
#include "dfg/graph.hpp"
#include "util/units.hpp"

namespace chop::sched {

/// Resource limits a schedule must respect: functional units per operation
/// kind and ports per memory block. Kinds/blocks absent from the maps are
/// unconstrained (treated as unlimited — used by ASAP bounds).
struct ResourceLimits {
  std::map<dfg::OpKind, int> fu;
  std::map<int, int> memory_ports;

  /// Limit applying to `node`, or 0 if the node consumes no resource.
  /// Returns -1 for "unlimited".
  int limit_for(const dfg::Node& node) const;
};

/// Result of a scheduling attempt. `start` is indexed by NodeId; `length`
/// counts control steps (datapath cycles); `initiation_interval` equals
/// `length` for nonpipelined schedules and the requested II for pipelined
/// ones. `feasible == false` means no schedule satisfied the constraints
/// within the scheduling horizon (a pipelined II too small, or a class
/// with zero units); `start` then holds only the nodes placed before the
/// failure.
struct OpSchedule {
  std::vector<Cycles> start;
  Cycles length = 0;
  Cycles initiation_interval = 0;
  bool feasible = false;
};

/// The allocation-independent half of scheduling one graph under one
/// latency vector (per node, in datapath cycles, non-negative; zero-latency
/// nodes occupy no resources and no time). Holds the priority order the
/// list scheduler places nodes in, each node's resource class, and
/// per-class busy cycles.
/// Keeps a reference to `g`, which must outlive the plan; the latency
/// vector is copied.
///
/// Scratch. Every schedule from a plan reuses the plan's buffers: the
/// returned OpSchedule and each class's slot-search arrays keep their
/// capacity across one module set's allocations and IIs, so a schedule
/// allocates nothing once the buffers have grown. A schedule returned by
/// reference is therefore valid only until the plan's next schedule, and
/// one plan must not schedule on two threads at once. The scratch takes no
/// lock: Predictor::predict builds each plan locally and uses it on one
/// thread.
class SchedulePlan {
 public:
  SchedulePlan(const dfg::Graph& g, std::span<const Cycles> latency);

  /// Nonpipelined resource-constrained list scheduling with ALAP urgency.
  const OpSchedule& list_schedule(const ResourceLimits& limits) const;

  /// Pipelined (modulo) list scheduling at initiation interval `ii`: every
  /// resource is reserved in the occupied cycles *modulo ii* so overlapped
  /// iterations never oversubscribe a unit. Returns feasible == false when
  /// no placement exists within the scheduling horizon.
  const OpSchedule& pipeline_schedule(const ResourceLimits& limits,
                                      Cycles ii) const;

  /// Sehwa-style lower bound on the initiation interval:
  /// max over resource classes of ceil(total busy cycles / unit count).
  Cycles min_initiation_interval(const ResourceLimits& limits) const;

 private:
  /// One resource class: a functional-unit kind or a memory block.
  struct ResourceClass {
    bool is_memory = false;
    dfg::OpKind kind = dfg::OpKind::Add;
    int block = -1;
    dfg::NodeId representative = dfg::kNoNode;  ///< For limit_for().
    Cycles busy = 0;  ///< Sum of its nodes' latencies.
  };

  /// First-fit slot search for one resource class (see the .cpp).
  class SlotFinder {
   public:
    static constexpr Cycles kNoSlot = -1;

    /// Empties the finder for `capacity` units (negative: unlimited) at
    /// `ii` (0: nonpipelined), keeping its buffers' capacity.
    void reset(int capacity, Cycles ii);
    Cycles first_fit(Cycles ready, Cycles duration);
    void reserve(Cycles t, Cycles duration);

   private:
    bool full(Cycles c) const;
    Cycles next_free(Cycles c);

    int capacity_ = -1;
    Cycles ii_ = 0;
    std::vector<int> used_;     ///< Per cycle, or per phase when pipelined.
    std::vector<Cycles> next_;  ///< Next cell to try; itself when not full.
    Cycles full_cells_ = 0;     ///< Full phases (pipelined only).
  };

  /// `ii == 0` means nonpipelined (no modulo reservation).
  const OpSchedule& schedule(const ResourceLimits& limits, Cycles ii) const;

  const dfg::Graph* graph_;
  std::vector<Cycles> latency_;
  std::vector<ResourceClass> classes_;
  std::vector<int> class_of_;  ///< Per node; -1 when it uses no resource.
  /// Nodes in priority order (ALAP, then ASAP, then id), which is also a
  /// topological order, so a schedule places them in one pass. The
  /// predecessors of order_[k] are preds_[pred_begin_[k] .. pred_begin_[k+1]).
  std::vector<dfg::NodeId> order_;
  std::vector<std::size_t> pred_begin_;
  std::vector<dfg::NodeId> preds_;
  /// Critical-path length + total latency + 4; a pipelined schedule adds
  /// its II. Finite, so an infeasible II terminates.
  Cycles horizon_base_ = 0;
  /// Scratch: the last schedule, and one slot finder per class.
  mutable OpSchedule last_;
  mutable std::vector<SlotFinder> finders_;
};

/// One-shot forms of the SchedulePlan members; each builds a plan.
OpSchedule list_schedule(const dfg::Graph& g, std::span<const Cycles> latency,
                         const ResourceLimits& limits);
OpSchedule pipeline_schedule(const dfg::Graph& g,
                             std::span<const Cycles> latency,
                             const ResourceLimits& limits, Cycles ii);
Cycles min_initiation_interval(const dfg::Graph& g,
                               std::span<const Cycles> latency,
                               const ResourceLimits& limits);

}  // namespace chop::sched
