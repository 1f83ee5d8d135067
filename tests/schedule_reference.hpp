// Test-local reference implementations of BAD's operation scheduler and
// register-demand estimate: the straightforward loops the production code
// must agree with, value for value. The list scheduler re-sorts the
// priority list and sweeps it until every node is placed, trying start
// cycles one at a time; register demand adds each value's width once per
// cycle of its lifetime. Slow on purpose — only the oracle tests use them.
// random_case() draws the graphs, latencies and memory ports they run on.
#pragma once

#include <algorithm>
#include <map>
#include <numeric>
#include <span>
#include <vector>

#include "dfg/analysis.hpp"
#include "dfg/generator.hpp"
#include "dfg/graph.hpp"
#include "schedule/op_schedule.hpp"
#include "util/rng.hpp"

namespace chop::sched::reference {

struct ResourceKey {
  bool used = false;
  bool is_memory = false;
  dfg::OpKind kind = dfg::OpKind::Add;
  int block = -1;

  bool operator==(const ResourceKey&) const = default;
};

inline ResourceKey key_for(const dfg::Node& node) {
  ResourceKey key;
  if (dfg::needs_functional_unit(node.kind)) {
    key.used = true;
    key.kind = node.kind;
  } else if (node.kind == dfg::OpKind::MemRead ||
             node.kind == dfg::OpKind::MemWrite) {
    key.used = true;
    key.is_memory = true;
    key.block = node.memory_block;
  }
  return key;
}

/// Per-cycle usage timeline plus modulo-II phases, checked cell by cell.
class UsageTracker {
 public:
  UsageTracker(int capacity, Cycles ii) : capacity_(capacity), ii_(ii) {
    if (ii_ > 0) phase_.assign(static_cast<std::size_t>(ii_), 0);
  }

  bool fits(Cycles t, Cycles duration) const {
    if (capacity_ < 0) return true;
    for (Cycles c = t; c < t + duration; ++c) {
      if (usage_at(c) + 1 > capacity_) return false;
    }
    if (ii_ > 0) {
      const Cycles span = std::min(duration, ii_);
      for (Cycles j = 0; j < span; ++j) {
        const auto p = static_cast<std::size_t>((t + j) % ii_);
        if (phase_[p] + 1 > capacity_) return false;
      }
    }
    return true;
  }

  void reserve(Cycles t, Cycles duration) {
    if (capacity_ < 0) return;
    if (t + duration > static_cast<Cycles>(timeline_.size())) {
      timeline_.resize(static_cast<std::size_t>(t + duration), 0);
    }
    for (Cycles c = t; c < t + duration; ++c) {
      timeline_[static_cast<std::size_t>(c)]++;
    }
    if (ii_ > 0) {
      const Cycles span = std::min(duration, ii_);
      for (Cycles j = 0; j < span; ++j) {
        phase_[static_cast<std::size_t>((t + j) % ii_)]++;
      }
    }
  }

 private:
  int usage_at(Cycles c) const {
    return c < static_cast<Cycles>(timeline_.size())
               ? timeline_[static_cast<std::size_t>(c)]
               : 0;
  }

  int capacity_;
  Cycles ii_;
  std::vector<int> timeline_;
  std::vector<int> phase_;
};

/// `ii == 0` schedules nonpipelined.
inline OpSchedule schedule(const dfg::Graph& g,
                           std::span<const Cycles> latency,
                           const ResourceLimits& limits, Cycles ii) {
  const dfg::Levels levels = dfg::compute_levels(g, latency);

  std::vector<ResourceKey> keys;
  std::vector<UsageTracker> trackers;
  std::vector<int> class_of(g.node_count(), -1);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const ResourceKey key = key_for(g.node(static_cast<dfg::NodeId>(i)));
    if (!key.used) continue;
    auto it = std::find(keys.begin(), keys.end(), key);
    if (it == keys.end()) {
      keys.push_back(key);
      trackers.emplace_back(
          limits.limit_for(g.node(static_cast<dfg::NodeId>(i))), ii);
      it = keys.end() - 1;
    }
    class_of[i] = static_cast<int>(it - keys.begin());
  }

  std::vector<dfg::NodeId> order(g.node_count());
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

  OpSchedule out;
  out.start.assign(g.node_count(), 0);
  out.feasible = true;

  Cycles total_latency = 0;
  for (Cycles l : latency) total_latency += l;
  const Cycles horizon = levels.length + total_latency + (ii > 0 ? ii : 0) + 4;

  std::vector<bool> placed(g.node_count(), false);
  std::size_t remaining = g.node_count();
  while (remaining > 0) {
    for (dfg::NodeId id : order) {
      const auto i = static_cast<std::size_t>(id);
      if (placed[i]) continue;
      Cycles ready = 0;
      bool deps_ok = true;
      for (dfg::EdgeId e : g.fanin(id)) {
        const auto s = static_cast<std::size_t>(g.edge(e).src);
        if (!placed[s]) {
          deps_ok = false;
          break;
        }
        ready = std::max(ready, out.start[s] + latency[s]);
      }
      if (!deps_ok) continue;

      const int cls = class_of[i];
      Cycles t = ready;
      if (cls >= 0 && latency[i] > 0) {
        UsageTracker& tracker = trackers[static_cast<std::size_t>(cls)];
        while (t <= horizon && !tracker.fits(t, latency[i])) ++t;
        if (t > horizon) {
          out.feasible = false;
          return out;
        }
        tracker.reserve(t, latency[i]);
      }
      out.start[i] = t;
      out.length = std::max(out.length, t + latency[i]);
      placed[i] = true;
      --remaining;
    }
  }
  out.initiation_interval = ii > 0 ? ii : out.length;
  return out;
}

/// max over resource classes of ceil(busy cycles / units).
inline Cycles min_initiation_interval(const dfg::Graph& g,
                                      std::span<const Cycles> latency,
                                      const ResourceLimits& limits) {
  std::map<dfg::OpKind, Cycles> fu_busy;
  std::map<int, Cycles> mem_busy;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const dfg::Node& n = g.node(static_cast<dfg::NodeId>(i));
    if (dfg::needs_functional_unit(n.kind)) {
      fu_busy[n.kind] += latency[i];
    } else if (n.kind == dfg::OpKind::MemRead ||
               n.kind == dfg::OpKind::MemWrite) {
      mem_busy[n.memory_block] += latency[i];
    }
  }
  Cycles bound = 1;
  for (const auto& [kind, busy] : fu_busy) {
    auto it = limits.fu.find(kind);
    if (it == limits.fu.end()) continue;
    bound = std::max(bound, (busy + it->second - 1) / it->second);
  }
  for (const auto& [block, busy] : mem_busy) {
    auto it = limits.memory_ports.find(block);
    if (it == limits.memory_ports.end()) continue;
    bound = std::max(bound, (busy + it->second - 1) / it->second);
  }
  return bound;
}

/// Peak bits alive across any boundary, folded modulo the II.
inline Bits register_demand(const dfg::Graph& g,
                            std::span<const Cycles> latency,
                            const OpSchedule& schedule) {
  const Cycles ii = std::max<Cycles>(schedule.initiation_interval, 1);
  std::vector<Bits> phase(static_cast<std::size_t>(ii), 0);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const dfg::NodeId id = static_cast<dfg::NodeId>(i);
    const dfg::Node& n = g.node(id);
    if (n.kind == dfg::OpKind::Output || n.width == 0) continue;
    if (n.kind == dfg::OpKind::Input) continue;
    const Cycles birth = schedule.start[i] + latency[i];
    Cycles death = birth;
    for (dfg::EdgeId e : g.fanout(id)) {
      const dfg::NodeId dst = g.edge(e).dst;
      const auto d = static_cast<std::size_t>(dst);
      if (g.node(dst).kind == dfg::OpKind::Output) {
        death = std::max(death, birth + 1);
      } else {
        death = std::max(death, schedule.start[d] + latency[d]);
      }
    }
    for (Cycles b = birth; b < death; ++b) {
      phase[static_cast<std::size_t>(b % ii)] += n.width;
    }
  }
  return *std::max_element(phase.begin(), phase.end());
}

/// Every allocation BAD's sweep tries: the cartesian product over `kinds`
/// of the counts in `unit_sweep` that do not exceed the kind's op count
/// (the op count itself when none does).
inline std::vector<std::map<dfg::OpKind, int>> sweep_allocations(
    const dfg::Graph& g, std::span<const dfg::OpKind> kinds,
    std::span<const int> unit_sweep) {
  std::vector<std::map<dfg::OpKind, int>> allocs{{}};
  for (dfg::OpKind kind : kinds) {
    const auto ops = static_cast<int>(g.count_of_kind(kind));
    std::vector<int> counts;
    for (int v : unit_sweep) {
      if (v <= ops) counts.push_back(v);
    }
    if (counts.empty()) counts.push_back(ops);
    std::vector<std::map<dfg::OpKind, int>> next;
    for (const auto& base : allocs) {
      for (int c : counts) {
        auto extended = base;
        extended[kind] = c;
        next.push_back(std::move(extended));
      }
    }
    allocs = std::move(next);
  }
  return allocs;
}

/// A random scheduling problem: a layered DAG of 4-40 Add/Mul ops of one
/// random width (1-32 bits), in two
/// of three cases with memory reads and writes on 1-3 blocks (so blocks
/// are often shared), random latencies (0-4 cycles per functional-unit op,
/// 0-3 per memory op, so ops can be longer than small IIs), and per block
/// 1 or 2 ports or none listed (unlimited).
struct RandomCase {
  dfg::BenchmarkGraph bg;
  std::vector<Cycles> latency;
  std::map<int, int> memory_ports;
};

inline RandomCase random_case(std::uint64_t seed) {
  Rng rng(seed);
  dfg::RandomDagSpec spec;
  spec.operations = static_cast<int>(rng.uniform(4, 40));
  spec.depth = static_cast<int>(rng.uniform(1, std::min(spec.operations, 10)));
  spec.mul_fraction = rng.uniform01();
  spec.width = rng.uniform(1, 32);
  if (seed % 3 != 0) {
    spec.memory_blocks = static_cast<int>(rng.uniform(1, 3));
    spec.mem_reads = static_cast<int>(rng.uniform(0, 5));
    spec.mem_writes = static_cast<int>(rng.uniform(0, 3));
  }
  RandomCase c{dfg::random_dag(rng, spec), {}, {}};
  const dfg::Graph& g = c.bg.graph;
  c.latency.assign(g.node_count(), 0);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const dfg::Node& n = g.node(static_cast<dfg::NodeId>(i));
    if (dfg::needs_functional_unit(n.kind)) {
      c.latency[i] = rng.uniform(0, 4);
    } else if (n.kind == dfg::OpKind::MemRead ||
               n.kind == dfg::OpKind::MemWrite) {
      c.latency[i] = rng.uniform(0, 3);
    }
  }
  for (int b = 0; b < spec.memory_blocks; ++b) {
    const auto ports = static_cast<int>(rng.uniform(0, 2));
    if (ports > 0) c.memory_ports[b] = ports;
  }
  return c;
}

}  // namespace chop::sched::reference
