#include "schedule/register_demand.hpp"

#include <algorithm>

namespace chop::sched {

Bits register_demand(const dfg::Graph& g, std::span<const Cycles> latency,
                     const OpSchedule& schedule) {
  CHOP_REQUIRE(latency.size() == g.node_count(),
               "latency vector size must match node count");
  CHOP_REQUIRE(schedule.start.size() == g.node_count(),
               "schedule does not belong to this graph");
  const Cycles ii = std::max<Cycles>(schedule.initiation_interval, 1);

  // Alive interval [birth, death) per value-producing node, in absolute
  // cycles of one iteration.
  struct Life {
    Cycles birth = 0;
    Cycles death = 0;
    Bits width = 0;
  };
  std::vector<Life> lives;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const dfg::NodeId id = static_cast<dfg::NodeId>(i);
    const dfg::Node& n = g.node(id);
    if (n.kind == dfg::OpKind::Output || n.width == 0) continue;
    // Primary-input values are held in the data transfer module buffers
    // (sized separately at system integration), not in datapath registers.
    if (n.kind == dfg::OpKind::Input) continue;
    Life life;
    life.width = n.width;
    life.birth = schedule.start[i] + latency[i];
    life.death = life.birth;
    for (dfg::EdgeId e : g.fanout(id)) {
      const dfg::NodeId dst = g.edge(e).dst;
      const auto d = static_cast<std::size_t>(dst);
      if (g.node(dst).kind == dfg::OpKind::Output) {
        // Output values hand off to the data transfer module's buffer one
        // cycle after production (the B = D(ceil(W/l)+X/l) buffer model of
        // §2.5 carries them from there).
        life.death = std::max(life.death, life.birth + 1);
      } else {
        // Consumer reads the value throughout its execution.
        life.death = std::max(life.death, schedule.start[d] + latency[d]);
      }
    }
    if (life.death > life.birth) lives.push_back(life);
  }

  // Bits alive across each boundary, folded modulo the II so overlapped
  // iterations of a pipelined design share one accounting.
  std::vector<Bits> phase(static_cast<std::size_t>(ii), 0);
  for (const Life& life : lives) {
    // Boundaries crossed: b in [birth, death), meaning alive during cycle b
    // going into b+1; fold b mod ii, counting each folded phase once per
    // crossing (concurrent iterations stack).
    for (Cycles b = life.birth; b < life.death; ++b) {
      phase[static_cast<std::size_t>(b % ii)] += life.width;
    }
  }
  return phase.empty() ? 0 : *std::max_element(phase.begin(), phase.end());
}

}  // namespace chop::sched
