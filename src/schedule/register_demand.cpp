#include "schedule/register_demand.hpp"

#include <algorithm>
#include <vector>

namespace chop::sched {

Bits register_demand(const dfg::Graph& g, std::span<const Cycles> latency,
                     const OpSchedule& schedule) {
  CHOP_REQUIRE(latency.size() == g.node_count(),
               "latency vector size must match node count");
  CHOP_REQUIRE(schedule.start.size() == g.node_count(),
               "schedule does not belong to this graph");
  const Cycles ii = std::max<Cycles>(schedule.initiation_interval, 1);

  // Bits alive across each boundary b of one iteration (alive during cycle
  // b going into b+1), as a difference array over absolute cycles: a value
  // alive over [birth, death) adds its width at birth and removes it at
  // death. Deaths fall at most one cycle past the schedule's length; `add`
  // still grows the array for a schedule whose starts run past it.
  std::vector<Bits> delta(
      static_cast<std::size_t>(std::max<Cycles>(schedule.length, 0)) + 2, 0);
  const auto add = [&delta](Cycles cycle, Bits bits) {
    const auto c = static_cast<std::size_t>(cycle);
    if (c >= delta.size()) delta.resize(c + 1, 0);
    delta[c] += bits;
  };
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const dfg::NodeId id = static_cast<dfg::NodeId>(i);
    const dfg::Node& n = g.node(id);
    if (n.kind == dfg::OpKind::Output || n.width == 0) continue;
    // Primary-input values are held in the data transfer module buffers
    // (sized separately at system integration), not in datapath registers.
    if (n.kind == dfg::OpKind::Input) continue;
    const Cycles birth = schedule.start[i] + latency[i];
    Cycles death = birth;
    for (dfg::EdgeId e : g.fanout(id)) {
      const dfg::NodeId dst = g.edge(e).dst;
      const auto d = static_cast<std::size_t>(dst);
      if (g.node(dst).kind == dfg::OpKind::Output) {
        // Output values hand off to the data transfer module's buffer one
        // cycle after production (the B = D(ceil(W/l)+X/l) buffer model of
        // §2.5 carries them from there).
        death = std::max(death, birth + 1);
      } else {
        // Consumer reads the value throughout its execution.
        death = std::max(death, schedule.start[d] + latency[d]);
      }
    }
    if (death > birth) {
      add(birth, n.width);
      add(death, -n.width);
    }
  }

  // Prefix sums give the bits alive across each boundary; fold boundary b
  // onto phase b mod ii so overlapped iterations of a pipelined design
  // share one accounting (concurrent iterations stack).
  std::vector<Bits> phase(static_cast<std::size_t>(ii), 0);
  Bits alive = 0;
  for (std::size_t b = 0; b < delta.size(); ++b) {
    alive += delta[b];
    phase[b % static_cast<std::size_t>(ii)] += alive;
  }
  return *std::max_element(phase.begin(), phase.end());
}

}  // namespace chop::sched
