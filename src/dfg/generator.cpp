#include "dfg/generator.hpp"

#include <algorithm>

#include "util/numbered.hpp"

namespace chop::dfg {

BenchmarkGraph random_dag(Rng& rng, const RandomDagSpec& spec) {
  CHOP_REQUIRE(spec.operations >= 1, "random_dag needs at least one op");
  CHOP_REQUIRE(spec.depth >= 1, "random_dag needs at least one layer");
  CHOP_REQUIRE(spec.depth <= spec.operations,
               "depth cannot exceed operation count");
  CHOP_REQUIRE(spec.width > 0, "random_dag width must be positive");
  CHOP_REQUIRE(spec.mul_fraction >= 0.0 && spec.mul_fraction <= 1.0,
               "mul_fraction must be a probability");
  CHOP_REQUIRE(spec.mem_reads >= 0 && spec.mem_writes >= 0,
               "memory op counts must be non-negative");
  CHOP_REQUIRE(spec.mem_reads + spec.mem_writes == 0 || spec.memory_blocks >= 1,
               "memory operations need at least one memory block");

  BenchmarkGraph bg;
  Graph& g = bg.graph;
  g.set_name("random_dag");

  std::vector<NodeId> sources;  // values usable as operands
  const int n_inputs = std::max(2, spec.extra_inputs);
  // Scale hardening: everything below is O(nodes + edges) as long as the
  // growing containers never reallocate-and-copy more than a constant
  // number of times, so size the big ones up front (100k-op graphs are a
  // supported bench workload).
  sources.reserve(static_cast<std::size_t>(n_inputs) +
                  static_cast<std::size_t>(spec.mem_reads) +
                  static_cast<std::size_t>(spec.operations));
  bg.layers.reserve(static_cast<std::size_t>(spec.depth));
  // Upper bound: every op may end up dangling and grow a dedicated output.
  const std::size_t node_bound = 2 * static_cast<std::size_t>(spec.operations) +
                                 static_cast<std::size_t>(n_inputs) +
                                 static_cast<std::size_t>(spec.mem_reads) +
                                 static_cast<std::size_t>(spec.mem_writes);
  g.reserve(node_bound, 3 * node_bound);
  for (int i = 0; i < n_inputs; ++i) {
    sources.push_back(g.add_input(numbered("in", i), spec.width));
  }

  // Streamed memory reads feed the datapath from the start; they join the
  // first layer's member list below so layer-span partitions adopt them.
  std::vector<NodeId> mem_read_nodes;
  for (int i = 0; i < spec.mem_reads; ++i) {
    const int block = static_cast<int>(
        rng.uniform(0, static_cast<std::int64_t>(spec.memory_blocks) - 1));
    mem_read_nodes.push_back(
        g.add_mem_read(block, spec.width, kNoNode, numbered("mr", i)));
    sources.push_back(mem_read_nodes.back());
  }

  // Distribute ops over layers as evenly as possible, at least one per
  // layer so the requested depth is realized.
  std::vector<int> per_layer(static_cast<std::size_t>(spec.depth), 0);
  for (int i = 0; i < spec.operations; ++i) {
    per_layer[static_cast<std::size_t>(i % spec.depth)]++;
  }

  NodeId chain_prev = kNoNode;  // guarantees depth: a dedicated chain op
  for (int layer = 0; layer < spec.depth; ++layer) {
    std::vector<NodeId> this_layer;
    for (int i = 0; i < per_layer[static_cast<std::size_t>(layer)]; ++i) {
      const OpKind kind =
          rng.chance(spec.mul_fraction) ? OpKind::Mul : OpKind::Add;
      // The first op of each layer chains from the previous layer's chain
      // op so the requested depth is realized exactly; everything else
      // draws operands uniformly from earlier values.
      NodeId lhs;
      if (i == 0 && chain_prev != kNoNode) {
        lhs = chain_prev;
      } else {
        lhs = sources[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(sources.size()) - 1))];
      }
      const NodeId rhs = sources[static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(sources.size()) - 1))];
      this_layer.push_back(g.add_op(kind, spec.width, {lhs, rhs}));
    }
    sources.insert(sources.end(), this_layer.begin(), this_layer.end());
    chain_prev = this_layer.front();
    bg.layers.push_back(std::move(this_layer));
  }
  bg.layers.front().insert(bg.layers.front().end(), mem_read_nodes.begin(),
                           mem_read_nodes.end());

  // Memory writes consume random operation results; they live in the last
  // layer so every write's data edge points backward in layer order.
  const std::size_t first_op = static_cast<std::size_t>(n_inputs) +
                               mem_read_nodes.size();
  for (int i = 0; i < spec.mem_writes; ++i) {
    const int block = static_cast<int>(
        rng.uniform(0, static_cast<std::int64_t>(spec.memory_blocks) - 1));
    const NodeId data = sources[static_cast<std::size_t>(rng.uniform(
        static_cast<std::int64_t>(first_op),
        static_cast<std::int64_t>(sources.size()) - 1))];
    bg.layers.back().push_back(
        g.add_mem_write(block, data, kNoNode, numbered("mw", i)));
  }

  // Expose every value with no consumer as a primary output. MemWrite
  // produces no value; MemRead results without consumers are exposed like
  // any other dangling value.
  int out_idx = 0;
  const std::size_t node_count = g.node_count();
  for (std::size_t i = 0; i < node_count; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    const OpKind kind = g.node(id).kind;
    if (kind == OpKind::Input || kind == OpKind::MemWrite) continue;
    if (g.fanout(id).empty()) {
      g.add_output(numbered("y", out_idx++), id);
    }
  }

  g.validate();
  return bg;
}

}  // namespace chop::dfg
