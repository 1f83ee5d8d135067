#include "dfg/benchmarks.hpp"

#include <string>

#include "util/numbered.hpp"

namespace chop::dfg {

std::vector<NodeId> BenchmarkGraph::layer_span(std::size_t first,
                                               std::size_t last) const {
  CHOP_REQUIRE(first <= last && last < layers.size(),
               "layer span out of range");
  std::vector<NodeId> out;
  for (std::size_t l = first; l <= last; ++l) {
    out.insert(out.end(), layers[l].begin(), layers[l].end());
  }
  return out;
}

std::vector<NodeId> BenchmarkGraph::all_operations() const {
  return layer_span(0, layers.size() - 1);
}

BenchmarkGraph ar_lattice_filter(Bits width) {
  BenchmarkGraph bg;
  Graph& g = bg.graph;
  g.set_name("ar_lattice_filter");

  // Cascade of four lattice sections. Each section takes the running
  // lattice value (carry), one input sample and one state value, forms
  // four reflection products, and combines them with three additions —
  // one feeding the next section, two exposed as section outputs. ASAP
  // levels alternate strictly: 4 muls, 3 adds, 4 muls, ... (depth 8),
  // which is the op profile the paper's experiments exercise.
  NodeId carry = g.add_input("x", width);
  for (int sec = 0; sec < 4; ++sec) {
    const std::string t = std::to_string(sec + 1);
    const NodeId xi = g.add_input("x" + t, width);
    const NodeId si = g.add_input("s" + t, width);
    const NodeId k1 = g.add_constant_input("k" + t + "a", width);
    const NodeId k2 = g.add_constant_input("k" + t + "b", width);
    const NodeId k3 = g.add_constant_input("k" + t + "c", width);
    const NodeId k4 = g.add_constant_input("k" + t + "d", width);

    const NodeId m1 = g.add_op(OpKind::Mul, width, {carry, k1}, "m1_" + t);
    const NodeId m2 = g.add_op(OpKind::Mul, width, {xi, k2}, "m2_" + t);
    const NodeId m3 = g.add_op(OpKind::Mul, width, {si, k3}, "m3_" + t);
    const NodeId m4 = g.add_op(OpKind::Mul, width, {carry, k4}, "m4_" + t);
    bg.layers.push_back({m1, m2, m3, m4});

    const NodeId a1 = g.add_op(OpKind::Add, width, {m1, m2}, "a1_" + t);
    const NodeId a2 = g.add_op(OpKind::Add, width, {m3, m4}, "a2_" + t);
    const NodeId a3 = g.add_op(OpKind::Add, width, {m4, m2}, "a3_" + t);
    bg.layers.push_back({a1, a2, a3});

    // Each section exposes its filtered sample and state update.
    g.add_output("y" + t, a2);
    g.add_output("z" + t, a3);
    carry = a1;
  }
  g.add_output("c_out", carry);

  g.validate();
  CHOP_ASSERT(g.count_of_kind(OpKind::Mul) == 16, "AR filter must have 16 muls");
  CHOP_ASSERT(g.count_of_kind(OpKind::Add) == 12, "AR filter must have 12 adds");
  return bg;
}

std::vector<std::vector<NodeId>> ar_two_way_cut(const BenchmarkGraph& ar) {
  // "A horizontal cut from the middle of the graph": sections 1-2 vs 3-4.
  return {ar.layer_span(0, 3), ar.layer_span(4, 7)};
}

std::vector<std::vector<NodeId>> ar_three_way_cut(const BenchmarkGraph& ar) {
  // "Three partitions of approximately equal size": 11 / 10 / 7 ops.
  return {ar.layer_span(0, 2), ar.layer_span(3, 5), ar.layer_span(6, 7)};
}

BenchmarkGraph elliptic_wave_filter(Bits width) {
  BenchmarkGraph bg;
  Graph& g = bg.graph;
  g.set_name("elliptic_wave_filter");

  // Two parallel chains of four lattice-like sections, each section
  // contributing three additions and one multiplication, merged by two
  // final additions: 26 adds, 8 muls.
  std::vector<NodeId> chain_end(2, kNoNode);
  for (int chain = 0; chain < 2; ++chain) {
    NodeId prev = g.add_input(numbered("in", chain), width);
    for (int sec = 0; sec < 4; ++sec) {
      const std::string tag =
          std::to_string(chain) + "_" + std::to_string(sec);
      const NodeId xi = g.add_input("x" + tag, width);
      const NodeId si = g.add_input("s" + tag, width);
      const NodeId ki = g.add_constant_input("k" + tag, width);
      const NodeId a1 = g.add_op(OpKind::Add, width, {prev, xi}, "a1_" + tag);
      const NodeId a2 = g.add_op(OpKind::Add, width, {a1, si}, "a2_" + tag);
      const NodeId mu = g.add_op(OpKind::Mul, width, {a2, ki}, "m_" + tag);
      const NodeId a3 = g.add_op(OpKind::Add, width, {mu, a1}, "a3_" + tag);
      bg.layers.push_back({a1, a2, mu, a3});
      prev = a3;
    }
    chain_end[static_cast<std::size_t>(chain)] = prev;
  }
  const NodeId sum = g.add_op(OpKind::Add, width, {chain_end[0], chain_end[1]},
                              "merge");
  const NodeId bias = g.add_input("bias", width);
  const NodeId out = g.add_op(OpKind::Add, width, {sum, bias}, "final");
  bg.layers.push_back({sum, out});
  g.add_output("y", out);

  g.validate();
  CHOP_ASSERT(g.count_of_kind(OpKind::Add) == 26, "EWF must have 26 adds");
  CHOP_ASSERT(g.count_of_kind(OpKind::Mul) == 8, "EWF must have 8 muls");
  return bg;
}

BenchmarkGraph fir16(Bits width) {
  BenchmarkGraph bg;
  Graph& g = bg.graph;
  g.set_name("fir16");

  std::vector<NodeId> products;
  products.reserve(16);
  std::vector<NodeId> taps;
  for (int i = 0; i < 16; ++i) {
    const NodeId xi = g.add_input(numbered("x", i), width);
    const NodeId ci = g.add_constant_input(numbered("c", i), width);
    taps.push_back(g.add_op(OpKind::Mul, width, {xi, ci},
                            numbered("p", i)));
  }
  bg.layers.push_back(taps);

  // Balanced 15-add reduction tree.
  std::vector<NodeId> level = taps;
  int add_idx = 0;
  while (level.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(g.add_op(OpKind::Add, width, {level[i], level[i + 1]},
                              numbered("t", add_idx++)));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    bg.layers.push_back(next);
    level = std::move(next);
  }
  g.add_output("y", level[0]);

  // The last recorded layer may contain a carried-over node already in an
  // earlier layer only when the level size was odd — with 16 taps every
  // level is even, so layers partition the operations.
  g.validate();
  CHOP_ASSERT(g.count_of_kind(OpKind::Mul) == 16, "FIR16 must have 16 muls");
  CHOP_ASSERT(g.count_of_kind(OpKind::Add) == 15, "FIR16 must have 15 adds");
  return bg;
}

BenchmarkGraph diffeq(Bits width) {
  BenchmarkGraph bg;
  Graph& g = bg.graph;
  g.set_name("diffeq");

  const NodeId x = g.add_input("x", width);
  const NodeId y = g.add_input("y", width);
  const NodeId u = g.add_input("u", width);
  const NodeId dx = g.add_input("dx", width);
  const NodeId a = g.add_input("a", width);
  const NodeId three = g.add_constant_input("three", width);

  // Layer 1: the first-level products and the x update.
  const NodeId m1 = g.add_op(OpKind::Mul, width, {three, x}, "m1");  // 3x
  const NodeId m2 = g.add_op(OpKind::Mul, width, {u, dx}, "m2");     // u*dx
  const NodeId m3 = g.add_op(OpKind::Mul, width, {three, y}, "m3");  // 3y
  const NodeId m4 = g.add_op(OpKind::Mul, width, {u, dx}, "m4");
  const NodeId x1 = g.add_op(OpKind::Add, width, {x, dx}, "x1");     // x + dx
  bg.layers.push_back({m1, m2, m3, m4, x1});

  // Layer 2: the chained products.
  const NodeId m6 = g.add_op(OpKind::Mul, width, {m1, m2}, "m6");  // 3x*u*dx
  const NodeId m7 = g.add_op(OpKind::Mul, width, {m3, m4}, "m7");  // 3y*u*dx
  bg.layers.push_back({m6, m7});

  // Layer 3: the u update and the y update.
  const NodeId s1 = g.add_op(OpKind::Sub, width, {u, m6}, "s1");   // u - 3x u dx
  const NodeId y1 = g.add_op(OpKind::Add, width, {y, m2}, "y1");   // y + u dx
  bg.layers.push_back({s1, y1});

  // Layer 4: final subtraction and the loop-exit compare.
  const NodeId u1 = g.add_op(OpKind::Sub, width, {s1, m7}, "u1");
  const NodeId c = g.add_op(OpKind::Compare, 1, {x1, a}, "c");     // x1 < a
  bg.layers.push_back({u1, c});

  g.add_output("x_out", x1);
  g.add_output("y_out", y1);
  g.add_output("u_out", u1);
  g.add_output("continue", c);

  g.validate();
  CHOP_ASSERT(g.count_of_kind(OpKind::Mul) == 6, "diffeq has 6 muls");
  CHOP_ASSERT(g.count_of_kind(OpKind::Add) == 2, "diffeq has 2 adds");
  CHOP_ASSERT(g.count_of_kind(OpKind::Sub) == 2, "diffeq has 2 subs");
  CHOP_ASSERT(g.count_of_kind(OpKind::Compare) == 1, "diffeq has 1 compare");
  return bg;
}

BenchmarkGraph ar_lattice_filter_with_memory(Bits width) {
  BenchmarkGraph bg = ar_lattice_filter(width);
  Graph& g = bg.graph;
  g.set_name("ar_lattice_filter_mem");

  // Stream two extra coefficient fetches from memory block 0 into a
  // correction term, and spill the adjusted carry to memory block 1.
  // Layered after the existing graph so the reference cuts stay valid.
  const NodeId q0 = g.add_mem_read(0, width, kNoNode, "coef_q0");
  const NodeId q1 = g.add_mem_read(0, width, kNoNode, "coef_q1");
  const NodeId corr = g.add_op(OpKind::Mul, width, {q0, q1}, "corr");
  // Combine with the final section's carry add.
  const NodeId o1 = bg.layers.back()[0];
  const NodeId adj = g.add_op(OpKind::Add, width, {o1, corr}, "adj");
  const NodeId spill = g.add_mem_write(1, adj, kNoNode, "spill");
  g.add_output("y_adj", adj);
  bg.layers.push_back({q0, q1, corr, adj, spill});

  g.validate();
  return bg;
}

}  // namespace chop::dfg
