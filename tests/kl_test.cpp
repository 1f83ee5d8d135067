// Tests for the Kernighan-Lin baseline partitioner (paper ref [4]).
#include "baseline/kernighan_lin.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "dfg/benchmarks.hpp"
#include "dfg/generator.hpp"

namespace chop::baseline {
namespace {

/// The textbook Kernighan-Lin pass, kept as the reference the
/// library's pruned scan must match swap for swap: every step scans all
/// (a, b) pairs in row-major order with strict `>` (so ties go to the
/// lowest a, then the lowest b), reads w(a, b) by a linear adjacency
/// search, and recomputes every unlocked D after each swap.
Bits reference_d_value(const KlGraph& g, const std::vector<int>& side,
                       int v) {
  Bits external = 0, internal = 0;
  for (const auto& [u, w] : g.adjacency[static_cast<std::size_t>(v)]) {
    if (side[static_cast<std::size_t>(u)] == side[static_cast<std::size_t>(v)]) {
      internal += w;
    } else {
      external += w;
    }
  }
  return external - internal;
}

Bits reference_edge_weight(const KlGraph& g, int a, int b) {
  for (const auto& [u, w] : g.adjacency[static_cast<std::size_t>(a)]) {
    if (u == b) return w;
  }
  return 0;
}

KlResult reference_kernighan_lin(const KlGraph& g, std::vector<int> initial) {
  KlResult result;
  result.side = std::move(initial);
  const auto n = static_cast<std::size_t>(g.vertex_count);
  while (true) {
    ++result.passes;
    std::vector<int> side = result.side;
    std::vector<bool> locked(n, false);
    std::vector<Bits> d(n);
    for (int v = 0; v < g.vertex_count; ++v) {
      d[static_cast<std::size_t>(v)] = reference_d_value(g, side, v);
    }
    std::vector<std::pair<int, int>> swaps;
    std::vector<Bits> gains;
    for (int step = 0; step < g.vertex_count / 2; ++step) {
      Bits best_gain = std::numeric_limits<Bits>::min();
      int best_a = -1, best_b = -1;
      for (int a = 0; a < g.vertex_count; ++a) {
        if (locked[static_cast<std::size_t>(a)] ||
            side[static_cast<std::size_t>(a)] != 0) {
          continue;
        }
        for (int b = 0; b < g.vertex_count; ++b) {
          if (locked[static_cast<std::size_t>(b)] ||
              side[static_cast<std::size_t>(b)] != 1) {
            continue;
          }
          const Bits gain = d[static_cast<std::size_t>(a)] +
                            d[static_cast<std::size_t>(b)] -
                            2 * reference_edge_weight(g, a, b);
          if (gain > best_gain) {
            best_gain = gain;
            best_a = a;
            best_b = b;
          }
        }
      }
      if (best_a < 0) break;
      swaps.emplace_back(best_a, best_b);
      gains.push_back(best_gain);
      locked[static_cast<std::size_t>(best_a)] = true;
      locked[static_cast<std::size_t>(best_b)] = true;
      std::swap(side[static_cast<std::size_t>(best_a)],
                side[static_cast<std::size_t>(best_b)]);
      for (int v = 0; v < g.vertex_count; ++v) {
        if (!locked[static_cast<std::size_t>(v)]) {
          d[static_cast<std::size_t>(v)] = reference_d_value(g, side, v);
        }
      }
    }
    Bits best_total = 0, running = 0;
    std::size_t best_k = 0;
    for (std::size_t k = 0; k < gains.size(); ++k) {
      running += gains[k];
      if (running > best_total) {
        best_total = running;
        best_k = k + 1;
      }
    }
    if (best_total <= 0) break;
    for (std::size_t k = 0; k < best_k; ++k) {
      std::swap(result.side[static_cast<std::size_t>(swaps[k].first)],
                result.side[static_cast<std::size_t>(swaps[k].second)]);
    }
  }
  result.cut_cost = cut_cost(g, result.side);
  return result;
}

/// Runs both implementations from `initial` and asserts identical results.
void expect_matches_reference(const KlGraph& g, const std::vector<int>& initial,
                              const std::string& label) {
  const KlResult want = reference_kernighan_lin(g, initial);
  const KlResult got = kernighan_lin(g, initial);
  EXPECT_EQ(got.side, want.side) << label;
  EXPECT_EQ(got.passes, want.passes) << label;
  EXPECT_EQ(got.cut_cost, want.cut_cost) << label;
}

/// The FindsTheObviousCut graph: two heavy 64-bit chains joined only
/// through a 1-bit compare. Returns the graph and its ops, left chain first.
std::pair<dfg::Graph, std::vector<dfg::NodeId>> bridge_graph() {
  dfg::Graph g("bridge");
  std::vector<dfg::NodeId> left, right;
  const auto in = g.add_input("in", 64);
  dfg::NodeId prev = in;
  for (int i = 0; i < 4; ++i) {
    prev = g.add_op(dfg::OpKind::Add, 64, {prev, prev});
    left.push_back(prev);
  }
  const auto cmp = g.add_op(dfg::OpKind::Compare, 1, {prev, prev});
  left.push_back(cmp);
  dfg::NodeId prev2 = g.add_op(dfg::OpKind::Add, 64, {cmp, cmp});
  right.push_back(prev2);
  for (int i = 0; i < 3; ++i) {
    prev2 = g.add_op(dfg::OpKind::Add, 64, {prev2, prev2});
    right.push_back(prev2);
  }
  g.add_output("a", prev);
  g.add_output("b", prev2);
  std::vector<dfg::NodeId> ops = left;
  ops.insert(ops.end(), right.begin(), right.end());
  return {std::move(g), std::move(ops)};
}

TEST(KlGraph, BuildsFromOperations) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto ops = ar.all_operations();
  const KlGraph g = KlGraph::from_operations(ar.graph, ops);
  EXPECT_EQ(g.vertex_count, 28);
  // Every adjacency entry is symmetric.
  for (int v = 0; v < g.vertex_count; ++v) {
    for (const auto& [u, w] : g.adjacency[static_cast<std::size_t>(v)]) {
      bool found = false;
      for (const auto& [back, bw] : g.adjacency[static_cast<std::size_t>(u)]) {
        if (back == v && bw == w) found = true;
      }
      EXPECT_TRUE(found) << "asymmetric edge " << v << "<->" << u;
    }
  }
}

TEST(KlGraph, ParallelEdgesMerge) {
  dfg::Graph g("p");
  const auto a = g.add_input("a", 16);
  const auto m = g.add_op(dfg::OpKind::Mul, 16, {a, a});
  const auto s = g.add_op(dfg::OpKind::Add, 16, {m, m});  // two edges m->s
  g.add_output("y", s);
  const KlGraph kg = KlGraph::from_operations(g, {m, s});
  ASSERT_EQ(kg.adjacency[0].size(), 1u);
  EXPECT_EQ(kg.adjacency[0][0].second, 32);  // merged weight
}

TEST(KlGraph, AdjacencySortedByNeighbour) {
  Rng rng(31);
  dfg::RandomDagSpec spec;
  spec.operations = 120;
  spec.depth = 6;
  const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
  const KlGraph g = KlGraph::from_operations(bg.graph, bg.all_operations());
  std::size_t entries = 0;
  for (int v = 0; v < g.vertex_count; ++v) {
    const auto& adj = g.adjacency[static_cast<std::size_t>(v)];
    entries += adj.size();
    for (std::size_t i = 1; i < adj.size(); ++i) {
      EXPECT_LT(adj[i - 1].first, adj[i].first) << "vertex " << v;
    }
    for (const auto& [u, w] : adj) EXPECT_NE(u, v);
  }
  EXPECT_GT(entries, 0u);
}

TEST(KlGraph, RejectsDuplicates) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  auto ops = ar.all_operations();
  ops.push_back(ops[0]);
  EXPECT_THROW(KlGraph::from_operations(ar.graph, ops), Error);
  ops.back() = static_cast<dfg::NodeId>(ar.graph.node_count());
  EXPECT_THROW(KlGraph::from_operations(ar.graph, ops), Error);
}

TEST(RandomBisection, Balanced) {
  Rng rng(5);
  for (int n : {2, 7, 28, 101}) {
    const auto side = random_bisection(n, rng);
    const int ones = static_cast<int>(std::count(side.begin(), side.end(), 1));
    EXPECT_LE(std::abs(2 * ones - n), 1) << "n=" << n;
  }
  EXPECT_THROW(random_bisection(1, rng), Error);
}

TEST(KernighanLin, NeverWorsensTheCut) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const auto ops = ar.all_operations();
  const KlGraph g = KlGraph::from_operations(ar.graph, ops);
  Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    const auto initial = random_bisection(g.vertex_count, rng);
    const Bits before = cut_cost(g, initial);
    const KlResult r = kernighan_lin(g, initial);
    EXPECT_LE(r.cut_cost, before);
    EXPECT_GE(r.passes, 1);
  }
}

TEST(KernighanLin, PreservesBalance) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const KlGraph g = KlGraph::from_operations(ar.graph, ar.all_operations());
  Rng rng(23);
  const auto initial = random_bisection(g.vertex_count, rng);
  const int ones_before =
      static_cast<int>(std::count(initial.begin(), initial.end(), 1));
  const KlResult r = kernighan_lin(g, initial);
  const int ones_after =
      static_cast<int>(std::count(r.side.begin(), r.side.end(), 1));
  EXPECT_EQ(ones_before, ones_after);
}

TEST(KernighanLin, FindsTheObviousCut) {
  // Two heavy 64-bit chains connected only through a 1-bit compare: the
  // minimum balanced cut crosses just the two 1-bit bridge edges.
  const auto [g, ops] = bridge_graph();
  const KlGraph kg = KlGraph::from_operations(g, ops);
  Rng rng(3);
  Bits best = std::numeric_limits<Bits>::max();
  for (int restart = 0; restart < 3; ++restart) {
    const KlResult r =
        kernighan_lin(kg, random_bisection(kg.vertex_count, rng));
    best = std::min(best, r.cut_cost);
  }
  // Only the two 1-bit cmp->add edges must cross.
  EXPECT_LE(best, 2);
}

TEST(KernighanLin, RejectsUnbalancedStart) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  const KlGraph g = KlGraph::from_operations(ar.graph, ar.all_operations());
  std::vector<int> all_zero(static_cast<std::size_t>(g.vertex_count), 0);
  EXPECT_THROW(kernighan_lin(g, all_zero), Error);
  // Balanced by its count of ones, but not a 0/1 assignment.
  KlGraph three;
  three.vertex_count = 3;
  three.adjacency.resize(3);
  EXPECT_THROW(kernighan_lin(three, {0, 1, 2}), Error);
}

TEST(KernighanLin, RejectsNegativeWeight) {
  KlGraph g;
  g.vertex_count = 2;
  g.adjacency = {{{1, -3}}, {{0, -3}}};
  EXPECT_THROW(kernighan_lin(g, {0, 1}), Error);
}

TEST(KernighanLin, MatchesTextbookReference) {
  // Random layered DAGs with one uniform width, so equal D values and
  // equal gains are common and the tie rule is exercised on every step.
  // Sizes 24-87 cover odd and even n; every 50th input is larger (150,
  // 201, 250, 300). The reference is O(n^3) a pass, so sizes stay small
  // enough for sanitizer builds.
  Rng rng(2024);
  const int large[] = {150, 201, 250, 300};
  for (int i = 0; i < 200; ++i) {
    dfg::RandomDagSpec spec;
    spec.operations = i % 50 == 49 ? large[i / 50] : 24 + i % 64;
    spec.depth = 3 + i % 8;
    const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
    const KlGraph g = KlGraph::from_operations(bg.graph, bg.all_operations());
    expect_matches_reference(g, random_bisection(g.vertex_count, rng),
                             "dag " + std::to_string(i) + " n=" +
                                 std::to_string(g.vertex_count));
  }

  // n = 2 and n = 3: every balanced start.
  KlGraph two;
  two.vertex_count = 2;
  two.adjacency = {{{1, 5}}, {{0, 5}}};
  expect_matches_reference(two, {0, 1}, "n=2 01");
  expect_matches_reference(two, {1, 0}, "n=2 10");
  KlGraph three;
  three.vertex_count = 3;
  three.adjacency = {{{1, 4}, {2, 1}}, {{0, 4}, {2, 2}}, {{0, 1}, {1, 2}}};
  for (const std::vector<int>& start :
       {std::vector<int>{0, 0, 1}, {0, 1, 0}, {1, 0, 0}, {0, 1, 1},
        {1, 0, 1}, {1, 1, 0}}) {
    expect_matches_reference(three, start, "n=3");
  }

  // No edges: every pair ties at gain 0 on every step, the worst case for
  // the tie-aware early exit; no prefix gains, so the start is kept.
  for (int n : {10, 11}) {
    KlGraph edgeless;
    edgeless.vertex_count = n;
    edgeless.adjacency.resize(static_cast<std::size_t>(n));
    expect_matches_reference(edgeless, random_bisection(n, rng),
                             "edgeless n=" + std::to_string(n));
  }

  const auto [bridge, ops] = bridge_graph();
  const KlGraph kg = KlGraph::from_operations(bridge, ops);
  for (int restart = 0; restart < 5; ++restart) {
    expect_matches_reference(kg, random_bisection(kg.vertex_count, rng),
                             "bridge " + std::to_string(restart));
  }
}

TEST(KlPartition, ProducesKParts) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Rng rng(7);
  for (int k : {1, 2, 3, 4}) {
    const auto parts = kl_partition(ar.graph, ar.all_operations(), k, rng);
    EXPECT_EQ(parts.size(), static_cast<std::size_t>(k));
    std::size_t total = 0;
    for (const auto& p : parts) {
      EXPECT_FALSE(p.empty());
      total += p.size();
    }
    EXPECT_EQ(total, 28u);
  }
  EXPECT_THROW(kl_partition(ar.graph, ar.all_operations(), 0, rng), Error);
}

TEST(KlPartition, DeterministicForSeed) {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Rng a(9), b(9);
  const auto pa = kl_partition(ar.graph, ar.all_operations(), 3, a);
  const auto pb = kl_partition(ar.graph, ar.all_operations(), 3, b);
  EXPECT_EQ(pa, pb);
}

class KlProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KlProperty, ImprovesRandomGraphCuts) {
  Rng rng(GetParam());
  dfg::RandomDagSpec spec;
  spec.operations = 30;
  spec.depth = 5;
  const dfg::BenchmarkGraph bg = dfg::random_dag(rng, spec);
  const KlGraph g = KlGraph::from_operations(bg.graph, bg.all_operations());
  const auto initial = random_bisection(g.vertex_count, rng);
  const KlResult r = kernighan_lin(g, initial);
  EXPECT_LE(r.cut_cost, cut_cost(g, initial));
  EXPECT_EQ(r.cut_cost, cut_cost(g, r.side));  // reported cost is real
}

INSTANTIATE_TEST_SUITE_P(Seeds, KlProperty,
                         ::testing::Values(101u, 102u, 103u, 104u, 105u,
                                           106u));

}  // namespace
}  // namespace chop::baseline
