// Kernighan-Lin min-cut bipartitioning (paper ref [4]) as the classical
// baseline CHOP's related-work section argues against for behavioral
// specifications: KL minimizes "sum of costs of values cut", which does
// not directly correlate with pin counts or chip area once behavioral
// synthesis introduces sequential behavior. We implement it faithfully —
// pairwise-swap passes on an undirected weighted graph — so the
// bench_baseline_kl harness can evaluate KL cuts through CHOP's own
// predictors and compare.
#pragma once

#include <vector>

#include "dfg/graph.hpp"
#include "util/rng.hpp"

namespace chop::baseline {

/// Result of one KL bipartitioning.
struct KlResult {
  std::vector<int> side;  ///< 0/1 per vertex.
  Bits cut_cost = 0;      ///< Total weight of edges crossing the cut.
  int passes = 0;         ///< Improvement passes executed.
};

/// Undirected weighted graph for KL, built from a behavioral graph's
/// operation nodes (edge weight = value bit width; parallel edges merge).
struct KlGraph {
  int vertex_count = 0;
  /// Adjacency: per vertex, (neighbor, weight) pairs ascending by neighbor.
  std::vector<std::vector<std::pair<int, Bits>>> adjacency;

  static KlGraph from_operations(const dfg::Graph& g,
                                 const std::vector<dfg::NodeId>& ops);
};

/// Runs Kernighan-Lin starting from `initial` (0/1 per vertex, must be
/// balanced to within one vertex) until a pass yields no gain. Each pass
/// greedily swaps the best unlocked pair, locks it, and keeps the best
/// prefix of the swaps. It makes exactly the swaps of the textbook
/// all-pairs scan (max gain, ties to the lowest (a, b)) without visiting
/// every pair: D is computed once per pass and then updated only on the
/// swapped pair's neighbours, and each step walks both sides sorted by D
/// descending, stopping once D[a] + D[b] — an upper bound on the gain
/// when weights are non-negative — cannot beat the best pair so far.
/// Weights must be non-negative. One bisection of a 1k-op `generate_1k`
/// DAG takes about 32 ms (Release, 4-CPU x86, `BM_kl_bisect_1k`), down
/// from 3.4 s for the all-pairs scan.
KlResult kernighan_lin(const KlGraph& g, std::vector<int> initial);

/// Balanced random initial assignment.
std::vector<int> random_bisection(int vertex_count, Rng& rng);

/// Recursive KL bisection of `ops` into `k` parts (k a power of two is
/// exact; otherwise the largest part keeps splitting). Returns member
/// lists usable as CHOP partitions.
std::vector<std::vector<dfg::NodeId>> kl_partition(
    const dfg::Graph& g, const std::vector<dfg::NodeId>& ops, int k, Rng& rng);

/// Cut cost of an assignment (for tests and reports).
Bits cut_cost(const KlGraph& g, const std::vector<int>& side);

}  // namespace chop::baseline
