#include "baseline/kernighan_lin.hpp"

#include <algorithm>
#include <tuple>

namespace chop::baseline {

KlGraph KlGraph::from_operations(const dfg::Graph& g,
                                 const std::vector<dfg::NodeId>& ops) {
  KlGraph out;
  out.vertex_count = static_cast<int>(ops.size());
  out.adjacency.resize(ops.size());

  std::vector<int> vertex_of(g.node_count(), -1);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    CHOP_REQUIRE(
        ops[i] >= 0 && static_cast<std::size_t>(ops[i]) < g.node_count(),
        "KL input names a node outside the graph");
    int& slot = vertex_of[static_cast<std::size_t>(ops[i])];
    CHOP_REQUIRE(slot < 0, "duplicate operation in KL input");
    slot = static_cast<int>(i);
  }

  struct Link {
    int a, b;
    Bits w;
  };
  std::vector<Link> links;
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const dfg::Edge& edge = g.edge(static_cast<dfg::EdgeId>(e));
    const int s = vertex_of[static_cast<std::size_t>(edge.src)];
    const int d = vertex_of[static_cast<std::size_t>(edge.dst)];
    if (s < 0 || d < 0 || s == d) continue;
    links.push_back({std::min(s, d), std::max(s, d), edge.width});
  }
  std::sort(links.begin(), links.end(), [](const Link& x, const Link& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });
  // Parallel edges merge; walking the (a, b)-sorted pairs fills every
  // adjacency list in ascending neighbour order.
  for (std::size_t i = 0; i < links.size();) {
    const int a = links[i].a, b = links[i].b;
    Bits w = 0;
    for (; i < links.size() && links[i].a == a && links[i].b == b; ++i) {
      w += links[i].w;
    }
    out.adjacency[static_cast<std::size_t>(a)].emplace_back(b, w);
    out.adjacency[static_cast<std::size_t>(b)].emplace_back(a, w);
  }
  return out;
}

Bits cut_cost(const KlGraph& g, const std::vector<int>& side) {
  CHOP_REQUIRE(side.size() == static_cast<std::size_t>(g.vertex_count),
               "side vector size mismatch");
  Bits cost = 0;
  for (int v = 0; v < g.vertex_count; ++v) {
    for (const auto& [u, w] : g.adjacency[static_cast<std::size_t>(v)]) {
      if (u > v && side[static_cast<std::size_t>(u)] !=
                       side[static_cast<std::size_t>(v)]) {
        cost += w;
      }
    }
  }
  return cost;
}

std::vector<int> random_bisection(int vertex_count, Rng& rng) {
  CHOP_REQUIRE(vertex_count >= 2, "bisection needs at least two vertices");
  std::vector<int> side(static_cast<std::size_t>(vertex_count), 0);
  for (int i = vertex_count / 2; i < vertex_count; ++i) {
    side[static_cast<std::size_t>(i)] = 1;
  }
  // Fisher-Yates shuffle of the assignment.
  for (int i = vertex_count - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform(0, i));
    std::swap(side[static_cast<std::size_t>(i)], side[j]);
  }
  return side;
}

namespace {

/// External minus internal cost of vertex v under `side`.
Bits d_value(const KlGraph& g, const std::vector<int>& side, int v) {
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

/// One swap of a KL pass: the unlocked pair (a, b), a on side 0 and b on
/// side 1, that maximizes D[a] + D[b] - 2 w(a, b); ties go to the
/// lexicographically smallest (a, b).
struct Swap {
  int a = -1, b = -1;
  Bits gain = 0;

  bool beaten_by(Bits g, int x, int y) const {
    return a < 0 || g > gain ||
           (g == gain && std::pair{x, y} < std::pair{a, b});
  }
};

/// Best swap between the unlocked vertices `side0` and `side1`, both sorted
/// by (D desc, index asc). Since every weight is non-negative, D[a] + D[b]
/// bounds the gain of (a, b) and only falls along either list, so a bound
/// that cannot beat the incumbent ends the scan of the row (and, at a row's
/// first entry, of every later row). `row` is all zero on entry and exit.
Swap best_swap(const KlGraph& g, const std::vector<Bits>& d,
               const std::vector<int>& side0, const std::vector<int>& side1,
               std::vector<Bits>& row) {
  Swap best;
  if (side1.empty()) return best;
  const Bits max_d1 = d[static_cast<std::size_t>(side1.front())];
  for (const int a : side0) {
    const Bits da = d[static_cast<std::size_t>(a)];
    if (!best.beaten_by(da + max_d1, a, side1.front())) break;
    const auto& adj = g.adjacency[static_cast<std::size_t>(a)];
    for (const auto& [u, w] : adj) row[static_cast<std::size_t>(u)] = w;
    for (const int b : side1) {
      const Bits bound = da + d[static_cast<std::size_t>(b)];
      if (!best.beaten_by(bound, a, b)) break;
      const Bits gain = bound - 2 * row[static_cast<std::size_t>(b)];
      if (best.beaten_by(gain, a, b)) best = {a, b, gain};
    }
    for (const auto& [u, w] : adj) row[static_cast<std::size_t>(u)] = 0;
  }
  return best;
}

}  // namespace

KlResult kernighan_lin(const KlGraph& g, std::vector<int> initial) {
  CHOP_REQUIRE(initial.size() == static_cast<std::size_t>(g.vertex_count),
               "initial assignment size mismatch");
  const int ones = static_cast<int>(
      std::count(initial.begin(), initial.end(), 1));
  CHOP_REQUIRE(std::abs(2 * ones - g.vertex_count) <= 1,
               "KL initial assignment must be balanced");
  for (const int s : initial) {
    CHOP_REQUIRE(s == 0 || s == 1, "KL initial assignment must be 0/1");
  }
  // The pair scan's early exit is sound only for non-negative weights.
  for (const auto& adj : g.adjacency) {
    for (const auto& [u, w] : adj) {
      CHOP_REQUIRE(w >= 0, "KL needs non-negative edge weights");
    }
  }

  const auto n = static_cast<std::size_t>(g.vertex_count);
  KlResult result;
  result.side = std::move(initial);
  std::vector<Bits> d(n);
  std::vector<Bits> row(n, 0);

  while (true) {
    ++result.passes;
    const std::vector<int>& side = result.side;  // fixed during the pass
    std::vector<int> unlocked[2];
    for (int v = 0; v < g.vertex_count; ++v) {
      d[static_cast<std::size_t>(v)] = d_value(g, side, v);
      unlocked[side[static_cast<std::size_t>(v)]].push_back(v);
    }
    const auto by_d_desc = [&d](int x, int y) {
      const Bits dx = d[static_cast<std::size_t>(x)];
      const Bits dy = d[static_cast<std::size_t>(y)];
      return dx != dy ? dx > dy : x < y;
    };

    std::vector<Swap> swaps;
    const int steps = g.vertex_count / 2;
    for (int step = 0; step < steps; ++step) {
      std::sort(unlocked[0].begin(), unlocked[0].end(), by_d_desc);
      std::sort(unlocked[1].begin(), unlocked[1].end(), by_d_desc);
      const Swap s = best_swap(g, d, unlocked[0], unlocked[1], row);
      if (s.a < 0) break;  // one side ran out of unlocked vertices
      swaps.push_back(s);
      std::erase(unlocked[0], s.a);
      std::erase(unlocked[1], s.b);
      // A moved vertex's edges to its old side turn external (+2w on the
      // neighbour's D) and those to its new side internal (-2w). Locked
      // neighbours' D goes stale harmlessly: it is not read again before
      // the next pass recomputes it.
      for (const int moved : {s.a, s.b}) {
        const auto m = static_cast<std::size_t>(moved);
        for (const auto& [u, w] : g.adjacency[m]) {
          d[static_cast<std::size_t>(u)] +=
              side[static_cast<std::size_t>(u)] == side[m] ? 2 * w : -2 * w;
        }
      }
    }

    // Best prefix of the swap sequence.
    Bits best_total = 0, running = 0;
    std::size_t best_k = 0;
    for (std::size_t k = 0; k < swaps.size(); ++k) {
      running += swaps[k].gain;
      if (running > best_total) {
        best_total = running;
        best_k = k + 1;
      }
    }
    if (best_total <= 0) break;  // no improvement: done
    for (std::size_t k = 0; k < best_k; ++k) {
      std::swap(result.side[static_cast<std::size_t>(swaps[k].a)],
                result.side[static_cast<std::size_t>(swaps[k].b)]);
    }
  }

  result.cut_cost = cut_cost(g, result.side);
  return result;
}

std::vector<std::vector<dfg::NodeId>> kl_partition(
    const dfg::Graph& g, const std::vector<dfg::NodeId>& ops, int k,
    Rng& rng) {
  CHOP_REQUIRE(k >= 1, "partition count must be positive");
  CHOP_REQUIRE(static_cast<int>(ops.size()) >= k,
               "cannot split fewer operations than partitions");
  std::vector<std::vector<dfg::NodeId>> parts{ops};
  while (static_cast<int>(parts.size()) < k) {
    // Split the largest current part.
    std::size_t largest = 0;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      if (parts[i].size() > parts[largest].size()) largest = i;
    }
    CHOP_REQUIRE(parts[largest].size() >= 2,
                 "cannot split a single-operation partition");
    const std::vector<dfg::NodeId> victim = std::move(parts[largest]);
    const KlGraph kg = KlGraph::from_operations(g, victim);
    const KlResult kl =
        kernighan_lin(kg, random_bisection(kg.vertex_count, rng));
    std::vector<dfg::NodeId> left, right;
    for (std::size_t v = 0; v < victim.size(); ++v) {
      (kl.side[v] == 0 ? left : right).push_back(victim[v]);
    }
    parts[largest] = std::move(left);
    parts.push_back(std::move(right));
  }
  return parts;
}

}  // namespace chop::baseline
