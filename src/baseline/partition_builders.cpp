#include "baseline/partition_builders.hpp"

#include <algorithm>
#include <numeric>

#include "baseline/kernighan_lin.hpp"

namespace chop::baseline {

std::vector<std::vector<dfg::NodeId>> level_order_partition(
    const dfg::Graph& g, const std::vector<dfg::NodeId>& ops, int k) {
  CHOP_REQUIRE(k >= 1, "partition count must be positive");
  CHOP_REQUIRE(static_cast<int>(ops.size()) >= k,
               "cannot split fewer operations than partitions");

  // Order the requested ops by topological rank.
  std::vector<int> rank(g.node_count(), 0);
  {
    int r = 0;
    for (dfg::NodeId id : g.topological_order()) {
      rank[static_cast<std::size_t>(id)] = r++;
    }
  }
  std::vector<dfg::NodeId> sorted = ops;
  std::sort(sorted.begin(), sorted.end(), [&](dfg::NodeId a, dfg::NodeId b) {
    return rank[static_cast<std::size_t>(a)] < rank[static_cast<std::size_t>(b)];
  });

  std::vector<std::vector<dfg::NodeId>> parts(static_cast<std::size_t>(k));
  const std::size_t per = (sorted.size() + static_cast<std::size_t>(k) - 1) /
                          static_cast<std::size_t>(k);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    parts[std::min(i / per, static_cast<std::size_t>(k) - 1)].push_back(
        sorted[i]);
  }
  return parts;
}

std::vector<std::vector<dfg::NodeId>> random_partition(
    const std::vector<dfg::NodeId>& ops, int k, Rng& rng) {
  CHOP_REQUIRE(k >= 1, "partition count must be positive");
  CHOP_REQUIRE(static_cast<int>(ops.size()) >= k,
               "cannot split fewer operations than partitions");
  std::vector<std::vector<dfg::NodeId>> parts(static_cast<std::size_t>(k));
  // Seed each part with one op so none is empty, then spread the rest.
  std::vector<dfg::NodeId> shuffled = ops;
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(i)));
    std::swap(shuffled[i], shuffled[j]);
  }
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    const std::size_t part =
        i < static_cast<std::size_t>(k)
            ? i
            : static_cast<std::size_t>(rng.uniform(0, k - 1));
    parts[part].push_back(shuffled[i]);
  }
  return parts;
}

std::vector<std::vector<dfg::NodeId>> make_acyclic(
    const dfg::Graph& g, std::vector<std::vector<dfg::NodeId>> parts) {
  // Order parts by mean topological rank so the repair disturbs little.
  std::vector<int> rank(g.node_count(), 0);
  {
    int r = 0;
    for (dfg::NodeId id : g.topological_order()) {
      rank[static_cast<std::size_t>(id)] = r++;
    }
  }
  std::stable_sort(parts.begin(), parts.end(),
                   [&](const std::vector<dfg::NodeId>& a,
                       const std::vector<dfg::NodeId>& b) {
                     auto mean = [&](const std::vector<dfg::NodeId>& v) {
                       double sum = 0.0;
                       for (dfg::NodeId id : v) {
                         sum += rank[static_cast<std::size_t>(id)];
                       }
                       return v.empty() ? 0.0
                                        : sum / static_cast<double>(v.size());
                     };
                     return mean(a) < mean(b);
                   });

  // Part index per node.
  std::vector<int> part_of(g.node_count(), -1);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (dfg::NodeId id : parts[p]) {
      part_of[static_cast<std::size_t>(id)] = static_cast<int>(p);
    }
  }

  // Every node must sit in a part >= the parts of all its operation
  // predecessors; then all quotient edges point forward.
  for (dfg::NodeId id : g.topological_order()) {
    const auto i = static_cast<std::size_t>(id);
    if (part_of[i] < 0) continue;
    int min_part = part_of[i];
    for (dfg::EdgeId e : g.fanin(id)) {
      const auto s = static_cast<std::size_t>(g.edge(e).src);
      if (part_of[s] >= 0) min_part = std::max(min_part, part_of[s]);
    }
    part_of[i] = min_part;
  }

  std::vector<std::vector<dfg::NodeId>> repaired(parts.size());
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    if (part_of[i] >= 0) {
      repaired[static_cast<std::size_t>(part_of[i])].push_back(
          static_cast<dfg::NodeId>(i));
    }
  }
  // Drop parts the repair emptied.
  repaired.erase(std::remove_if(repaired.begin(), repaired.end(),
                                [](const std::vector<dfg::NodeId>& p) {
                                  return p.empty();
                                }),
                 repaired.end());
  return repaired;
}

std::vector<std::vector<dfg::NodeId>> repaired_kl_partition(
    const dfg::Graph& g, const std::vector<dfg::NodeId>& ops, int k,
    Rng& rng) {
  return make_acyclic(g, kl_partition(g, ops, k, rng));
}

}  // namespace chop::baseline
