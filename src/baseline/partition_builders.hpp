// Simple comparison partitioners: level-order (topological slabs), greedy
// balanced, and uniform-random assignment. Used by tests (any valid
// partitioning must survive CHOP's pipeline), by the baseline benches and
// by the partition-generation portfolio's seed cuts (gen/generate.hpp).
//
// Note: CHOP requires the partition quotient graph to be acyclic (§2.3).
// level_order_partition guarantees that by construction; random/greedy and
// KL cuts may violate it, so callers repair with make_acyclic() before
// handing the result to CHOP.
#pragma once

#include <vector>

#include "dfg/graph.hpp"
#include "util/rng.hpp"

namespace chop::baseline {

/// Splits `ops` into `k` contiguous slabs of a topological order of the
/// graph — always quotient-acyclic.
std::vector<std::vector<dfg::NodeId>> level_order_partition(
    const dfg::Graph& g, const std::vector<dfg::NodeId>& ops, int k);

/// Uniform random assignment of ops to k parts (each part non-empty).
std::vector<std::vector<dfg::NodeId>> random_partition(
    const std::vector<dfg::NodeId>& ops, int k, Rng& rng);

/// Repairs a partitioning so the quotient graph is acyclic, preserving
/// part count where possible: parts are reordered by the minimum
/// topological rank of their members, then any member whose predecessors
/// live in a later part is migrated forward. Conservative but always
/// terminates with a CHOP-valid structure.
std::vector<std::vector<dfg::NodeId>> make_acyclic(
    const dfg::Graph& g, std::vector<std::vector<dfg::NodeId>> parts);

/// Kernighan-Lin cut repaired with make_acyclic(). The repair may merge
/// parts, so the result can have fewer than `k` parts — callers that need
/// exactly k must check. Requires ops.size() >= k.
std::vector<std::vector<dfg::NodeId>> repaired_kl_partition(
    const dfg::Graph& g, const std::vector<dfg::NodeId>& ops, int k, Rng& rng);

}  // namespace chop::baseline
