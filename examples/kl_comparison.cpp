// Compares classical min-cut partitioning (Kernighan-Lin, paper ref [4])
// against structure-aware cuts under CHOP's constraint-driven evaluation —
// the experiment behind the paper's §1.1 argument that "sum of costs of
// values cut" does not predict behavioral-partition feasibility.
//
//   $ ./kl_comparison
#include <iomanip>
#include <iostream>

#include "baseline/kernighan_lin.hpp"
#include "baseline/partition_builders.hpp"
#include "chip/mosis_packages.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/subgraph.hpp"
#include "library/experiment_library.hpp"
#include "util/numbered.hpp"

namespace {

using namespace chop;

struct Outcome {
  Bits cut_bits = 0;
  bool feasible = false;
  Cycles ii = 0;
  Cycles delay = 0;
};

Outcome evaluate(const dfg::Graph& graph,
                 const std::vector<std::vector<dfg::NodeId>>& parts) {
  static const lib::ComponentLibrary library = lib::dac91_experiment_library();
  Outcome out;
  for (const auto& members : parts) {
    out.cut_bits += dfg::induced_subgraph(graph, members).outgoing_bits;
  }
  std::vector<chip::ChipInstance> chips;
  for (std::size_t c = 0; c < parts.size(); ++c) {
    chips.push_back({numbered("c", c), chip::mosis_package_84()});
  }
  core::Partitioning pt(graph, std::move(chips));
  for (std::size_t p = 0; p < parts.size(); ++p) {
    pt.add_partition(numbered("P", p + 1), parts[p],
                     static_cast<int>(p));
  }
  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  core::ChopSession session(library, std::move(pt), config);
  session.predict_partitions();
  core::SearchOptions options;
  const core::SearchResult r = session.search(options);
  if (!r.designs.empty()) {
    out.feasible = true;
    out.ii = r.designs.front().integration.ii_main;
    out.delay = r.designs.front().integration.system_delay_main;
  }
  return out;
}

void show(const std::string& name, const Outcome& o) {
  std::cout << std::left << std::setw(30) << name << " cut=" << std::setw(5)
            << o.cut_bits;
  if (o.feasible) {
    std::cout << " FEASIBLE  II=" << o.ii << "c delay=" << o.delay << "c\n";
  } else {
    std::cout << " infeasible under the 30 us constraints\n";
  }
}

}  // namespace

int main() {
  const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  std::cout << "Two-way partitionings of the AR lattice filter, evaluated "
               "by CHOP\n(experiment-1 conditions, two MOSIS-84 chips)\n\n";

  show("paper horizontal cut", evaluate(ar.graph, dfg::ar_two_way_cut(ar)));

  Rng rng(12345);
  for (int trial = 0; trial < 3; ++trial) {
    const auto kl = baseline::make_acyclic(
        ar.graph,
        baseline::kl_partition(ar.graph, ar.all_operations(), 2, rng));
    show("kernighan-lin #" + std::to_string(trial + 1),
         evaluate(ar.graph, kl));
  }

  show("level-order slabs",
       evaluate(ar.graph, baseline::level_order_partition(
                              ar.graph, ar.all_operations(), 2)));

  for (int trial = 0; trial < 3; ++trial) {
    const auto random = baseline::make_acyclic(
        ar.graph, baseline::random_partition(ar.all_operations(), 2, rng));
    show("random #" + std::to_string(trial + 1), evaluate(ar.graph, random));
  }

  std::cout << "\nA smaller cut does not imply a feasible partitioning: KL "
               "balances\nvertex counts and minimizes cut bits, but ignores "
               "chip area, pin\nbudgets and schedule structure — the "
               "paper's case for constraint-\ndriven partitioning.\n";
  return 0;
}
