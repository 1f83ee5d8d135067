// Reproduces the paper's §3.1 walkthrough interactively: start from a
// single-chip implementation of the AR lattice filter, check feasibility,
// then explore faster designs by partitioning onto more chips — printing
// the designer guideline (design style, module library, allocation,
// registers, multiplexers, transfer modules) for each feasible design,
// exactly the feedback loop of Figure 1.
//
//   $ ./ar_filter_exploration
#include <iostream>

#include "chip/mosis_packages.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "library/experiment_library.hpp"
#include "util/numbered.hpp"

namespace {

using namespace chop;

core::ChopSession session_for(int nparts) {
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  static const lib::ComponentLibrary library = lib::dac91_experiment_library();
  std::vector<chip::ChipInstance> chips;
  for (int c = 0; c < nparts; ++c) {
    chips.push_back({numbered("chip", c), chip::mosis_package_84()});
  }
  core::Partitioning pt(ar.graph, std::move(chips));
  const auto cuts =
      nparts == 1
          ? std::vector<std::vector<dfg::NodeId>>{ar.all_operations()}
          : (nparts == 2 ? dfg::ar_two_way_cut(ar) : dfg::ar_three_way_cut(ar));
  for (int p = 0; p < nparts; ++p) {
    pt.add_partition(numbered("P", p + 1),
                     cuts[static_cast<std::size_t>(p)], p);
  }
  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  return core::ChopSession(library, std::move(pt), config);
}

}  // namespace

int main() {
  std::cout << "AR lattice filter exploration (paper section 3.1)\n"
            << "constraints: performance = delay = 30000 ns; main clock "
               "300 ns; datapath clock 10x\n\n";

  for (int nparts : {1, 2, 3}) {
    std::cout << "--- " << nparts << " partition(s) on " << nparts
              << " MOSIS-84 chip(s) ---\n";
    core::ChopSession session = session_for(nparts);
    const core::PredictionStats stats = session.predict_partitions();
    std::cout << "BAD predicted " << stats.total << " implementations, "
              << stats.feasible << " feasible after level-1 pruning\n";

    core::SearchOptions options;
    options.heuristic = core::Heuristic::Iterative;
    const core::SearchResult result = session.search(options);
    std::cout << "iterative search: " << result.trials << " trials, "
              << result.designs.size() << " feasible non-inferior design(s)\n";

    if (result.designs.empty()) {
      std::cout << "no feasible partitioning at this partition count\n\n";
      continue;
    }
    for (const core::GlobalDesign& d : result.designs) {
      std::cout << "\n" << session.guideline(d);
    }
    std::cout << "\n";
  }

  std::cout << "Observation (paper): doubling the chip area roughly doubles "
               "the attainable performance;\npartitioning further is "
               "limited by chip pins, not logic.\n";
  return 0;
}
