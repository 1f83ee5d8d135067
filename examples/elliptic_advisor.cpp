// System-level advisor scenario (paper §2.7 and the conclusions): an
// elliptic wave filter with memory-mapped coefficient storage, partitioned
// onto three chips. The designer then interactively applies all four
// modification groups of §2.7 — behavioral (operation migration), memory
// re-placement, target-chip-set changes, and constraint changes — and
// immediately sees the feasibility impact of each decision.
//
//   $ ./elliptic_advisor
#include <iostream>

#include "chip/mosis_packages.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "library/experiment_library.hpp"

namespace {

using namespace chop;

void report(core::ChopSession& session, const std::string& what) {
  session.predict_partitions();
  core::SearchOptions options;
  options.heuristic = core::Heuristic::Iterative;
  const core::SearchResult r = session.search(options);
  std::cout << what << ": ";
  if (r.designs.empty()) {
    std::cout << "INFEASIBLE (" << r.trials << " trials)\n";
  } else {
    const auto& d = r.designs.front().integration;
    std::cout << "feasible, II=" << d.ii_main << " cycles, delay="
              << d.system_delay_main << " cycles, clock=" << d.clock_ns()
              << " ns\n";
  }
}

}  // namespace

int main() {
  const dfg::BenchmarkGraph ewf = dfg::elliptic_wave_filter();
  const lib::ComponentLibrary library = lib::dac91_experiment_library();

  // Memory: one on-chip coefficient block, one off-the-shelf sample store.
  chip::MemorySubsystem memory;
  memory.blocks.push_back({"coeff_rom", 16, 64, 1, 300.0, 6000.0, 3});
  memory.blocks.push_back({"sample_ram", 16, 1024, 1, 300.0, 0.0, 3});
  memory.chip_of_block = {0, chip::kOffTheShelfChip};

  std::vector<chip::ChipInstance> chips{
      {"dsp0", chip::mosis_package_84()},
      {"dsp1", chip::mosis_package_84()},
      {"dsp2", chip::mosis_package_64()},
  };

  // Three partitions: one per chain of the filter, plus the merge stage.
  core::Partitioning pt(ewf.graph, std::move(chips), memory);
  pt.add_partition("chainA", ewf.layer_span(0, 3), 0);
  pt.add_partition("chainB", ewf.layer_span(4, 7), 1);
  pt.add_partition("merge", ewf.layer_span(8, 8), 2);

  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {90000.0, 90000.0};

  core::ChopSession session(library, std::move(pt), config);
  std::cout << "Elliptic wave filter advisor (26 adds, 8 muls, 3 chips)\n\n";

  report(session, "baseline (3 chips, 90 us budgets)");

  // --- modification group 1: behavioral — migrate the merge partition's
  // work onto chainB's chip to free the 64-pin chip entirely.
  session.apply(core::EvalDelta::move_partition_to_chip(2, 1));
  report(session, "after moving 'merge' onto dsp1 (partition migration)");

  // --- modification group 2: memory — pull the sample RAM on chip.
  session.apply(core::EvalDelta::set_memory_placement(1, 1));
  report(session, "after placing sample_ram on dsp1 (memory re-placement)");

  // --- modification group 3: target chip set — downgrade dsp0 to 64 pins.
  session.apply(
      core::EvalDelta::replace_chip_package(0, chip::mosis_package_64()));
  report(session, "after downgrading dsp0 to the 64-pin package");

  // --- modification group 4: constraints — tighten the budgets until the
  // partitioning breaks, locating the feasibility frontier.
  for (double budget : {60000.0, 40000.0, 25000.0, 15000.0}) {
    session.apply(core::EvalDelta::set_constraints({budget, budget}));
    report(session, "with performance = delay = " +
                        std::to_string(static_cast<int>(budget)) + " ns");
  }

  std::cout << "\nEach step above is one designer action of the Figure-1 "
               "loop;\nCHOP's fast predictors make every check "
               "interactive.\n";
  return 0;
}
