// The fully automated designer loop: automatic behavioral partitioning
// (multilevel generation under predict-and-search feedback) combined
// with automatic memory placement — the closed-loop version of the
// paper's Figure-1 cycle, exercising its "system-level advising" and
// "task creation" applications plus the §2.2 memory/behavior interleaving
// it left as future work.
//
//   $ ./auto_partition_demo
#include <iostream>

#include "chip/mosis_packages.hpp"
#include "core/memory_optimizer.hpp"
#include "dfg/benchmarks.hpp"
#include "gen/generate.hpp"
#include "library/experiment_library.hpp"
#include "util/numbered.hpp"

int main() {
  using namespace chop;

  const dfg::BenchmarkGraph arm = dfg::ar_lattice_filter_with_memory();
  const lib::ComponentLibrary library = lib::dac91_experiment_library();

  chip::MemorySubsystem memory;
  memory.blocks.push_back({"coeff_rom", 16, 64, 1, 300.0, 4000.0, 3});
  memory.blocks.push_back({"spill_ram", 16, 256, 1, 300.0, 6000.0, 3});
  memory.chip_of_block = {chip::kOffTheShelfChip, chip::kOffTheShelfChip};

  std::vector<chip::ChipInstance> chips{
      {"chip0", chip::mosis_package_84()},
      {"chip1", chip::mosis_package_84()},
  };

  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 60000.0};

  std::cout << "Step 1: automatic behavioral partitioning (multilevel "
               "generation)\n";
  const gen::GenerateResult auto_result =
      gen::generate_partitions(arm.graph, library, chips, memory, config);
  for (const std::string& line : auto_result.log) {
    std::cout << "  " << line << "\n";
  }
  std::cout << "  (" << auto_result.evaluations
            << " predict+search evaluations)\n\n";
  if (!auto_result.feasible()) {
    std::cout << "no feasible partitioning found\n";
    return 1;
  }

  std::cout << "Step 2: automatic memory placement on the chosen cut\n";
  core::Partitioning pt(arm.graph, chips, memory);
  for (std::size_t p = 0; p < auto_result.members.size(); ++p) {
    pt.add_partition(numbered("P", p + 1), auto_result.members[p],
                     static_cast<int>(p));
  }
  core::ChopSession session(library, std::move(pt), config);
  const core::MemoryPlacementResult mem_result =
      core::optimize_memory_placement(session);
  std::cout << "  evaluated " << mem_result.evaluated << " placements\n";
  for (std::size_t b = 0; b < mem_result.placement.size(); ++b) {
    const auto& block = session.partitioning().memory().blocks[b];
    std::cout << "  " << block.name << " -> "
              << (mem_result.placement[b] == chip::kOffTheShelfChip
                      ? std::string("off-the-shelf chip")
                      : numbered("chip", mem_result.placement[b]))
              << "\n";
  }

  if (mem_result.search.designs.empty()) {
    std::cout << "\nno feasible design after memory placement\n";
    return 1;
  }
  std::cout << "\nFinal design:\n"
            << session.guideline(mem_result.search.designs.front());
  return 0;
}
