#include "testing/scenario.hpp"

#include <algorithm>
#include <sstream>

#include "chip/mosis_packages.hpp"
#include "dfg/generator.hpp"

namespace chop::testing {

namespace {

int clamp(int v, int lo, int hi) { return std::max(lo, std::min(hi, v)); }

/// splitmix64-style mix so neighboring scenario indices decorrelate.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int pick(Rng& rng, std::initializer_list<int> choices) {
  const auto* begin = choices.begin();
  return begin[rng.uniform(0, static_cast<std::int64_t>(choices.size()) - 1)];
}

}  // namespace

void ScenarioKnobs::normalize() {
  operations = clamp(operations, 1, 64);
  depth = clamp(depth, 1, operations);
  mul_permille = clamp(mul_permille, 0, 1000);
  width = clamp(width, 1, 64);
  extra_inputs = clamp(extra_inputs, 2, 8);
  memory_blocks = clamp(memory_blocks, 0, 4);
  if (memory_blocks == 0) {
    mem_reads = 0;
    mem_writes = 0;
  } else {
    mem_reads = clamp(mem_reads, 0, 4);
    mem_writes = clamp(mem_writes, 0, 4);
    if (mem_reads + mem_writes == 0) memory_blocks = 0;
  }
  chips = clamp(chips, 1, 4);
  partitions = clamp(partitions, 1, std::min(4, depth));
  modules_per_op = clamp(modules_per_op, 1, 3);
  main_clock_ns = clamp(main_clock_ns, 50, 1000);
  datapath_mult = clamp(datapath_mult, 1, 30);
  transfer_mult = clamp(transfer_mult, 1, 4);
  performance_ns = clamp(performance_ns, 500, 200000);
  delay_ns = clamp(delay_ns, 500, 200000);
  system_power_mw = clamp(system_power_mw, 0, 50000);
  chip_power_mw = clamp(chip_power_mw, 0, 50000);
  performance_prob_pct = clamp(performance_prob_pct, 50, 100);
  delay_prob_pct = clamp(delay_prob_pct, 50, 100);
}

std::string ScenarioKnobs::describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " ops=" << operations << " depth=" << depth
     << " mul=" << mul_permille << " width=" << width
     << " inputs=" << extra_inputs << " mem=" << memory_blocks << '/'
     << mem_reads << 'r' << mem_writes << 'w' << " chips=" << chips
     << " parts=" << partitions << " mods=" << modules_per_op
     << " style=" << (multi_cycle ? "multi" : "single")
     << (allow_pipelining ? "" : " nopipe") << " clock=" << main_clock_ns
     << 'x' << datapath_mult << '/' << transfer_mult
     << " perf=" << performance_ns << " delay=" << delay_ns
     << " power=" << system_power_mw << '/' << chip_power_mw
     << " probs=" << performance_prob_pct << '/' << delay_prob_pct;
  return os.str();
}

ScenarioKnobs sample_knobs(std::uint64_t seed) {
  Rng rng(mix(seed));
  ScenarioKnobs k;
  k.seed = seed;
  k.operations = static_cast<int>(rng.uniform(4, 18));
  k.depth = static_cast<int>(rng.uniform(2, 4));
  k.mul_permille = pick(rng, {0, 200, 400, 700, 1000});
  k.width = pick(rng, {8, 16, 24});
  k.extra_inputs = static_cast<int>(rng.uniform(2, 5));
  if (rng.chance(0.35)) {
    k.memory_blocks = static_cast<int>(rng.uniform(1, 2));
    k.mem_reads = static_cast<int>(rng.uniform(1, 3));
    k.mem_writes = static_cast<int>(rng.uniform(0, 2));
  }
  k.chips = static_cast<int>(rng.uniform(1, 3));
  k.partitions = static_cast<int>(rng.uniform(1, 4));
  k.modules_per_op = static_cast<int>(rng.uniform(1, 3));
  k.multi_cycle = rng.chance(0.5);
  k.allow_pipelining = rng.chance(0.8);
  k.main_clock_ns = pick(rng, {100, 200, 300});
  k.datapath_mult = k.multi_cycle ? pick(rng, {1, 2}) : pick(rng, {5, 10, 20});
  k.transfer_mult = pick(rng, {1, 2});
  k.performance_ns = static_cast<int>(rng.uniform(16, 120)) * 500;
  k.delay_ns = static_cast<int>(rng.uniform(16, 120)) * 500;
  // Scenario designs draw about 40-200 mW, so these budgets bind: 20-280
  // mW per system, 10-145 mW per chip. The draws' spans (53 and 28 values)
  // fix how much generator state they consume.
  if (rng.chance(0.25)) {
    k.system_power_mw = static_cast<int>(rng.uniform(4, 56)) * 5;
    if (rng.chance(0.5)) {
      k.chip_power_mw = static_cast<int>(rng.uniform(2, 29)) * 5;
    }
  }
  k.performance_prob_pct = pick(rng, {90, 100});
  k.delay_prob_pct = pick(rng, {80, 90, 100});
  k.normalize();
  return k;
}

io::Project build_scenario(ScenarioKnobs knobs) {
  knobs.normalize();
  // Independent stream from the sampling one, so shrinking a knob does not
  // reshuffle every other generation decision more than necessary.
  Rng rng(mix(knobs.seed ^ 0xc2b2ae3d27d4eb4full));

  io::Project project;

  dfg::RandomDagSpec dag;
  dag.operations = knobs.operations;
  dag.depth = knobs.depth;
  dag.mul_fraction = static_cast<double>(knobs.mul_permille) / 1000.0;
  dag.width = knobs.width;
  dag.extra_inputs = knobs.extra_inputs;
  dag.memory_blocks = knobs.memory_blocks;
  dag.mem_reads = knobs.mem_reads;
  dag.mem_writes = knobs.mem_writes;
  const dfg::BenchmarkGraph bg = dfg::random_dag(rng, dag);
  project.graph = bg.graph;
  project.graph.set_name("fuzz_" + std::to_string(knobs.seed));

  // Library: `modules_per_op` alternatives for each op kind the generator
  // emits, spanning a fast/large vs slow/small spread like the paper's
  // Table 1. All quantities integral so the `.chop` round trip is exact.
  for (dfg::OpKind op : {dfg::OpKind::Add, dfg::OpKind::Mul}) {
    const char* prefix = op == dfg::OpKind::Add ? "add" : "mul";
    for (int m = 0; m < knobs.modules_per_op; ++m) {
      lib::ModuleSpec spec;
      spec.name = std::string(prefix) + std::to_string(m + 1);
      spec.op = op;
      spec.width = knobs.width;
      spec.delay = static_cast<double>(rng.uniform(4, 180)) * 10.0;
      // Loosely anticorrelated area: faster modules trend larger.
      spec.area = static_cast<double>(rng.uniform(30, 400)) * 10.0 +
                  (1800.0 - spec.delay);
      project.library.add(spec);
    }
  }

  for (int c = 0; c < knobs.chips; ++c) {
    const chip::ChipPackage pkg =
        rng.chance(0.5) ? chip::mosis_package_64() : chip::mosis_package_84();
    std::string name = "chip";
    name += std::to_string(c);
    project.chips.push_back({std::move(name), pkg});
  }

  for (int b = 0; b < knobs.memory_blocks; ++b) {
    chip::MemoryModule block;
    block.name = "m" + std::to_string(b);
    block.word_bits = knobs.width;
    block.words = pick(rng, {64, 256, 1024});
    block.ports = static_cast<int>(rng.uniform(1, 2));
    block.access_time = static_cast<double>(pick(rng, {40, 80, 120}));
    block.area = static_cast<double>(pick(rng, {2000, 6000, 12000}));
    project.memory.blocks.push_back(block);
    // Off-the-shelf with probability 1/(chips+1), else on a random chip.
    const int placement =
        static_cast<int>(rng.uniform(-1, knobs.chips - 1));
    project.memory.chip_of_block.push_back(
        placement < 0 ? chip::kOffTheShelfChip : placement);
  }

  // Partitions: split the layer range into `partitions` contiguous,
  // nonempty spans at random cut points, each span on a random chip.
  const int layers = static_cast<int>(bg.layers.size());
  const int nparts = std::min(knobs.partitions, layers);
  std::vector<int> cuts;  // first layer of each partition after the first
  while (static_cast<int>(cuts.size()) < nparts - 1) {
    const int cut = static_cast<int>(rng.uniform(1, layers - 1));
    if (std::find(cuts.begin(), cuts.end(), cut) == cuts.end()) {
      cuts.push_back(cut);
    }
  }
  cuts.push_back(0);
  cuts.push_back(layers);
  std::sort(cuts.begin(), cuts.end());
  for (int p = 0; p < nparts; ++p) {
    core::Partition partition;
    partition.name = "P";
    partition.name += std::to_string(p);
    partition.chip = static_cast<int>(rng.uniform(0, knobs.chips - 1));
    partition.members = bg.layer_span(
        static_cast<std::size_t>(cuts[static_cast<std::size_t>(p)]),
        static_cast<std::size_t>(cuts[static_cast<std::size_t>(p) + 1] - 1));
    project.partitions.push_back(std::move(partition));
  }

  project.config.style.clocking = knobs.multi_cycle
                                      ? bad::ClockingStyle::MultiCycle
                                      : bad::ClockingStyle::SingleCycle;
  project.config.style.allow_pipelining = knobs.allow_pipelining;
  project.config.clocks.main_clock = static_cast<double>(knobs.main_clock_ns);
  project.config.clocks.datapath_multiplier = knobs.datapath_mult;
  project.config.clocks.transfer_multiplier = knobs.transfer_mult;
  project.config.constraints.performance_ns =
      static_cast<double>(knobs.performance_ns);
  project.config.constraints.delay_ns = static_cast<double>(knobs.delay_ns);
  project.config.constraints.system_power_mw =
      static_cast<double>(knobs.system_power_mw);
  project.config.constraints.chip_power_mw =
      static_cast<double>(knobs.chip_power_mw);
  project.config.criteria.performance_prob =
      static_cast<double>(knobs.performance_prob_pct) / 100.0;
  project.config.criteria.delay_prob =
      static_cast<double>(knobs.delay_prob_pct) / 100.0;
  return project;
}

std::uint64_t parse_seed(const std::string& text) {
  if (!text.empty() &&
      text.find_first_not_of("0123456789") == std::string::npos &&
      text.size() <= 19) {
    return std::stoull(text);
  }
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

std::uint64_t scenario_seed(std::uint64_t base, std::uint64_t index) {
  return mix(base ^ mix(index + 1));
}

}  // namespace chop::testing
