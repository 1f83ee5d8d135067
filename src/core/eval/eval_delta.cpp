#include "core/eval/eval_delta.hpp"

#include <utility>

namespace chop::core {

const char* EvalDelta::kind_name() const {
  switch (kind) {
    case Kind::MoveOperation: return "move_operation";
    case Kind::MovePartitionToChip: return "move_partition_to_chip";
    case Kind::ReplaceChipPackage: return "replace_chip_package";
    case Kind::SetMemoryPlacement: return "set_memory_placement";
    case Kind::SetClocking: return "set_clocking";
    case Kind::SetConstraints: return "set_constraints";
  }
  return "unknown";
}

EvalDelta EvalDelta::move_operation(dfg::NodeId op, int to_partition) {
  EvalDelta d;
  d.kind = Kind::MoveOperation;
  d.op = op;
  d.to_partition = to_partition;
  return d;
}

EvalDelta EvalDelta::move_partition_to_chip(int partition, int chip) {
  EvalDelta d;
  d.kind = Kind::MovePartitionToChip;
  d.partition = partition;
  d.chip = chip;
  return d;
}

EvalDelta EvalDelta::replace_chip_package(int chip, chip::ChipPackage package) {
  EvalDelta d;
  d.kind = Kind::ReplaceChipPackage;
  d.chip = chip;
  d.package = std::move(package);
  return d;
}

EvalDelta EvalDelta::set_memory_placement(int block, int placement) {
  EvalDelta d;
  d.kind = Kind::SetMemoryPlacement;
  d.block = block;
  d.chip = placement;
  return d;
}

EvalDelta EvalDelta::set_clocking(bad::ArchitectureStyle style,
                                  bad::ClockSpec clocks) {
  EvalDelta d;
  d.kind = Kind::SetClocking;
  d.style = style;
  d.clocks = clocks;
  return d;
}

EvalDelta EvalDelta::set_constraints(DesignConstraints constraints) {
  EvalDelta d;
  d.kind = Kind::SetConstraints;
  d.constraints = constraints;
  return d;
}

void apply_delta(const EvalDelta& delta, Partitioning& pt,
                 bad::ArchitectureStyle& style, bad::ClockSpec& clocks,
                 DesignConstraints& constraints) {
  switch (delta.kind) {
    case EvalDelta::Kind::MoveOperation:
      pt.move_operation(delta.op, delta.to_partition);
      break;
    case EvalDelta::Kind::MovePartitionToChip:
      pt.move_partition_to_chip(delta.partition, delta.chip);
      break;
    case EvalDelta::Kind::ReplaceChipPackage:
      pt.replace_chip_package(delta.chip, delta.package);
      break;
    case EvalDelta::Kind::SetMemoryPlacement:
      pt.set_memory_placement(delta.block, delta.chip);
      break;
    case EvalDelta::Kind::SetClocking:
      delta.clocks.validate();
      style = delta.style;
      clocks = delta.clocks;
      break;
    case EvalDelta::Kind::SetConstraints:
      delta.constraints.validate();
      constraints = delta.constraints;
      break;
  }
}

}  // namespace chop::core
