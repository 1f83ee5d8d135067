// EvalDelta — a structured description of one §2.7 designer modification.
//
// The paper's interactive loop offers four modification groups: move an
// operation between partitions, retarget a partition's chip (swap the
// chip's package/library, or move a memory block), change the clock
// family, and tighten or loosen the constraint budget. An EvalDelta names
// one such edit as data, and apply_delta() is the one definition of what
// it does: ChopSession::apply() runs it on the session's state, and the
// serving layer's `revise` runs it on a submitted project. What an edit
// made stale is not recorded here; ChopSession::predict_partitions()
// decides that by comparing each partition's inputs exactly.
#pragma once

#include "bad/style.hpp"
#include "core/constraints.hpp"
#include "core/partitioning.hpp"

namespace chop::core {

/// One §2.7 modification, as data.
struct EvalDelta {
  enum class Kind {
    MoveOperation,       ///< Move one op to another partition (§2.7 group 1).
    MovePartitionToChip, ///< Rebind a partition to another chip (group 2).
    ReplaceChipPackage,  ///< Swap a chip's package/library (group 2).
    SetMemoryPlacement,  ///< Move a memory block to a chip (group 2).
    SetClocking,         ///< Replace the style + clock family (group 3).
    SetConstraints,      ///< Replace the constraint budget (group 4).
  };

  Kind kind = Kind::SetConstraints;

  // MoveOperation.
  dfg::NodeId op = dfg::kNoNode;
  int to_partition = -1;

  // MovePartitionToChip.
  int partition = -1;

  // SetMemoryPlacement.
  int block = -1;

  // MovePartitionToChip / ReplaceChipPackage / SetMemoryPlacement (where
  // chip::kOffTheShelfChip puts the block off the shelf).
  int chip = -1;
  chip::ChipPackage package{};

  // SetClocking.
  bad::ArchitectureStyle style{};
  bad::ClockSpec clocks{};

  // SetConstraints.
  DesignConstraints constraints{};

  const char* kind_name() const;

  static EvalDelta move_operation(dfg::NodeId op, int to_partition);
  static EvalDelta move_partition_to_chip(int partition, int chip);
  static EvalDelta replace_chip_package(int chip, chip::ChipPackage package);
  static EvalDelta set_memory_placement(int block, int placement);
  static EvalDelta set_clocking(bad::ArchitectureStyle style,
                                bad::ClockSpec clocks);
  static EvalDelta set_constraints(DesignConstraints constraints);
};

/// Applies `delta` to the loose session state through the Partitioning
/// mutators (same validation, same ordering of members after a move) or a
/// validated config replacement. Throws (via CHOP_REQUIRE) on invalid
/// targets, like the mutators it wraps.
void apply_delta(const EvalDelta& delta, Partitioning& pt,
                 bad::ArchitectureStyle& style, bad::ClockSpec& clocks,
                 DesignConstraints& constraints);

}  // namespace chop::core
