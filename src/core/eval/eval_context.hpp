// EvalContext — the immutable "world" of one evaluation problem: the
// partitioning, its data-transfer tasks, the clock family, the constraint
// budget, the feasibility criteria, and any extra reserved pins. Before
// this layer existed every consumer (both search heuristics, the session,
// the clock explorer, the memory optimizer) hand-threaded the same six
// loose arguments into integrate(); the context collapses those signatures
// to (context, selection, ii) and gives the memoizing CandidateEvaluator a
// stable identity to key on.
//
// Lifetime rules: the Partitioning is *referenced* and must outlive the
// context (it is typically owned by a ChopSession or a stack frame that
// also owns the context). The transfer tasks are *owned* (moved in), and
// the small POD bundles (clocks/constraints/criteria) are copied, so a
// context stays valid after the session's config mutates. A context never
// mutates after construction — safe to share across threads by const
// reference, which is what the parallel enumeration does.
#pragma once

#include <cstdint>
#include <vector>

#include "bad/style.hpp"
#include "core/constraints.hpp"
#include "core/transfer.hpp"

namespace chop::core {

class EvalContext {
 public:
  /// Validates the bundle once (clocks/constraints/criteria/partitioning)
  /// so per-candidate evaluation skips revalidation.
  EvalContext(const Partitioning& pt, std::vector<DataTransfer> transfers,
              const bad::ClockSpec& clocks,
              const DesignConstraints& constraints,
              const FeasibilityCriteria& criteria, Pins extra_pins = 0);

  const Partitioning& partitioning() const { return *pt_; }
  const std::vector<DataTransfer>& transfers() const { return transfers_; }
  const bad::ClockSpec& clocks() const { return clocks_; }
  const DesignConstraints& constraints() const { return constraints_; }
  const FeasibilityCriteria& criteria() const { return criteria_; }
  Pins extra_pins() const { return extra_pins_; }

  /// Content digest of the whole tuple (chips, partitions, memory,
  /// transfers, clocks, constraints, criteria, extra pins). Two contexts
  /// with equal fingerprints describe the same evaluation problem, so
  /// cached IntegrationResults are interchangeable between them.
  std::uint64_t fingerprint() const { return fingerprint_; }

 private:
  const Partitioning* pt_;
  std::vector<DataTransfer> transfers_;
  bad::ClockSpec clocks_;
  DesignConstraints constraints_;
  FeasibilityCriteria criteria_;
  Pins extra_pins_;
  std::uint64_t fingerprint_;
};

/// Content digest of one partition as integrate() sees it: name, chip
/// binding (including the chip's package geometry) and member set. The
/// session diffs these across an EvalDelta to decide which partitions'
/// predictions and bound columns are actually dirty.
std::uint64_t partition_fingerprint(const Partitioning& pt, std::size_t p);

}  // namespace chop::core
