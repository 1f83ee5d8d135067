// System integration prediction (paper §2.5-§2.6): given one selected
// implementation per partition, predict the data transfer module
// characteristics, the clock-cycle overhead, the overall system
// performance and delay, and run the probabilistic feasibility analysis
// per chip-area / performance / delay constraint.
//
// The model follows the paper:
//  * each transfer uses the maximum possible bandwidth — the minimum
//    available data pins over the chips involved;
//  * transfer time X = ceil(D / pins) transfer-clock cycles, and X must not
//    exceed the initiation interval (pin counts are hard; longer would
//    cause data clashes);
//  * an urgency schedule over shared chip pins and memory ports yields the
//    system delay (the overall process is treated as pipelined, so demand
//    is folded modulo the initiation interval);
//  * buffer size B = D * (ceil(W / l) + X / l);
//  * each transfer places one module on every involved chip (output mode
//    at the source, input mode at destinations); module area = buffers +
//    pin multiplexing + a PLA controller sized from the wait/transfer
//    times by the same methods used in BAD.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "bad/controller_model.hpp"
#include "bad/prediction.hpp"
#include "bad/style.hpp"
#include "core/constraints.hpp"
#include "core/eval/eval_context.hpp"
#include "core/transfer.hpp"
#include "util/statval.hpp"

namespace chop::core {

/// Predicted implementation of one data transfer task.
struct TransferPlan {
  DataTransfer task;
  Pins pins = 0;              ///< Bandwidth actually allocated.
  Cycles transfer_cycles = 0; ///< X, in main-clock cycles.
  Cycles wait_cycles = 0;     ///< W, from the urgency schedule.
  Bits buffer_bits = 0;       ///< B = D * (ceil(W/l) + X/l).
  bad::PlaEstimate controller;
  StatVal module_area;        ///< Per involved chip (buffers + mux + PLA).
  StatVal module_power_mw;    ///< Pads at duty X/l + support logic.
};

/// Everything the integration predicts for one global implementation.
struct IntegrationResult {
  bool feasible = false;
  std::string reason;  ///< First failure, empty when feasible.

  Cycles ii_main = 0;           ///< System initiation interval (main cycles).
  Cycles system_delay_main = 0; ///< Input-to-output makespan (main cycles).
  StatVal adjusted_clock_ns;    ///< Main clock after overhead adjustment.
  StatVal performance_ns;       ///< ii * clock.
  StatVal delay_ns;             ///< makespan * clock.

  std::vector<StatVal> chip_area;  ///< Predicted used area per chip.
  std::vector<int> violated_chips; ///< Chips whose area check failed.
  std::vector<StatVal> chip_power_mw;  ///< Predicted power per chip.
  StatVal system_power_mw;             ///< Sum over chips.
  std::vector<TransferPlan> transfers;

  /// Clock cycle column of Tables 4/6 (most-likely adjusted clock).
  Ns clock_ns() const { return adjusted_clock_ns.likely(); }
};

/// Integrates `selection` (one prediction per partition, indexed like
/// ctx.partitioning().partitions()) at system initiation interval
/// `ii_main` main-clock cycles. The context carries the partitioning, its
/// transfer tasks (from create_transfer_tasks), the clock family, the
/// constraint budget, the feasibility criteria and any extra reserved
/// pins. Pure: same context + selection + ii always yields the same
/// result.
///
/// It runs in three stages, shared with IntegrationMemo:
///  1. pre-checks on the selection's rates (the data-rate-mismatch rule,
///     no partition slower than the II);
///  2. the structure: transfer plans, the urgency schedule, waits,
///     buffers, controllers and transfer-module area and power. It
///     depends only on the II and on each partition's latency and local
///     memory-block demands;
///  3. the tail: per-chip area and power sums, the clock adjustment and
///     the verdict.
IntegrationResult integrate(
    const EvalContext& ctx,
    const std::vector<const bad::DesignPrediction*>& selection,
    Cycles ii_main);

/// What a search leaf needs from one integration.
struct LeafVerdict {
  bool feasible = false;
  Cycles delay_main = 0;  ///< IntegrationResult::system_delay_main.
  Ns clock_ns = 0.0;      ///< IntegrationResult::clock_ns().
  /// IntegrationResult::reason, "" when feasible. Points to static storage
  /// or into the reason table the memo shares with its forks.
  const char* reason = "";
};

/// integrate() with its structure stage memoized, keyed exactly on the II
/// plus each partition's latency and local memory-block demands. A
/// keep-all sweep revisits few such keys: the 6.3 million leaves of the
/// Figure-7 3-partition space reach the structure stage with only 127
/// distinct keys.
///
/// Thread-confined: one memo serves one thread, and fork() gives another
/// thread its own memo over the same shared, immutable context facts and
/// reason table. The context must outlive the memo and its forks. A memo
/// holds at most kMaxEntries structures; past that, a miss computes
/// without inserting, so memory stays bounded.
class IntegrationMemo {
 public:
  static constexpr std::size_t kMaxEntries = 1024;

  explicit IntegrationMemo(const EvalContext& ctx);
  ~IntegrationMemo();

  /// An empty memo over the same context, sharing this one's context
  /// facts and reason table (so reasons stay valid across forks).
  IntegrationMemo fork() const;

  /// The verdict integrate(ctx, selection, ii_main) reaches, counted as
  /// one `integration.attempts`. When the leaf is feasible and `result`
  /// is non-null, *result becomes integrate()'s full result.
  LeafVerdict integrate(
      const std::vector<const bad::DesignPrediction*>& selection,
      Cycles ii_main, IntegrationResult* result = nullptr);

  /// Structures held.
  std::size_t size() const;

 private:
  struct Frame;
  struct State;
  explicit IntegrationMemo(std::shared_ptr<const Frame> frame);

  std::shared_ptr<const Frame> frame_;
  std::unique_ptr<State> state_;
};

/// The performance bound a combination implies: the slowest selected
/// implementation ("the performance of each combination is upper bounded
/// and set by the slowest partition implementation").
Cycles combination_ii(const std::vector<const bad::DesignPrediction*>& selection);

/// The paper's data-rate-mismatch rule: two or more *pipelined*
/// implementations with different initiation intervals cannot be
/// integrated. Returns true when the combination is rate-compatible.
bool rates_compatible(const std::vector<const bad::DesignPrediction*>& selection);

}  // namespace chop::core
