// Architecture style and clocking inputs (paper §2.2 input group 6).
//
// "The architecture style can allow either single-cycle or multi-cycle
// operations, and be pipelined or nonpipelined. The clock cycle is an
// input to the system. ... we assume two separate clocks for data path and
// data transfer ... both clocks are to be synchronous with frequencies
// being multiples of the major clock frequency."
#pragma once

#include "util/error.hpp"
#include "util/units.hpp"

namespace chop::bad {

/// Whether an implementation overlaps successive iterations.
enum class DesignStyle { Nonpipelined, Pipelined };

inline const char* to_string(DesignStyle s) {
  return s == DesignStyle::Nonpipelined ? "nonpipelined" : "pipelined";
}

/// Operation-to-clock binding of the datapath.
enum class ClockingStyle {
  /// Every operation completes in one datapath cycle; a module is eligible
  /// only if its delay (plus datapath overhead) fits the datapath period.
  /// Experiment 1's "widely used style among current datapath synthesis
  /// approaches".
  SingleCycle,
  /// Operations may span several datapath cycles
  /// (latency = ceil(delay / period)). Experiment 2's style.
  MultiCycle,
};

inline const char* to_string(ClockingStyle s) {
  return s == ClockingStyle::SingleCycle ? "single-cycle" : "multi-cycle";
}

/// The architecture style offered to BAD's design-space sweep.
struct ArchitectureStyle {
  ClockingStyle clocking = ClockingStyle::SingleCycle;
  bool allow_pipelining = true;

  bool operator==(const ArchitectureStyle&) const = default;
};

/// The synchronous clock family: datapath and transfer clocks are integer
/// multiples of the main clock period.
struct ClockSpec {
  Ns main_clock = 300.0;        ///< Major clock period, ns.
  int datapath_multiplier = 1;  ///< Datapath period = multiplier x main.
  int transfer_multiplier = 1;  ///< Transfer period = multiplier x main.

  Ns datapath_period() const {
    return main_clock * static_cast<double>(datapath_multiplier);
  }
  Ns transfer_period() const {
    return main_clock * static_cast<double>(transfer_multiplier);
  }

  void validate() const {
    CHOP_REQUIRE(main_clock > 0.0, "main clock period must be positive");
    CHOP_REQUIRE(datapath_multiplier >= 1 && transfer_multiplier >= 1,
                 "clock multipliers must be positive integers");
  }

  bool operator==(const ClockSpec&) const = default;
};

}  // namespace chop::bad
