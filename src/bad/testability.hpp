// Testability overhead — the paper's §5 extension: "In order to
// synthesize highly testable designs while still satisfying design
// constraints, the testability overheads for area, delay, performance and
// pin count have to be considered in the prediction mechanism."
//
// Model: full-scan design. Every datapath register becomes a scan
// flip-flop (area factor, plus a mux delay in front of each FF that lands
// on the clock path), the controller grows by a test-control factor, and
// each chip dedicates a handful of unshared test-access pins
// (TDI/TDO/TMS/TCK-style), which come straight out of the data-pin
// budget.
#pragma once

#include "util/error.hpp"
#include "util/units.hpp"

namespace chop::bad {

/// Scan-design overhead knobs. Disabled by default (the paper's baseline).
struct TestabilityOptions {
  bool scan_design = false;

  /// Scan FF area relative to a plain FF (muxed-D scan cell).
  double register_area_factor = 1.35;
  /// Scan mux delay added to the register setup path, ns.
  Ns register_delay_penalty_ns = 2.0;
  /// Test-control overhead on the controller PLA area.
  double controller_area_factor = 1.10;
  /// Dedicated, unshared test-access pins per chip.
  Pins test_pins_per_chip = 4;

  void validate() const {
    CHOP_REQUIRE(register_area_factor >= 1.0 &&
                     controller_area_factor >= 1.0,
                 "testability factors cannot shrink the design");
    CHOP_REQUIRE(register_delay_penalty_ns >= 0.0,
                 "scan delay penalty cannot be negative");
    CHOP_REQUIRE(test_pins_per_chip >= 0,
                 "test pin reserve cannot be negative");
  }

  bool operator==(const TestabilityOptions&) const = default;
};

}  // namespace chop::bad
