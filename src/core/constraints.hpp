// Hard design constraints and the probabilistic feasibility criteria
// (paper §2.6): "If a predicted design has a probability of 100% of
// satisfying the performance (initiation interval) and chip area
// constraints, and a probability of 80% of satisfying the system delay
// constraint, then the predicted design is considered feasible."
#pragma once

#include "util/error.hpp"
#include "util/statval.hpp"
#include "util/units.hpp"

namespace chop::core {

/// The absolute constraint budget: initiation interval (performance) and
/// input-to-output delay, both in nanoseconds; optionally power budgets
/// (the paper's §5 extension — 0 disables a power check). Chip area and
/// pin counts are carried by the chip set itself.
struct DesignConstraints {
  Ns performance_ns = 30000.0;
  Ns delay_ns = 30000.0;

  /// Total system power budget, mW (0 = unconstrained).
  double system_power_mw = 0.0;
  /// Per-chip power budget, mW (0 = unconstrained) — package thermals.
  double chip_power_mw = 0.0;

  bool power_constrained() const {
    return system_power_mw > 0.0 || chip_power_mw > 0.0;
  }

  bool operator==(const DesignConstraints&) const = default;

  void validate() const {
    CHOP_REQUIRE(performance_ns > 0.0 && delay_ns > 0.0,
                 "constraints must be positive");
    CHOP_REQUIRE(system_power_mw >= 0.0 && chip_power_mw >= 0.0,
                 "power budgets cannot be negative");
  }
};

/// Probability thresholds a prediction must reach against each constraint.
/// 1.0 demands the upper bound satisfy the limit.
struct FeasibilityCriteria {
  double area_prob = 1.0;
  double performance_prob = 1.0;
  double delay_prob = 0.8;
  double power_prob = 0.9;

  bool operator==(const FeasibilityCriteria&) const = default;

  void validate() const {
    CHOP_REQUIRE(area_prob > 0.0 && area_prob <= 1.0 &&
                     performance_prob > 0.0 && performance_prob <= 1.0 &&
                     delay_prob > 0.0 && delay_prob <= 1.0 &&
                     power_prob > 0.0 && power_prob <= 1.0,
                 "feasibility probabilities must lie in (0, 1]");
  }

  bool area_ok(const StatVal& area, AreaMil2 limit) const {
    return area.satisfies(limit, area_prob);
  }
  bool performance_ok(const StatVal& perf_ns, Ns limit) const {
    return perf_ns.satisfies(limit, performance_prob);
  }
  bool delay_ok(const StatVal& delay_ns, Ns limit) const {
    return delay_ns.satisfies(limit, delay_prob);
  }
  bool power_ok(const StatVal& power_mw, double limit) const {
    return limit <= 0.0 || power_mw.satisfies(limit, power_prob);
  }
};

}  // namespace chop::core
