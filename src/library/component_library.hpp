// Component library (paper §2.2 input group 2): the set of hardware
// modules available to implement each operation type, plus the storage and
// steering primitives (register, multiplexer) and the technology parameters
// BAD's controller/wiring models need.
//
// "The library generally consists of more than one component which can
// implement each operation type" — module selection across these
// alternatives (fast/large vs slow/small) is the serial-parallel axis of
// the prediction design space.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "dfg/graph.hpp"
#include "util/statval.hpp"
#include "util/units.hpp"

namespace chop::lib {

/// One functional module: name, the operation kind it implements, its data
/// width, silicon area and combinational delay (Table 1 columns), and its
/// power draw. The paper's library has no power column (power constraints
/// are its stated future work, §5); a zero `active_power_mw` means
/// "estimate from area" via TechnologyParams::power_per_area_mw.
struct ModuleSpec {
  std::string name;
  dfg::OpKind op = dfg::OpKind::Add;
  Bits width = 16;
  AreaMil2 area = 0.0;
  Ns delay = 0.0;
  double active_power_mw = 0.0;  ///< While computing; 0 = area-derived.
};

/// Per-bit storage/steering primitive (Table 1's `register` and `mux`
/// rows): area and delay for one bit.
struct BitCellSpec {
  AreaMil2 area = 0.0;
  Ns delay = 0.0;
};

/// Technology parameters for BAD's controller and wiring predictors,
/// calibrated for the paper's 3-micron standard-cell + PLA assumption.
struct TechnologyParams {
  /// PLA area per crosspoint of the (2*inputs + outputs) x product-terms
  /// personality matrix, in mil^2.
  AreaMil2 pla_crosspoint_area = 1.1;
  /// Fixed PLA periphery delay plus per-product-term slope.
  Ns pla_base_delay = 12.0;
  Ns pla_delay_per_term = 0.18;
  /// Standard-cell routing area as a fraction of placed cell area,
  /// expressed as a (lo, likely, hi) prediction.
  StatVal wiring_area_fraction{0.15, 0.25, 0.32};
  /// Interconnect delay charged to the clock as a fraction of the driving
  /// module's delay.
  StatVal wiring_delay_fraction{0.04, 0.08, 0.15};

  // --- power model (the paper's §5 extension) ---------------------------
  /// Active power per unit area for modules without a measured power
  /// figure, mW per mil^2 (3-micron-era standard cell ballpark).
  double power_per_area_mw = 0.0020;
  /// Idle (clocked but not computing) power as a fraction of active.
  double idle_power_fraction = 0.25;
  /// Storage/steering/controller power per unit area, mW per mil^2.
  double support_power_per_area_mw = 0.0010;
  /// Power of one switching I/O pad driver, mW.
  double pad_power_mw = 1.5;
};

/// The library of modules plus primitives/technology. Value type; built
/// once per experiment and shared by const reference.
class ComponentLibrary {
 public:
  ComponentLibrary() = default;

  /// Registers a module; modules for one op kind may come in any order.
  void add(ModuleSpec spec);

  /// Modules implementing `op`, in registration order. Empty if none.
  std::vector<const ModuleSpec*> modules_for(dfg::OpKind op) const;

  /// True when every functional-unit operation kind in `kinds` has at
  /// least one module.
  bool covers(std::span<const dfg::OpKind> kinds) const;

  const std::vector<ModuleSpec>& modules() const { return modules_; }

  BitCellSpec register_bit() const { return register_bit_; }
  void set_register_bit(BitCellSpec spec) { register_bit_ = spec; }

  BitCellSpec mux_bit() const { return mux_bit_; }
  void set_mux_bit(BitCellSpec spec) { mux_bit_ = spec; }

  const TechnologyParams& technology() const { return technology_; }

 private:
  std::vector<ModuleSpec> modules_;
  BitCellSpec register_bit_{31.0, 5.0};  // Table 1 register row (1 bit).
  BitCellSpec mux_bit_{18.0, 4.0};       // Table 1 2:1 mux row (1 bit).
  TechnologyParams technology_;
};

}  // namespace chop::lib
