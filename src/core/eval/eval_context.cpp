#include "core/eval/eval_context.hpp"

#include "core/eval/fingerprint.hpp"

namespace chop::core {

std::uint64_t fingerprint(const bad::DesignPrediction& p) {
  Fnv1a h;
  h.mix(static_cast<std::int64_t>(p.style));
  h.mix(p.module_set_label);
  for (const auto& [kind, name] : p.module_names) {
    h.mix(static_cast<std::int64_t>(kind));
    h.mix(name);
  }
  for (const auto& [kind, count] : p.fu_alloc) {
    h.mix(static_cast<std::int64_t>(kind));
    h.mix(static_cast<std::int64_t>(count));
  }
  h.mix(p.stages);
  h.mix(p.ii_dp);
  h.mix(p.ii_main);
  h.mix(p.latency_main);
  h.mix(p.register_bits);
  h.mix(p.mux_count_likely);
  h.mix(p.fu_area);
  h.mix(p.register_area);
  h.mix(p.mux_area);
  h.mix(p.controller_area);
  h.mix(p.wiring_area);
  h.mix(p.total_area);
  h.mix(p.clock_overhead_ns);
  h.mix(p.power_mw);
  for (const auto& [block, accesses] : p.memory_accesses) {
    h.mix(static_cast<std::int64_t>(block));
    h.mix(static_cast<std::int64_t>(accesses));
  }
  return h.digest();
}

void mix_transfer(Fnv1a& h, const DataTransfer& t) {
  h.mix(static_cast<std::int64_t>(t.kind));
  h.mix(t.name);
  h.mix(static_cast<std::int64_t>(t.src_partition));
  h.mix(static_cast<std::int64_t>(t.dst_partition));
  h.mix(static_cast<std::int64_t>(t.memory_block));
  h.mix(t.bits);
  for (int c : t.chips) h.mix(static_cast<std::int64_t>(c));
}

namespace {

/// Content digest of the whole evaluation tuple.
std::uint64_t context_fingerprint(const Partitioning& pt,
                                  const std::vector<DataTransfer>& transfers,
                                  const bad::ClockSpec& clocks,
                                  const DesignConstraints& constraints,
                                  const FeasibilityCriteria& criteria,
                                  Pins extra_pins) {
  Fnv1a h;
  for (const chip::ChipInstance& c : pt.chips()) {
    h.mix(c.name);
    h.mix(c.package.width_mil);
    h.mix(c.package.height_mil);
    h.mix(static_cast<std::int64_t>(c.package.pin_count));
    h.mix(c.package.pad_delay);
    h.mix(c.package.io_pad_area);
    h.mix(static_cast<std::int64_t>(c.package.infrastructure_pins));
  }
  for (const Partition& p : pt.partitions()) {
    h.mix(p.name);
    h.mix(static_cast<std::int64_t>(p.chip));
    for (dfg::NodeId id : p.members) h.mix(static_cast<std::int64_t>(id));
  }
  for (const chip::MemoryModule& m : pt.memory().blocks) {
    h.mix(m.name);
    h.mix(m.word_bits);
    h.mix(static_cast<std::int64_t>(m.ports));
    h.mix(m.access_time);
    h.mix(m.area);
    h.mix(static_cast<std::int64_t>(m.control_pins));
  }
  for (int placement : pt.memory().chip_of_block) {
    h.mix(static_cast<std::int64_t>(placement));
  }
  h.mix(static_cast<std::uint64_t>(transfers.size()));
  for (const DataTransfer& t : transfers) mix_transfer(h, t);
  h.mix(clocks.main_clock);
  h.mix(static_cast<std::int64_t>(clocks.datapath_multiplier));
  h.mix(static_cast<std::int64_t>(clocks.transfer_multiplier));
  h.mix(static_cast<std::int64_t>(extra_pins));
  h.mix(constraints.performance_ns);
  h.mix(constraints.delay_ns);
  h.mix(constraints.system_power_mw);
  h.mix(constraints.chip_power_mw);
  h.mix(criteria.area_prob);
  h.mix(criteria.performance_prob);
  h.mix(criteria.delay_prob);
  h.mix(criteria.power_prob);
  return h.digest();
}

}  // namespace

EvalContext::EvalContext(const Partitioning& pt,
                         std::vector<DataTransfer> transfers,
                         const bad::ClockSpec& clocks,
                         const DesignConstraints& constraints,
                         const FeasibilityCriteria& criteria, Pins extra_pins)
    : pt_(&pt),
      transfers_(std::move(transfers)),
      clocks_(clocks),
      constraints_(constraints),
      criteria_(criteria),
      extra_pins_(extra_pins) {
  clocks_.validate();
  constraints_.validate();
  criteria_.validate();
  CHOP_REQUIRE(extra_pins_ >= 0, "extra pin reserve cannot be negative");
  fingerprint_ = context_fingerprint(pt, transfers_, clocks_, constraints_,
                                     criteria_, extra_pins_);
}

}  // namespace chop::core
