// Register-demand estimation from a schedule: how many bits of storage the
// datapath needs. BAD "performs detailed predictions on register ...
// allocation" — we measure value lifetimes against the schedule and take
// the maximum number of bits alive across any control-step boundary. For
// pipelined schedules, lifetimes from overlapped iterations fold onto the
// same hardware, so boundaries are folded modulo the initiation interval
// and concurrent iterations accumulate.
//
// Cost: O(n + e + length). Lifetimes go into a difference array over
// absolute cycles, one prefix sum gives the bits alive across every
// boundary, and a second pass folds those sums onto the phases; the sums
// are exact integers, so the fold order cannot change the maximum.
#pragma once

#include <span>

#include "dfg/graph.hpp"
#include "schedule/op_schedule.hpp"
#include "util/units.hpp"

namespace chop::sched {

/// Peak storage (bits) implied by `schedule`. A value produced by node u is
/// alive from the end of u to the end of its last consumer. Primary-input
/// values are excluded and output-feeding values are held only one cycle —
/// both ends live in the data transfer module buffers that system
/// integration sizes separately (avoiding double counting).
Bits register_demand(const dfg::Graph& g, std::span<const Cycles> latency,
                     const OpSchedule& schedule);

}  // namespace chop::sched
