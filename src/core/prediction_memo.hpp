// PredictionMemo — one partition's level-1-pruned prediction list, keyed on
// exactly the values it was built from, shared by the sessions of one
// partition-generation run.
//
// gen::generate_partitions() scores every candidate cut on a fresh
// ChopSession, and a boundary move changes only two of the cut's
// partitions, so most partitions of a candidate were already predicted
// by an earlier candidate of the same start or of another start. A
// session with a memo attached looks each stale partition up here before
// running BAD, and stores what it computes on a miss.
//
// Key. The partition's RawInputs (its members and the session's
// bad::PredictEnv) plus its EligibleInputs (usable chip area, constraints,
// criteria), compared in full with their defaulted operator==. A 64-bit
// digest of the members and the usable area only skips entries that
// cannot match; no hit rests on it.
//
// Lifetime. The key leaves out the specification graph and the component
// library, so one memo must serve sessions over one graph and one library
// only: gen::generate_partitions() owns one per call and drops it on
// return.
//
// Value. The eligible list and the size of the raw list it was pruned
// from, never the raw list: a raw list is hundreds of predictions where
// the eligible one is a handful, and keeping raw lists would multiply the
// memo's footprint. A session served from the memo therefore holds no raw
// list for that partition (see ChopSession::predict_partitions()) — the
// same state a pruned-only session's bounded sweep leaves, which is why
// generation declares its memo sessions pruned-only: a miss there never
// builds the raw list either, and stores the same value.
//
// Bound and threads. At most kMaxEntries entries, the oldest evicted first.
// Every member takes one mutex, so sessions on different threads may share
// a memo; an insert whose key is already present (two threads missed the
// same partition at once) keeps the first entry and takes no second slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "bad/prediction.hpp"
#include "bad/predictor.hpp"
#include "core/constraints.hpp"
#include "dfg/graph.hpp"
#include "util/units.hpp"

namespace chop::core {

/// The exact values one partition's raw BAD list is built from besides
/// the graph and the library: its members and the prediction environment
/// (style, clocks, pipelined-II cap, testability, and the memory blocks'
/// ports and access times, not where the blocks sit).
struct RawInputs {
  std::vector<dfg::NodeId> members;
  bad::PredictEnv env;

  bool operator==(const RawInputs&) const = default;
};

/// What level-1 pruning reads besides the raw list.
struct EligibleInputs {
  AreaMil2 usable_area = 0.0;
  DesignConstraints constraints;
  FeasibilityCriteria criteria;

  bool operator==(const EligibleInputs&) const = default;
};

class PredictionMemo {
 public:
  static constexpr std::size_t kMaxEntries = 256;

  /// One partition's eligible list and the size of its raw list.
  struct Value {
    std::vector<bad::DesignPrediction> eligible;
    std::size_t raw_count = 0;
  };

  /// The value stored under exactly (raw, eligible), or null.
  std::shared_ptr<const Value> find(const RawInputs& raw,
                                    const EligibleInputs& eligible) const;

  /// Stores `value` under (raw, eligible) unless that key is present,
  /// evicting the oldest entry when the memo is full.
  void insert(RawInputs raw, EligibleInputs eligible, Value value);

  std::size_t size() const;

 private:
  struct Entry {
    std::uint64_t digest = 0;
    RawInputs raw;
    EligibleInputs eligible;
    std::shared_ptr<const Value> value;
  };

  static std::uint64_t digest(const RawInputs& raw,
                              const EligibleInputs& eligible);
  /// The entry stored under exactly the key; caller holds mutex_.
  const Entry* locate(std::uint64_t digest, const RawInputs& raw,
                      const EligibleInputs& eligible) const;

  mutable std::mutex mutex_;
  std::deque<Entry> entries_;  ///< Oldest first.
};

}  // namespace chop::core
