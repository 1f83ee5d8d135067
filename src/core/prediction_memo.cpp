#include "core/prediction_memo.hpp"

#include <utility>

#include "core/eval/fingerprint.hpp"

namespace chop::core {

std::uint64_t PredictionMemo::digest(const RawInputs& raw,
                                     const EligibleInputs& eligible) {
  Fnv1a h;
  h.mix_bytes(raw.members.data(), raw.members.size() * sizeof(dfg::NodeId));
  h.mix(eligible.usable_area);
  return h.digest();
}

const PredictionMemo::Entry* PredictionMemo::locate(
    std::uint64_t digest, const RawInputs& raw,
    const EligibleInputs& eligible) const {
  for (const Entry& e : entries_) {
    if (e.digest == digest && e.raw == raw && e.eligible == eligible) {
      return &e;
    }
  }
  return nullptr;
}

std::shared_ptr<const PredictionMemo::Value> PredictionMemo::find(
    const RawInputs& raw, const EligibleInputs& eligible) const {
  const std::uint64_t d = digest(raw, eligible);
  const std::lock_guard lock(mutex_);
  const Entry* e = locate(d, raw, eligible);
  return e != nullptr ? e->value : nullptr;
}

void PredictionMemo::insert(RawInputs raw, EligibleInputs eligible,
                            Value value) {
  const std::uint64_t d = digest(raw, eligible);
  auto stored = std::make_shared<const Value>(std::move(value));
  const std::lock_guard lock(mutex_);
  if (locate(d, raw, eligible) != nullptr) return;
  if (entries_.size() == kMaxEntries) entries_.pop_front();
  entries_.push_back(
      Entry{d, std::move(raw), std::move(eligible), std::move(stored)});
}

std::size_t PredictionMemo::size() const {
  const std::lock_guard lock(mutex_);
  return entries_.size();
}

}  // namespace chop::core
