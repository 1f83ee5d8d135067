#include "core/eval/candidate_evaluator.hpp"

#include "core/eval/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_profile.hpp"

namespace chop::core {

namespace {

/// lock_guard that attributes time blocked on the mutex to kCacheWait
/// when profiling is on (uncontended acquisition rounds to ~0ns).
class TimedLockGuard {
 public:
  TimedLockGuard(std::mutex& mu, obs::PhaseProfile* profile) : mu_(mu) {
    if (profile != nullptr) {
      obs::ScopedPhase wait(profile, obs::SearchPhase::kCacheWait);
      mu_.lock();
    } else {
      mu_.lock();
    }
  }
  TimedLockGuard(const TimedLockGuard&) = delete;
  TimedLockGuard& operator=(const TimedLockGuard&) = delete;
  ~TimedLockGuard() { mu_.unlock(); }

 private:
  std::mutex& mu_;
};

}  // namespace

std::size_t CandidateEvaluator::KeyHash::operator()(const Key& k) const {
  Fnv1a h;
  h.mix(k.context_fp);
  h.mix(k.ii);
  for (std::uint64_t fp : k.selection_fp) h.mix(fp);
  return static_cast<std::size_t>(h.digest());
}

CandidateEvaluator::CandidateEvaluator(std::size_t max_entries)
    : max_entries_(max_entries),
      shard_cap_((max_entries + kShards - 1) / kShards),
      hits_counter_(obs::MetricsRegistry::global().counter("eval.cache_hits")),
      misses_counter_(
          obs::MetricsRegistry::global().counter("eval.cache_misses")),
      evictions_counter_(
          obs::MetricsRegistry::global().counter("eval.cache_evictions")) {}

std::shared_ptr<const IntegrationResult> CandidateEvaluator::evaluate(
    const EvalContext& ctx,
    const std::vector<const bad::DesignPrediction*>& selection,
    Cycles ii_main, obs::PhaseProfile* profile) {
  if (shard_cap_ == 0) {
    uncached_misses_.fetch_add(1, std::memory_order_relaxed);
    misses_counter_.add();
    return std::make_shared<const IntegrationResult>(
        integrate(ctx, selection, ii_main));
  }

  Key key;
  key.context_fp = ctx.fingerprint();
  key.ii = ii_main;
  key.selection_fp.reserve(selection.size());
  for (const bad::DesignPrediction* p : selection) {
    CHOP_REQUIRE(p != nullptr, "selection has an unselected partition");
    key.selection_fp.push_back(fingerprint(*p));
  }

  Shard& shard = shards_[KeyHash{}(key) % kShards];
  {
    TimedLockGuard lock(shard.mu, profile);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      ++shard.hits;
      hits_counter_.add();
      return it->second;
    }
    ++shard.misses;
    misses_counter_.add();
  }

  // Compute outside the lock: integrations dominate the cost, and holding
  // a shard would serialize the parallel enumeration's workers.
  auto result = std::make_shared<const IntegrationResult>(
      integrate(ctx, selection, ii_main));

  TimedLockGuard lock(shard.mu, profile);
  const auto [it, inserted] = shard.map.emplace(key, result);
  if (!inserted) return it->second;  // a concurrent miss beat us to it
  shard.fifo.push_back(std::move(key));
  while (shard.map.size() > shard_cap_) {
    shard.map.erase(shard.fifo.front());
    shard.fifo.pop_front();
    ++shard.evictions;
    evictions_counter_.add();
  }
  return result;
}

CandidateEvaluator::Stats CandidateEvaluator::stats() const {
  Stats out;
  out.misses = uncached_misses_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.hits += shard.hits;
    out.misses += shard.misses;
    out.evictions += shard.evictions;
  }
  return out;
}

std::size_t CandidateEvaluator::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.map.size();
  }
  return n;
}

}  // namespace chop::core
