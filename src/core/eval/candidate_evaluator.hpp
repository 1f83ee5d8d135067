// CandidateEvaluator — the memoizing front door to integrate(). The
// iterative heuristic's serialization probes re-integrate points its main
// loop already visited, partition generation re-evaluates the same candidate
// cuts across starts, and clock sweeps re-run the winning candidate;
// before this layer every one of those recomputed transfer plans, urgency
// schedules and PLA sizings from scratch. The evaluator caches
// IntegrationResults keyed on (context fingerprint, system II, content
// digest of each selected prediction), so a repeat the cache still holds —
// within a search, across searches, even across sessions — is a lookup.
// The enumeration consults it only when its whole walk fits within
// capacity(): under FIFO eviction a longer walk would evict its own
// entries before any replay reached them, so it integrates through an
// IntegrationMemo instead and leaves the evaluator untouched.
//
// Thread safety: the cache is sharded (kShards independently locked maps)
// so the parallel enumeration's workers can share one evaluator without
// serializing on a single mutex. Concurrent misses on the same key may
// both compute; integrate() is pure, so whichever insert wins the result
// is identical.
//
// Eviction: bounded residency, enforced per shard in FIFO order — oldest
// insertions go first. Each shard holds at most ⌈max_entries/kShards⌉
// entries, so total residency never exceeds kShards·⌈max_entries/kShards⌉
// (exactly max_entries when it is a multiple of kShards). Eviction only
// costs a repeat integration later; correctness never depends on
// residency.
//
// Observability: global counters `eval.cache_hits`, `eval.cache_misses` and
// `eval.cache_evictions`, plus per-instance stats().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/integration.hpp"

namespace chop::obs {
class Counter;
class PhaseProfile;
}

namespace chop::core {

class CandidateEvaluator {
 public:
  static constexpr std::size_t kDefaultMaxEntries = 1 << 16;

  /// `max_entries` bounds residency (see the eviction note above);
  /// 0 disables caching entirely — every evaluate() counts a miss and
  /// integrates fresh, with no key, lock or map touched. That is the
  /// reference behavior cache-correctness tests compare against.
  explicit CandidateEvaluator(std::size_t max_entries = kDefaultMaxEntries);

  CandidateEvaluator(const CandidateEvaluator&) = delete;
  CandidateEvaluator& operator=(const CandidateEvaluator&) = delete;

  /// Integrates `selection` at `ii_main` under `ctx`, returning a cached
  /// result when this exact candidate was evaluated before. The returned
  /// pointer is never null and stays valid after eviction (shared
  /// ownership). Safe to call from multiple threads concurrently.
  /// When `profile` is non-null, time spent blocked on a shard lock is
  /// attributed to SearchPhase::kCacheWait (contention diagnostics).
  std::shared_ptr<const IntegrationResult> evaluate(
      const EvalContext& ctx,
      const std::vector<const bad::DesignPrediction*>& selection,
      Cycles ii_main, obs::PhaseProfile* profile = nullptr);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  Stats stats() const;

  /// Entries currently resident, across all shards.
  std::size_t size() const;

  /// The `max_entries` it was built with.
  std::size_t capacity() const { return max_entries_; }

 private:
  struct Key {
    std::uint64_t context_fp = 0;
    Cycles ii = 0;
    std::vector<std::uint64_t> selection_fp;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, std::shared_ptr<const IntegrationResult>, KeyHash>
        map;
    std::deque<Key> fifo;  ///< Insertion order, for eviction.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  static constexpr std::size_t kShards = 16;

  std::size_t max_entries_;
  std::size_t shard_cap_;  ///< ⌈max_entries / kShards⌉ (0 = no caching).
  std::array<Shard, kShards> shards_;
  /// Misses of a zero-capacity evaluator, which has no shard to count in.
  std::atomic<std::uint64_t> uncached_misses_{0};
  obs::Counter& hits_counter_;
  obs::Counter& misses_counter_;
  obs::Counter& evictions_counter_;
};

}  // namespace chop::core
