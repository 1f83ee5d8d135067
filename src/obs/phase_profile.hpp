// Search-phase profiler: cheap scoped wall-clock counters attributing
// where a search spends its time — bound-table builds, heuristic probe
// seeding, leaf evaluations, result merging, evaluator-cache lock waits,
// per-partition BAD prediction, serve-side result rendering, and the
// three phases of partition generation.
//
// Unlike TraceSpan (per-event, needs a sink and a file) this is an
// aggregate: two atomic adds per scope, readable live while the search
// runs. A null PhaseProfile* disables everything including the clock
// reads, so the hooks in the enumerator cost nothing for callers that do
// not ask for attribution (chop_cli, tests).
//
// The accumulators are per-job (serve mints one PhaseProfile per Job) and
// merge into the server-wide aggregate at job completion; the `profile`
// protocol verb renders either view.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace chop::obs {

enum class SearchPhase : std::size_t {
  kBoundTables = 0,  ///< B&B bound-table construction per prefix unit.
  kSeedProbes,       ///< Heuristic probes seeding the pruning frontier.
  kLeafEval,         ///< Candidate evaluations at enumeration leaves.
  kMerge,            ///< In-order merging of per-unit results.
  kFrontierSync,     ///< Always 0; kept so benchmark reports keep the key.
  kCacheWait,        ///< Blocked acquiring an evaluator cache shard lock.
  kPredict,          ///< A served job's predict_partitions() call.
  kRender,           ///< Serve-side result JSON rendering.
  kGenCoarsen,       ///< Partition generation: heavy-edge coarsening.
  kGenInitial,       ///< Partition generation: coarsest-level seed cuts.
  kGenRefine,        ///< Partition generation: uncoarsening refinement.
  kCount
};

constexpr std::size_t kSearchPhaseCount =
    static_cast<std::size_t>(SearchPhase::kCount);

/// Stable snake_case name used in JSON, docs, and bench output.
const char* to_string(SearchPhase phase);

/// Plain-value snapshot of a PhaseProfile, safe to copy and combine.
struct PhaseProfileData {
  std::array<std::uint64_t, kSearchPhaseCount> ns{};
  std::array<std::uint64_t, kSearchPhaseCount> calls{};
  std::uint64_t searches = 0;

  PhaseProfileData& operator+=(const PhaseProfileData& other);

  /// `{"searches":N,"phases":{"bound_tables":{"ms":1.25,"calls":5},...}}`
  /// — every phase always present, so consumers need no key probing.
  std::string to_json() const;
};

/// Thread-safe accumulator: relaxed atomic adds only.
class PhaseProfile {
 public:
  void add(SearchPhase phase, std::uint64_t ns, std::uint64_t calls = 1) {
    const auto i = static_cast<std::size_t>(phase);
    ns_[i].fetch_add(ns, std::memory_order_relaxed);
    calls_[i].fetch_add(calls, std::memory_order_relaxed);
  }

  void add_search() { searches_.fetch_add(1, std::memory_order_relaxed); }

  void add_data(const PhaseProfileData& data);

  PhaseProfileData data() const;

 private:
  std::array<std::atomic<std::uint64_t>, kSearchPhaseCount> ns_{};
  std::array<std::atomic<std::uint64_t>, kSearchPhaseCount> calls_{};
  std::atomic<std::uint64_t> searches_{0};
};

/// RAII phase timer. With a null profile nothing happens — not even a
/// clock read — so enumerator hot paths stay free by default.
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfile* profile, SearchPhase phase)
      : profile_(profile), phase_(phase) {
    if (profile_) start_ = std::chrono::steady_clock::now();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() { stop(); }

  /// Records now instead of at destruction (idempotent).
  void stop() {
    if (!profile_) return;
    const auto end = std::chrono::steady_clock::now();
    profile_->add(phase_,
                  static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(
                          end - start_)
                          .count()));
    profile_ = nullptr;
  }

 private:
  PhaseProfile* profile_;
  SearchPhase phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace chop::obs
