#include "obs/phase_profile.hpp"

#include <cstdio>

namespace chop::obs {

const char* to_string(SearchPhase phase) {
  switch (phase) {
    case SearchPhase::kBoundTables: return "bound_tables";
    case SearchPhase::kSeedProbes: return "seed_probes";
    case SearchPhase::kLeafEval: return "leaf_eval";
    case SearchPhase::kMerge: return "merge";
    case SearchPhase::kFrontierSync: return "frontier_sync";
    case SearchPhase::kCacheWait: return "cache_wait";
    case SearchPhase::kPredict: return "predict";
    case SearchPhase::kRender: return "render";
    case SearchPhase::kGenCoarsen: return "gen_coarsen";
    case SearchPhase::kGenInitial: return "gen_initial";
    case SearchPhase::kGenRefine: return "gen_refine";
    case SearchPhase::kCount: break;
  }
  return "unknown";
}

PhaseProfileData& PhaseProfileData::operator+=(const PhaseProfileData& other) {
  for (std::size_t i = 0; i < kSearchPhaseCount; ++i) {
    ns[i] += other.ns[i];
    calls[i] += other.calls[i];
  }
  searches += other.searches;
  return *this;
}

std::string PhaseProfileData::to_json() const {
  std::string out = "{\"searches\":" + std::to_string(searches);
  out += ",\"phases\":{";
  for (std::size_t i = 0; i < kSearchPhaseCount; ++i) {
    if (i != 0) out += ',';
    char ms[64];
    std::snprintf(ms, sizeof(ms), "%.6g",
                  static_cast<double>(ns[i]) / 1e6);
    out += '"';
    out += to_string(static_cast<SearchPhase>(i));
    out += "\":{\"ms\":";
    out += ms;
    out += ",\"calls\":" + std::to_string(calls[i]) + "}";
  }
  out += "}}";
  return out;
}

void PhaseProfile::add_data(const PhaseProfileData& data) {
  for (std::size_t i = 0; i < kSearchPhaseCount; ++i) {
    if (data.ns[i] != 0) ns_[i].fetch_add(data.ns[i], std::memory_order_relaxed);
    if (data.calls[i] != 0) {
      calls_[i].fetch_add(data.calls[i], std::memory_order_relaxed);
    }
  }
  if (data.searches != 0) {
    searches_.fetch_add(data.searches, std::memory_order_relaxed);
  }
}

PhaseProfileData PhaseProfile::data() const {
  PhaseProfileData out;
  for (std::size_t i = 0; i < kSearchPhaseCount; ++i) {
    out.ns[i] = ns_[i].load(std::memory_order_relaxed);
    out.calls[i] = calls_[i].load(std::memory_order_relaxed);
  }
  out.searches = searches_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace chop::obs
