#include "core/memory_optimizer.hpp"

#include <limits>

#include "obs/trace.hpp"

namespace chop::core {

namespace {

/// Comparable score of one evaluated placement; smaller is better.
struct Score {
  bool feasible = false;
  Cycles ii = std::numeric_limits<Cycles>::max();
  Cycles delay = std::numeric_limits<Cycles>::max();
  std::size_t eligible = 0;  // gradient when infeasible

  bool better_than(const Score& other) const {
    if (feasible != other.feasible) return feasible;
    if (feasible) {
      if (ii != other.ii) return ii < other.ii;
      return delay < other.delay;
    }
    return eligible > other.eligible;
  }
};

Score evaluate(ChopSession& session, const SearchOptions& options,
               SearchResult& out) {
  Score score;
  const PredictionStats stats = session.predict_partitions();
  score.eligible = stats.feasible;
  out = session.search(options);
  if (!out.designs.empty()) {
    score.feasible = true;
    score.ii = out.designs.front().integration.ii_main;
    score.delay = out.designs.front().integration.system_delay_main;
  }
  return score;
}

}  // namespace

MemoryPlacementResult optimize_memory_placement(
    ChopSession& session, const MemoryPlacementOptions& options) {
  obs::TraceSpan span("memory_optimizer");
  const std::size_t blocks =
      session.partitioning().memory().blocks.size();
  const int chips = static_cast<int>(session.partitioning().chips().size());

  MemoryPlacementResult result;
  result.placement = session.partitioning().memory().chip_of_block;

  if (blocks == 0) {
    // Nothing to optimize; evaluate the current state for a uniform API.
    Score score = evaluate(session, options.search, result.search);
    (void)score;
    result.evaluated = 1;
    return result;
  }

  // Candidate locations per block.
  std::vector<int> candidates;
  for (int c = 0; c < chips; ++c) candidates.push_back(c);
  if (options.allow_off_the_shelf) {
    candidates.push_back(chip::kOffTheShelfChip);
  }
  CHOP_REQUIRE(!candidates.empty(), "no candidate memory locations");

  std::vector<std::size_t> odo(blocks, 0);
  Score best;
  bool have_best = false;
  std::vector<int> best_placement = result.placement;
  SearchResult best_search;

  bool done = false;
  while (!done) {
    if (result.evaluated >= options.max_placements) {
      result.truncated = true;
      break;
    }
    // Install this placement.
    for (std::size_t b = 0; b < blocks; ++b) {
      session.apply(EvalDelta::set_memory_placement(static_cast<int>(b),
                                                    candidates[odo[b]]));
    }
    SearchResult search;
    const Score score = evaluate(session, options.search, search);
    ++result.evaluated;
    if (!have_best || score.better_than(best)) {
      have_best = true;
      best = score;
      best_placement = session.partitioning().memory().chip_of_block;
      best_search = std::move(search);
    }

    for (std::size_t b = 0;; ++b) {
      if (b == blocks) {
        done = true;
        break;
      }
      if (++odo[b] < candidates.size()) break;
      odo[b] = 0;
    }
  }

  // Install and re-predict the winner so the session is consistent.
  for (std::size_t b = 0; b < blocks; ++b) {
    session.apply(EvalDelta::set_memory_placement(static_cast<int>(b),
                                                  best_placement[b]));
  }
  session.predict_partitions();
  result.placement = std::move(best_placement);
  result.search = std::move(best_search);
  span.arg("evaluated", result.evaluated);
  span.arg("truncated", result.truncated);
  return result;
}

}  // namespace chop::core
