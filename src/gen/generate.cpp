#include "gen/generate.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "baseline/partition_builders.hpp"
#include "core/eval/candidate_evaluator.hpp"
#include "core/eval/thread_pool.hpp"
#include "gen/coarsen.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chop::gen {

namespace {

/// splitmix64-style mix so neighboring start indices decorrelate.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Comparable quality of one evaluated cut: feasibility first, then II,
/// delay, and — on the infeasible plateau — eligible prediction count and
/// cut width as gradients.
struct Score {
  bool feasible = false;
  Cycles ii = std::numeric_limits<Cycles>::max();
  Cycles delay = std::numeric_limits<Cycles>::max();
  std::size_t eligible = 0;
  Bits cut_bits = 0;

  bool better_than(const Score& other) const {
    if (feasible != other.feasible) return feasible;
    if (feasible) {
      if (ii != other.ii) return ii < other.ii;
      return delay < other.delay;
    }
    if (eligible != other.eligible) return eligible > other.eligible;
    return cut_bits < other.cut_bits;
  }

  std::string describe() const {
    std::ostringstream os;
    if (feasible) {
      os << "feasible II=" << ii << "c delay=" << delay << "c";
    } else {
      os << "infeasible (" << eligible << " eligible predictions)";
    }
    return os.str();
  }
};

/// Everything a start needs read-only access to.
struct GenContext {
  const dfg::Graph& spec;
  const lib::ComponentLibrary& library;
  const std::vector<chip::ChipInstance>& chips;
  const chip::MemorySubsystem& memory;
  const core::ChopConfig& config;
  const Hierarchy& hierarchy;
  const GenerateOptions& options;
  core::SearchOptions search;  ///< With the shared evaluator installed.
  int k = 0;
  std::size_t budget = 0;
  /// Coarsest vertex per base vertex (hierarchy.ops order).
  std::vector<int> to_coarsest;
  /// Mean base topological rank per coarsest vertex (level-order seeds).
  std::vector<double> coarsest_rank;
};

std::optional<core::ChopSession> make_session(
    const GenContext& ctx,
    const std::vector<std::vector<dfg::NodeId>>& members) {
  try {
    core::Partitioning pt(ctx.spec, ctx.chips, ctx.memory);
    for (std::size_t p = 0; p < members.size(); ++p) {
      pt.add_partition("P" + std::to_string(p + 1), members[p],
                       static_cast<int>(p));
    }
    pt.validate();
    return core::ChopSession(ctx.library, std::move(pt), ctx.config);
  } catch (const Error&) {
    return std::nullopt;
  }
}

bool dominates(const FrontierPoint& a, const FrontierPoint& b) {
  if (a.ii > b.ii || a.delay > b.delay || a.area > b.area) return false;
  return a.ii < b.ii || a.delay < b.delay || a.area < b.area;
}

/// Folds `p` into a small 3-D non-dominated set. Returns true when kept.
bool fold_point(std::vector<FrontierPoint>& front, FrontierPoint p) {
  for (const FrontierPoint& q : front) {
    if (dominates(q, p)) return false;
    if (q.ii == p.ii && q.delay == p.delay && q.area == p.area) return false;
  }
  front.erase(std::remove_if(front.begin(), front.end(),
                             [&](const FrontierPoint& q) {
                               return dominates(p, q);
                             }),
              front.end());
  front.push_back(std::move(p));
  return true;
}

void sort_frontier(std::vector<FrontierPoint>& front) {
  std::sort(front.begin(), front.end(),
            [](const FrontierPoint& a, const FrontierPoint& b) {
              if (a.ii != b.ii) return a.ii < b.ii;
              if (a.delay != b.delay) return a.delay < b.delay;
              if (a.area != b.area) return a.area < b.area;
              return a.start < b.start;
            });
}

AreaMil2 total_area(const core::IntegrationResult& integration) {
  AreaMil2 area = 0.0;
  for (const StatVal& a : integration.chip_area) area += a.likely();
  return area;
}

/// Result of one start's pipeline, folded into the portfolio in start
/// order.
struct StartOutcome {
  bool valid = false;  ///< A cut was evaluated at all.
  Score best;
  std::vector<std::vector<dfg::NodeId>> members;
  core::SearchResult search;
  std::vector<FrontierPoint> points;  ///< Local 3-D frontier fold.
  std::size_t evaluations = 0;
  std::size_t gated = 0;
  bool cancelled = false;
  std::vector<std::string> log;
};

/// One evaluated candidate: the (repaired) cut plus its score and search.
struct Evaluation {
  bool usable = false;  ///< Structurally valid k-part acyclic cut.
  Score score;
  std::vector<std::vector<dfg::NodeId>> members;
  core::SearchResult search;
  bool searched = false;  ///< False when the prediction gate stopped it.
};

bool stop_requested(const GenContext& ctx) {
  if (ctx.options.cancel != nullptr &&
      ctx.options.cancel->load(std::memory_order_relaxed)) {
    return true;
  }
  return ctx.options.deadline != std::chrono::steady_clock::time_point{} &&
         std::chrono::steady_clock::now() >= ctx.options.deadline;
}

/// Scores one cut through the real pipeline. The per-partition prediction
/// pass is the cheap gate: when it leaves no eligible implementation at
/// all, the full search cannot find anything and is skipped.
Evaluation evaluate_cut(const GenContext& ctx, StartOutcome& out,
                        int start_index,
                        std::vector<std::vector<dfg::NodeId>> members,
                        bool repair) {
  Evaluation ev;
  if (repair) {
    members = baseline::make_acyclic(ctx.spec, members);
  }
  if (static_cast<int>(members.size()) != ctx.k) return ev;  // repair merged
  for (const auto& part : members) {
    if (part.empty()) return ev;
  }
  auto session = make_session(ctx, members);
  if (!session) return ev;
  ++out.evaluations;

  ev.score.eligible = session->predict_partitions().feasible;
  for (const core::DataTransfer& t : session->transfer_tasks()) {
    if (t.crosses_pins()) ev.score.cut_bits += t.bits;
  }
  ev.members = std::move(members);
  ev.usable = true;
  if (ev.score.eligible == 0) {
    ++out.gated;  // nothing to search: the gate already has the verdict
    return ev;
  }
  ev.searched = true;
  ev.search = session->search(ctx.search);
  if (!ev.search.designs.empty()) {
    ev.score.feasible = true;
    ev.score.ii = ev.search.designs.front().integration.ii_main;
    ev.score.delay = ev.search.designs.front().integration.system_delay_main;
  }
  for (const core::GlobalDesign& d : ev.search.designs) {
    FrontierPoint p;
    p.members = ev.members;
    p.choice = d.choice;
    p.ii = d.integration.ii_main;
    p.delay = d.integration.system_delay_main;
    p.area = total_area(d.integration);
    p.start = start_index;
    fold_point(out.points, std::move(p));
  }
  return ev;
}

/// Accepts `ev` as the start's new best state.
void accept(StartOutcome& out, Evaluation ev) {
  out.valid = true;
  out.best = ev.score;
  out.members = std::move(ev.members);
  out.search = std::move(ev.search);
}

/// Vertex counts per part of one level-assignment.
std::vector<int> part_sizes(const std::vector<int>& assignment, int k) {
  std::vector<int> sizes(static_cast<std::size_t>(k), 0);
  for (const int p : assignment) ++sizes[static_cast<std::size_t>(p)];
  return sizes;
}

/// Coarse level-order seed: vertices sorted by mean base topological rank
/// and sliced into k contiguous slabs balanced by folded operation count.
std::vector<int> level_order_assignment(const GenContext& ctx) {
  const CoarseGraph& g = ctx.hierarchy.coarsest();
  const std::size_t n = g.vertex_count();
  std::vector<int> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double ra = ctx.coarsest_rank[static_cast<std::size_t>(a)];
    const double rb = ctx.coarsest_rank[static_cast<std::size_t>(b)];
    if (ra != rb) return ra < rb;
    return a < b;
  });
  int total = 0;
  for (const int w : g.weight) total += w;
  std::vector<int> assignment(n, 0);
  int part = 0;
  int filled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<std::size_t>(order[i]);
    // Advance once the running slab reaches its share, but never leave
    // fewer vertices than the remaining parts need to stay non-empty.
    const bool quota_met =
        static_cast<long long>(filled) * ctx.k >=
        static_cast<long long>(total) * (part + 1);
    const bool must_stay = n - i <= static_cast<std::size_t>(ctx.k - 1 - part);
    if (part < ctx.k - 1 && (quota_met || must_stay)) ++part;
    assignment[v] = part;
    filled += g.weight[v];
  }
  return assignment;
}

/// Lifts a spec-level cut onto the coarsest graph by majority vote of each
/// vertex's folded operations. Returns nullopt when a part comes back
/// empty (the lift destroyed it).
std::optional<std::vector<int>> lift_assignment(
    const GenContext& ctx,
    const std::vector<std::vector<dfg::NodeId>>& members) {
  std::vector<int> part_of_op(ctx.spec.node_count(), -1);
  for (std::size_t p = 0; p < members.size(); ++p) {
    for (const dfg::NodeId id : members[p]) {
      part_of_op[static_cast<std::size_t>(id)] = static_cast<int>(p);
    }
  }
  const Hierarchy& h = ctx.hierarchy;
  const std::size_t n = h.coarsest().vertex_count();
  std::vector<std::vector<int>> votes(
      n, std::vector<int>(static_cast<std::size_t>(ctx.k), 0));
  for (std::size_t v = 0; v < h.ops.size(); ++v) {
    const int p = part_of_op[static_cast<std::size_t>(h.ops[v])];
    if (p >= 0) ++votes[static_cast<std::size_t>(ctx.to_coarsest[v])]
                       [static_cast<std::size_t>(p)];
  }
  std::vector<int> assignment(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    int best = 0;
    for (int p = 1; p < ctx.k; ++p) {
      if (votes[v][static_cast<std::size_t>(p)] >
          votes[v][static_cast<std::size_t>(best)]) {
        best = p;
      }
    }
    assignment[v] = best;
  }
  const std::vector<int> sizes = part_sizes(assignment, ctx.k);
  for (const int s : sizes) {
    if (s == 0) return std::nullopt;
  }
  return assignment;
}

/// Seeded random coarse assignment: a shuffle seeds each part once, the
/// rest spread uniformly.
std::vector<int> random_assignment(const GenContext& ctx, Rng& rng) {
  const std::size_t n = ctx.hierarchy.coarsest().vertex_count();
  std::vector<int> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  std::vector<int> assignment(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int part = i < static_cast<std::size_t>(ctx.k)
                         ? static_cast<int>(i)
                         : static_cast<int>(rng.uniform(0, ctx.k - 1));
    assignment[static_cast<std::size_t>(order[i])] = part;
  }
  return assignment;
}

/// One boundary FM-style move candidate at some level.
struct VertexMove {
  int vertex = -1;
  int to = -1;
};

/// Boundary move candidates: per boundary vertex, the gain of moving it
/// into each neighboring part. Sorted best-gain first with deterministic
/// tie-breaks, capped by max_candidates_per_level.
std::vector<VertexMove> boundary_candidates(const CoarseGraph& g,
                                            const std::vector<int>& assignment,
                                            const std::vector<int>& sizes,
                                            int cap) {
  struct Raw {
    int vertex;
    int to;
    long long gain;
  };
  std::vector<Raw> raws;
  std::vector<Bits> to_part;
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    const int own = assignment[v];
    if (sizes[static_cast<std::size_t>(own)] <= 1) continue;  // never empty
    to_part.assign(to_part.size(), 0);
    std::vector<int> touched;
    Bits internal = 0;
    for (const auto& [u, w] : g.adjacency[v]) {
      const int p = assignment[static_cast<std::size_t>(u)];
      if (p == own) {
        internal += w;
        continue;
      }
      if (static_cast<std::size_t>(p) >= to_part.size()) {
        to_part.resize(static_cast<std::size_t>(p) + 1, 0);
      }
      if (to_part[static_cast<std::size_t>(p)] == 0) touched.push_back(p);
      to_part[static_cast<std::size_t>(p)] += w;
    }
    for (const int p : touched) {
      raws.push_back(Raw{static_cast<int>(v), p,
                         static_cast<long long>(
                             to_part[static_cast<std::size_t>(p)]) -
                             static_cast<long long>(internal)});
    }
  }
  std::sort(raws.begin(), raws.end(), [](const Raw& a, const Raw& b) {
    if (a.gain != b.gain) return a.gain > b.gain;
    if (a.vertex != b.vertex) return a.vertex < b.vertex;
    return a.to < b.to;
  });
  std::vector<VertexMove> moves;
  for (const Raw& r : raws) {
    if (static_cast<int>(moves.size()) >= cap) break;
    moves.push_back(VertexMove{r.vertex, r.to});
  }
  return moves;
}

/// Runs one portfolio start end to end. A start reads no other start's
/// state (only the shared evaluator, whose hits never change a result),
/// which is what makes the outcome independent of thread scheduling.
StartOutcome run_start(const GenContext& ctx, int start_index) {
  obs::TraceSpan span("gen.start");
  span.arg("start", start_index);
  StartOutcome out;
  const Hierarchy& h = ctx.hierarchy;
  Rng rng(mix(ctx.options.seed ^
              mix(static_cast<std::uint64_t>(start_index) + 0x9e3779b9ull)));

  // --- Initial cut at the coarsest level --------------------------------
  obs::ScopedPhase initial_phase(ctx.options.profile,
                                 obs::SearchPhase::kGenInitial);
  std::vector<int> assignment;
  std::string seed_name;
  obs::TraceSpan seed_span("gen.seed");
  // The KL seed cuts the *base* graph: 45-95 ms on perfbench's 1k-op
  // generate_1k DAGs (Release). Past the cap the coarse slab + refinement
  // does the work instead; lifting the cap changes the output of larger
  // inputs.
  constexpr std::size_t kMaxKlSeedOps = 2048;
  if (start_index == 1 && h.ops.size() <= kMaxKlSeedOps &&
      static_cast<int>(h.ops.size()) >= 2 * ctx.k) {
    const auto kl =
        baseline::repaired_kl_partition(ctx.spec, h.ops, ctx.k, rng);
    if (static_cast<int>(kl.size()) == ctx.k) {
      if (auto lifted = lift_assignment(ctx, kl)) {
        assignment = std::move(*lifted);
        seed_name = "kernighan-lin cut (lifted)";
      }
    }
  } else if (start_index >= 2) {
    assignment = random_assignment(ctx, rng);
    seed_name = "random coarse cut";
  }
  if (assignment.empty()) {
    assignment = level_order_assignment(ctx);
    seed_name = "coarse level-order cut";
  }
  seed_span.arg("seed", seed_name);
  seed_span.finish();

  // Start 0 also scores the plain level-order cut of the full graph — the
  // single-level baseline the multilevel engine must dominate or equal.
  // Its feasible designs enter the frontier like any other evaluation.
  if (start_index == 0 && ctx.budget > out.evaluations) {
    Evaluation baseline_ev = evaluate_cut(
        ctx, out, start_index,
        baseline::level_order_partition(ctx.spec, h.ops, ctx.k),
        /*repair=*/false);
    if (baseline_ev.usable) {
      out.log.push_back("baseline level-order: " +
                        baseline_ev.score.describe());
      accept(out, std::move(baseline_ev));
    }
  }

  std::size_t level = h.level_count();
  if (ctx.budget > out.evaluations) {
    Evaluation seed_ev = evaluate_cut(
        ctx, out, start_index,
        h.members_of(h.project_to_base(level, assignment), ctx.k),
        /*repair=*/true);
    if (seed_ev.usable) {
      const bool better = !out.valid || seed_ev.score.better_than(out.best);
      out.log.push_back("seed (" + seed_name + "): " +
                        seed_ev.score.describe());
      if (better) accept(out, std::move(seed_ev));
    } else {
      out.log.push_back("seed (" + seed_name + "): structurally invalid");
    }
  }
  initial_phase.stop();

  // --- Uncoarsen + refine ----------------------------------------------
  obs::ScopedPhase refine_phase(ctx.options.profile,
                                obs::SearchPhase::kGenRefine);
  static obs::Counter& moves_accepted =
      obs::MetricsRegistry::global().counter("gen.moves_accepted");
  constexpr int kMaxPassesPerLevel = 8;
  bool exhausted = false;
  while (true) {
    const CoarseGraph& g = h.at(level);
    std::vector<int> sizes = part_sizes(assignment, ctx.k);
    for (int pass = 0; pass < kMaxPassesPerLevel && !exhausted; ++pass) {
      const std::vector<VertexMove> moves = boundary_candidates(
          g, assignment, sizes, ctx.options.max_candidates_per_level);
      bool improved = false;
      for (const VertexMove& move : moves) {
        if (out.evaluations >= ctx.budget) {
          exhausted = true;
          break;
        }
        if (stop_requested(ctx)) {
          out.cancelled = true;
          exhausted = true;
          break;
        }
        const auto v = static_cast<std::size_t>(move.vertex);
        if (sizes[static_cast<std::size_t>(assignment[v])] <= 1) continue;
        std::vector<int> candidate = assignment;
        candidate[v] = move.to;
        Evaluation ev = evaluate_cut(
            ctx, out, start_index,
            h.members_of(h.project_to_base(level, candidate), ctx.k),
            /*repair=*/true);
        if (!ev.usable) continue;
        if (!out.valid || ev.score.better_than(out.best)) {
          --sizes[static_cast<std::size_t>(assignment[v])];
          ++sizes[static_cast<std::size_t>(move.to)];
          assignment = std::move(candidate);
          std::ostringstream os;
          os << "level " << level << ": move vertex " << move.vertex
             << " -> P" << move.to + 1 << ": " << ev.score.describe();
          out.log.push_back(os.str());
          accept(out, std::move(ev));
          moves_accepted.add();
          improved = true;
          break;  // greedy: re-derive the boundary after each accepted move
        }
      }
      if (!improved) break;
    }
    if (level == 0 || exhausted) break;
    assignment = h.project_one(level, assignment);
    --level;
    if (stop_requested(ctx)) {
      out.cancelled = true;
      break;
    }
  }
  out.log.push_back("done: " +
                    (out.valid ? out.best.describe()
                               : std::string("no valid cut")));
  span.arg("evaluations", out.evaluations);
  return out;
}

}  // namespace

GenerateResult generate_partitions(const dfg::Graph& spec,
                                   const lib::ComponentLibrary& library,
                                   std::vector<chip::ChipInstance> chips,
                                   chip::MemorySubsystem memory,
                                   const core::ChopConfig& config,
                                   const GenerateOptions& options) {
  obs::TraceSpan span("gen.generate");
  static obs::Counter& starts_counter =
      obs::MetricsRegistry::global().counter("gen.starts");
  static obs::Counter& evaluations_counter =
      obs::MetricsRegistry::global().counter("gen.evaluations");
  static obs::Counter& gated_counter =
      obs::MetricsRegistry::global().counter("gen.gated");
  static obs::Counter& frontier_counter =
      obs::MetricsRegistry::global().counter("gen.frontier_points");

  CHOP_REQUIRE(!chips.empty(), "generate_partitions needs at least one chip");
  CHOP_REQUIRE(options.num_starts >= 1 &&
                   options.max_candidates_per_level >= 1,
               "generate option out of range");
  CHOP_REQUIRE(options.threads >= 1,
               "generate_partitions needs threads >= 1 (map 0 via "
               "ThreadPool::resolve_threads first)");
  CHOP_REQUIRE(options.coarsening_ratio > 0.0 && options.coarsening_ratio < 1.0,
               "coarsening ratio must lie in (0, 1)");

  const std::vector<dfg::NodeId> ops = spec.partitionable_operations();
  const int k = static_cast<int>(chips.size());
  CHOP_REQUIRE(static_cast<int>(ops.size()) >= k,
               "cannot partition fewer operations than chips");

  GenerateResult result;

  // One coarsening hierarchy shared read-only by every start.
  CoarsenOptions copts;
  copts.ratio = options.coarsening_ratio;
  copts.min_vertices = std::max(2 * k, k + 1);
  copts.seed = options.seed;
  Hierarchy hierarchy;
  {
    obs::ScopedPhase coarsen_phase(options.profile,
                                   obs::SearchPhase::kGenCoarsen);
    hierarchy = coarsen(spec, ops, copts);
  }
  result.levels = hierarchy.level_count();
  result.coarsest_vertices = hierarchy.coarsest().vertex_count();
  {
    std::ostringstream os;
    os << "coarsened " << ops.size() << " ops to "
       << result.coarsest_vertices << " vertices over " << result.levels
       << " levels";
    result.log.push_back(os.str());
  }

  // One memo cache raced by every start: candidate cuts overlap heavily
  // across starts and levels, and content-hashed keys make the sharing
  // safe (cache state can change hit counts, never results).
  core::CandidateEvaluator shared_evaluator;
  GenContext ctx{spec,    library, chips,  memory, config,
                 hierarchy, options, options.search, k,
                 options.budget == 0 ? std::size_t{48} : options.budget,
                 {}, {}};
  if (ctx.search.evaluator == nullptr) {
    ctx.search.evaluator = &shared_evaluator;
  }
  if (ctx.search.cancel == nullptr) ctx.search.cancel = options.cancel;
  if (ctx.search.deadline == std::chrono::steady_clock::time_point{}) {
    ctx.search.deadline = options.deadline;
  }
  if (ctx.search.profile == nullptr) ctx.search.profile = options.profile;

  // Base vertex -> coarsest vertex, and the mean base topological rank
  // per coarsest vertex for level-order seeds.
  ctx.to_coarsest.resize(hierarchy.ops.size());
  for (std::size_t v = 0; v < hierarchy.ops.size(); ++v) {
    ctx.to_coarsest[v] = static_cast<int>(v);
  }
  for (const CoarseLevel& level : hierarchy.levels) {
    for (int& c : ctx.to_coarsest) {
      c = level.parent[static_cast<std::size_t>(c)];
    }
  }
  {
    std::vector<double> rank(spec.node_count(), 0.0);
    int r = 0;
    for (const dfg::NodeId id : spec.topological_order()) {
      rank[static_cast<std::size_t>(id)] = static_cast<double>(r++);
    }
    const std::size_t n = hierarchy.coarsest().vertex_count();
    ctx.coarsest_rank.assign(n, 0.0);
    std::vector<int> counts(n, 0);
    for (std::size_t v = 0; v < hierarchy.ops.size(); ++v) {
      const auto c = static_cast<std::size_t>(ctx.to_coarsest[v]);
      ctx.coarsest_rank[c] += rank[static_cast<std::size_t>(hierarchy.ops[v])];
      ++counts[c];
    }
    for (std::size_t c = 0; c < n; ++c) {
      if (counts[c] > 0) ctx.coarsest_rank[c] /= counts[c];
    }
  }

  // Portfolio: every start runs independently, folded in start order,
  // so the result does not depend on which worker runs what and when.
  // A private pool never needs more workers than there are starts.
  core::ThreadPool* pool = options.pool;
  std::optional<core::ThreadPool> own_pool;
  const int workers = std::min(options.threads, options.num_starts);
  if (pool == nullptr && workers > 1) {
    own_pool.emplace(workers);
    pool = &*own_pool;
  }

  Score best_score;
  bool have_best = false;
  std::atomic<bool> stop{false};  // raised only when the fold unwinds
  core::ordered_fold(
      pool, static_cast<std::size_t>(options.num_starts), stop,
      [&ctx](std::size_t s) { return run_start(ctx, static_cast<int>(s)); },
      [&](std::size_t s, StartOutcome out) {
        ++result.starts_run;
        starts_counter.add();
        result.evaluations += out.evaluations;
        evaluations_counter.add(out.evaluations);
        result.gated += out.gated;
        gated_counter.add(out.gated);
        result.cancelled = result.cancelled || out.cancelled;
        sort_frontier(out.points);
        for (FrontierPoint& p : out.points) {
          fold_point(result.frontier, std::move(p));
        }
        if (out.valid && (!have_best || out.best.better_than(best_score))) {
          have_best = true;
          best_score = out.best;
          result.members = std::move(out.members);
          result.search = std::move(out.search);
        }
        for (std::string& line : out.log) {
          result.log.push_back("start " + std::to_string(s) + ": " +
                               std::move(line));
        }
      });

  CHOP_REQUIRE(have_best, "no valid cut could be generated");
  sort_frontier(result.frontier);
  frontier_counter.add(result.frontier.size());

  result.log.push_back("final: " + best_score.describe() + ", frontier " +
                       std::to_string(result.frontier.size()) + " points");
  span.arg("starts", result.starts_run);
  span.arg("evaluations", result.evaluations);
  span.arg("frontier", result.frontier.size());
  return result;
}

}  // namespace chop::gen
