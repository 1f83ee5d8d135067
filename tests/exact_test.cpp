// Tests for src/exact/: the implicit-enumeration certification solver and
// its standalone checker. The Certify suite is the paper-sweep contract
// ISSUE 9 asks for — every Fig-7/Fig-8 experiment configuration whose
// eligible space fits the cap is proven optimal with a checker-verified
// certificate — and the rest of the file drives the adversarial side:
// tampered certificates must be rejected, and a corrupted heuristic bound
// slack must leave the exact frontier untouched.
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "chip/mosis_packages.hpp"
#include "core/eval/bound_state.hpp"
#include "core/eval/candidate_evaluator.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "exact/checker.hpp"
#include "exact/solver.hpp"
#include "library/experiment_library.hpp"
#include "util/numbered.hpp"

namespace chop {
namespace {

/// The bench/common.hpp experiment recipe, restated locally: tests do not
/// include bench/ headers.
enum class Experiment { One, Two };

const lib::ComponentLibrary& experiment_library() {
  static const lib::ComponentLibrary library = lib::dac91_experiment_library();
  return library;
}

core::ChopSession make_experiment_session(Experiment exp, int nparts,
                                          chip::ChipPackage pkg) {
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  std::vector<chip::ChipInstance> chips;
  for (int c = 0; c < nparts; ++c) {
    chips.push_back({numbered("chip", c), pkg});
  }
  core::Partitioning pt(ar.graph, std::move(chips));
  const auto cuts =
      nparts == 1
          ? std::vector<std::vector<dfg::NodeId>>{ar.all_operations()}
          : (nparts == 2 ? dfg::ar_two_way_cut(ar) : dfg::ar_three_way_cut(ar));
  for (int p = 0; p < nparts; ++p) {
    pt.add_partition(numbered("P", p + 1),
                     cuts[static_cast<std::size_t>(p)], p);
  }
  core::ChopConfig config;
  if (exp == Experiment::One) {
    config.style.clocking = bad::ClockingStyle::SingleCycle;
    config.clocks = {300.0, 10, 1};
    config.constraints = {30000.0, 30000.0};
  } else {
    config.style.clocking = bad::ClockingStyle::MultiCycle;
    config.clocks = {300.0, 1, 1};
    config.constraints = {20000.0, 20000.0};
  }
  return core::ChopSession(experiment_library(), std::move(pt), config);
}

core::SearchResult run_enumeration(const core::ChopSession& session) {
  core::CandidateEvaluator evaluator(0);
  core::SearchOptions opt;
  opt.heuristic = core::Heuristic::Enumeration;
  opt.evaluator = &evaluator;
  return session.search(opt);
}

/// Solves the session's eligible space exactly and demands the full
/// contract: frontier == heuristic designs point for point, coverage
/// equation, checker-accepted certificate. Returns the exact result for
/// further inspection.
exact::ExactResult certify_session(core::ChopSession& session) {
  session.predict_partitions();
  const core::EvalContext ctx = session.make_eval_context();
  const auto& lists = session.predictions().eligible;
  const exact::ExactResult proven = exact::solve(ctx, lists, {});
  EXPECT_FALSE(proven.truncated);

  const core::SearchResult heuristic = run_enumeration(session);
  EXPECT_EQ(proven.frontier.size(), heuristic.designs.size());
  for (std::size_t i = 0;
       i < std::min(proven.frontier.size(), heuristic.designs.size()); ++i) {
    EXPECT_EQ(proven.frontier[i].choice, heuristic.designs[i].choice)
        << "frontier point " << i;
    EXPECT_EQ(proven.frontier[i].ii_main,
              heuristic.designs[i].integration.ii_main);
    EXPECT_EQ(proven.frontier[i].delay_main,
              heuristic.designs[i].integration.system_delay_main);
  }

  std::size_t pruned_leaves = 0;
  for (const exact::BoundProof& p : proven.certificate.proofs) {
    pruned_leaves += p.leaves;
  }
  EXPECT_EQ(proven.visited + pruned_leaves, proven.space);

  const exact::CheckResult check =
      exact::verify_certificate(ctx, lists, proven.certificate);
  EXPECT_TRUE(check.ok) << check.detail;
  return proven;
}

// --- the paper sweeps ------------------------------------------------------

TEST(Certify, Fig7Experiment1Sweep) {
  // Figure 7's experiment-1 configurations: 1..3 chips, both MOSIS
  // packages. Certification runs on the level-1-pruned eligible lists —
  // the same lists the default search walks.
  std::size_t nontrivial = 0;
  for (int pkg_index = 1; pkg_index <= 2; ++pkg_index) {
    for (int nparts = 1; nparts <= 3; ++nparts) {
      SCOPED_TRACE("pkg " + std::to_string(pkg_index) + " nparts " +
                   std::to_string(nparts));
      core::ChopSession session = make_experiment_session(
          Experiment::One, nparts,
          pkg_index == 1 ? chip::mosis_package_64() : chip::mosis_package_84());
      const exact::ExactResult proven = certify_session(session);
      if (proven.space > 1) ++nontrivial;
    }
  }
  EXPECT_GE(nontrivial, 4u);
}

TEST(Certify, Fig8Experiment2Sweep) {
  std::size_t nontrivial = 0;
  for (int pkg_index = 1; pkg_index <= 2; ++pkg_index) {
    for (int nparts = 1; nparts <= 3; ++nparts) {
      SCOPED_TRACE("pkg " + std::to_string(pkg_index) + " nparts " +
                   std::to_string(nparts));
      core::ChopSession session = make_experiment_session(
          Experiment::Two, nparts,
          pkg_index == 1 ? chip::mosis_package_64() : chip::mosis_package_84());
      const exact::ExactResult proven = certify_session(session);
      if (proven.space > 1) ++nontrivial;
    }
  }
  EXPECT_GE(nontrivial, 4u);
}

// --- solver properties -----------------------------------------------------

TEST(Certify, DeterministicCertificateBytes) {
  core::ChopSession session =
      make_experiment_session(Experiment::Two, 2, chip::mosis_package_84());
  session.predict_partitions();
  const core::EvalContext ctx = session.make_eval_context();
  const auto& lists = session.predictions().eligible;
  const exact::ExactResult a = exact::solve(ctx, lists, {});
  const exact::ExactResult b = exact::solve(ctx, lists, {});
  std::ostringstream text_a, text_b;
  exact::write_certificate(a.certificate, text_a);
  exact::write_certificate(b.certificate, text_b);
  EXPECT_EQ(text_a.str(), text_b.str());
  EXPECT_FALSE(text_a.str().empty());
}

TEST(Certify, TruncatesOverTheLeafCap) {
  core::ChopSession session =
      make_experiment_session(Experiment::Two, 2, chip::mosis_package_84());
  session.predict_partitions();
  const core::EvalContext ctx = session.make_eval_context();
  const auto& lists = session.predictions().eligible;
  exact::ExactOptions options;
  options.max_leaves = 1;
  const exact::ExactResult truncated = exact::solve(ctx, lists, options);
  EXPECT_TRUE(truncated.truncated);
  EXPECT_TRUE(truncated.frontier.empty());
  EXPECT_TRUE(truncated.certificate.proofs.empty());
  EXPECT_EQ(truncated.visited, 0u);
}

TEST(Certify, ImmuneToCorruptedHeuristicSlack) {
  // The exact solver never reads the branch-and-bound slack, so the same
  // inadmissible factor chop_fuzz injects must leave its frontier
  // byte-identical — that independence is the whole point of the oracle.
  core::ChopSession session =
      make_experiment_session(Experiment::Two, 2, chip::mosis_package_84());
  session.predict_partitions();
  const core::EvalContext ctx = session.make_eval_context();
  const auto& lists = session.predictions().eligible;
  const exact::ExactResult clean = exact::solve(ctx, lists, {});
  core::set_bound_slack_for_testing(1.25);
  const exact::ExactResult corrupted_env = exact::solve(ctx, lists, {});
  core::set_bound_slack_for_testing(core::kBoundSlack);

  std::ostringstream clean_text, corrupted_text;
  exact::write_certificate(clean.certificate, clean_text);
  exact::write_certificate(corrupted_env.certificate, corrupted_text);
  EXPECT_EQ(clean_text.str(), corrupted_text.str());
  const exact::CheckResult check =
      exact::verify_certificate(ctx, lists, corrupted_env.certificate);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(Certify, EmptyFrontierWhenInfeasible) {
  // Impossible budgets: the certificate must prove that NO feasible
  // design exists (empty frontier, full coverage), not merely fail.
  core::ChopSession session =
      make_experiment_session(Experiment::Two, 2, chip::mosis_package_84());
  core::ChopConfig config = session.config();
  config.constraints.performance_ns = 1.0;
  config.constraints.delay_ns = 1.0;
  core::ChopSession tight(experiment_library(), session.partitioning(),
                          config);
  tight.predict_partitions();
  const core::EvalContext ctx = tight.make_eval_context();
  const auto& lists = tight.predictions().eligible;
  const exact::ExactResult proven = exact::solve(ctx, lists, {});
  EXPECT_FALSE(proven.truncated);
  EXPECT_TRUE(proven.frontier.empty());
  const exact::CheckResult check =
      exact::verify_certificate(ctx, lists, proven.certificate);
  EXPECT_TRUE(check.ok) << check.detail;
}

// --- the checker must reject tampering -------------------------------------

class CertifyTamper : public ::testing::Test {
 protected:
  void SetUp() override {
    session_.emplace(
        make_experiment_session(Experiment::Two, 2, chip::mosis_package_84()));
    session_->predict_partitions();
    ctx_.emplace(session_->make_eval_context());
    proven_ = exact::solve(*ctx_, lists(), {});
    ASSERT_FALSE(proven_.truncated);
    ASSERT_FALSE(proven_.frontier.empty());
    ASSERT_FALSE(proven_.certificate.proofs.empty());
    ASSERT_TRUE(exact::verify_certificate(*ctx_, lists(), proven_.certificate)
                    .ok);
  }

  const std::vector<std::vector<bad::DesignPrediction>>& lists() const {
    return session_->predictions().eligible;
  }

  std::string reject(const exact::Certificate& cert) {
    const exact::CheckResult check =
        exact::verify_certificate(*ctx_, lists(), cert);
    EXPECT_FALSE(check.ok);
    return check.detail;
  }

  std::optional<core::ChopSession> session_;
  std::optional<core::EvalContext> ctx_;
  exact::ExactResult proven_;
};

TEST_F(CertifyTamper, WrongFingerprint) {
  exact::Certificate cert = proven_.certificate;
  cert.context_fingerprint ^= 1;
  EXPECT_NE(reject(cert).find("fingerprint"), std::string::npos);
}

TEST_F(CertifyTamper, DroppedProofBreaksCoverage) {
  exact::Certificate cert = proven_.certificate;
  cert.proofs.pop_back();
  EXPECT_NE(reject(cert).find("coverage"), std::string::npos);
}

TEST_F(CertifyTamper, InflatedVisitedBreaksCoverage) {
  exact::Certificate cert = proven_.certificate;
  cert.visited += 1;
  EXPECT_NE(reject(cert).find("coverage"), std::string::npos);
}

TEST_F(CertifyTamper, CorruptedWitnessCoordinates) {
  exact::Certificate cert = proven_.certificate;
  cert.frontier.front().delay_main += 1;
  EXPECT_NE(reject(cert).find("replays"), std::string::npos);
}

TEST_F(CertifyTamper, DuplicatedRegionOverlaps) {
  exact::Certificate cert = proven_.certificate;
  // Keep the coverage equation satisfied so the overlap check itself has
  // to catch the duplicate.
  exact::BoundProof duplicate = cert.proofs.front();
  cert.proofs.push_back(duplicate);
  ASSERT_GE(cert.visited, duplicate.leaves);
  cert.visited -= duplicate.leaves;
  EXPECT_NE(reject(cert).find("overlap"), std::string::npos);
}

TEST_F(CertifyTamper, NonStaircaseFrontier) {
  exact::Certificate cert = proven_.certificate;
  cert.frontier.push_back(cert.frontier.front());
  EXPECT_FALSE(
      exact::verify_certificate(*ctx_, lists(), cert).ok);
}

}  // namespace
}  // namespace chop
