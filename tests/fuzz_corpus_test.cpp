// Replays the checked-in seed corpus under tests/data/fuzz/ through the
// full oracle battery. Each spec is a shrunk repro from a historical
// fault-injection run: small, structurally interesting (multi-chip,
// memory, degenerate depths), and green on healthy code. A regression
// that flips any oracle here comes with a ready-made minimal repro.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/search.hpp"
#include "core/session.hpp"
#include "exact/checker.hpp"
#include "exact/solver.hpp"
#include "io/spec_format.hpp"
#include "io/spec_writer.hpp"
#include "testing/oracles.hpp"

namespace chop::testing {
namespace {

class FuzzCorpus : public ::testing::TestWithParam<const char*> {};

std::string corpus_path(const char* name) {
  return std::string(CHOP_SOURCE_DIR) + "/tests/data/fuzz/" + name;
}

TEST_P(FuzzCorpus, ReplaysGreenThroughTheOracleBattery) {
  const io::Project project = io::parse_project_file(corpus_path(GetParam()));
  OracleLimits limits;
  const ScenarioReport report = run_oracles(project, limits);
  ASSERT_FALSE(report.skipped) << "corpus spec grew past the search cap";
  EXPECT_TRUE(report.ok()) << (report.failures.empty()
                                   ? std::string("?")
                                   : report.failures.front().oracle + ": " +
                                         report.failures.front().detail);
  EXPECT_GT(report.designs, 0u);
}

// Every corpus spec must certify: the heuristic enumeration frontier and
// the exact solver's proven non-inferior set agree point for point, and
// the emitted certificate replays through the standalone checker. This is
// the same agreement the exact_certification oracle enforces, asserted
// here directly so a divergence names the offending corpus file.
TEST_P(FuzzCorpus, HeuristicFrontierMatchesTheExactProof) {
  const io::Project project = io::parse_project_file(corpus_path(GetParam()));
  core::ChopSession session = project.make_session();
  session.predict_partitions();

  core::SearchOptions opt;
  opt.heuristic = core::Heuristic::Enumeration;
  const core::SearchResult heuristic = session.search(opt);

  const core::EvalContext ctx = session.make_eval_context();
  const auto& lists = session.predictions().eligible;
  const exact::ExactResult proven = exact::solve(ctx, lists, {});
  ASSERT_FALSE(proven.truncated);

  ASSERT_EQ(proven.frontier.size(), heuristic.designs.size());
  for (std::size_t i = 0; i < proven.frontier.size(); ++i) {
    EXPECT_EQ(proven.frontier[i].choice, heuristic.designs[i].choice)
        << "frontier point " << i;
  }

  const exact::CheckResult check =
      exact::verify_certificate(ctx, lists, proven.certificate);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST_P(FuzzCorpus, RoundTripsByteExactly) {
  const std::string path = corpus_path(GetParam());
  const io::Project project = io::parse_project_file(path);
  const std::string once = io::write_project_string(project);
  EXPECT_EQ(once, io::write_project_string(io::parse_project_string(once)));
}

INSTANTIATE_TEST_SUITE_P(
    Specs, FuzzCorpus,
    ::testing::Values("shrunk_1300445148949823415.chop",
                      "shrunk_16231458606770151736.chop",
                      "shrunk_17042461277914890279.chop",
                      "shrunk_17510280810347979414.chop",
                      "shrunk_6945414144905019519.chop",
                      // Promoted from injected-slack runs; together they
                      // cover all four incremental-delta kinds.
                      "shrunk_10640280093745372453.chop",
                      "shrunk_13980639709301214031.chop",
                      "shrunk_17591122925923343966.chop",
                      "shrunk_1866356336161053402.chop",
                      "shrunk_2203954451272897496.chop"));

}  // namespace
}  // namespace chop::testing
