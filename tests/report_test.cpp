// Tests for the Markdown report renderer.
#include "io/report.hpp"

#include <gtest/gtest.h>

#include "chip/mosis_packages.hpp"
#include "dfg/benchmarks.hpp"
#include "library/experiment_library.hpp"

namespace chop::io {
namespace {

const lib::ComponentLibrary& library() {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  return lib;
}

core::ChopSession ar_session(bool with_memory = false) {
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  static const dfg::BenchmarkGraph arm = dfg::ar_lattice_filter_with_memory();
  const dfg::BenchmarkGraph& bg = with_memory ? arm : ar;
  chip::MemorySubsystem memory;
  if (with_memory) {
    memory.blocks.push_back({"coeff", 16, 64, 1, 300.0, 4000.0, 3});
    memory.blocks.push_back({"spill", 16, 256, 1, 300.0, 6000.0, 3});
    memory.chip_of_block = {0, chip::kOffTheShelfChip};
  }
  core::Partitioning pt(bg.graph,
                        {{"c0", chip::mosis_package_84()},
                         {"c1", chip::mosis_package_84()}},
                        memory);
  pt.add_partition("P1", bg.layer_span(0, 3), 0);
  pt.add_partition("P2", bg.layer_span(4, bg.layers.size() - 1), 1);
  core::ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, with_memory ? 60000.0 : 30000.0};
  return core::ChopSession(library(), std::move(pt), config);
}

TEST(Report, ContainsAllSections) {
  core::ChopSession session = ar_session();
  const core::PredictionStats stats = session.predict_partitions();
  const core::SearchResult result = session.search({});
  const std::string report = render_report_string(session, stats, result);
  EXPECT_NE(report.find("# CHOP partitioning report"), std::string::npos);
  EXPECT_NE(report.find("## Partitioning"), std::string::npos);
  EXPECT_NE(report.find("## Prediction and search statistics"),
            std::string::npos);
  EXPECT_NE(report.find("## Feasible designs"), std::string::npos);
  EXPECT_NE(report.find("guideline"), std::string::npos);
  EXPECT_NE(report.find("| P1 | c0 |"), std::string::npos);
  EXPECT_NE(report.find("Per-chip budgets"), std::string::npos);
}

TEST(Report, MemoryTableRendered) {
  core::ChopSession session = ar_session(true);
  const core::PredictionStats stats = session.predict_partitions();
  const core::SearchResult result = session.search({});
  const std::string report = render_report_string(session, stats, result);
  EXPECT_NE(report.find("| Memory block |"), std::string::npos);
  EXPECT_NE(report.find("off-the-shelf chip"), std::string::npos);
}

TEST(Report, InfeasibleSessionSaysSo) {
  core::ChopSession session = ar_session();
  session.apply(core::EvalDelta::set_constraints({100.0, 100.0}));
  const core::PredictionStats stats = session.predict_partitions();
  const core::SearchResult result = session.search({});
  const std::string report = render_report_string(session, stats, result);
  EXPECT_NE(report.find("No feasible partitioning"), std::string::npos);
  EXPECT_EQ(report.find("guideline"), std::string::npos);
}

TEST(Report, OptionsControlContent) {
  core::ChopSession session = ar_session();
  const core::PredictionStats stats = session.predict_partitions();
  const core::SearchResult result = session.search({});
  ReportOptions options;
  options.title = "Custom Title";
  options.include_guidelines = false;
  options.include_transfers = false;
  const std::string report =
      render_report_string(session, stats, result, options);
  EXPECT_NE(report.find("# Custom Title"), std::string::npos);
  EXPECT_EQ(report.find("module library of"), std::string::npos);
  EXPECT_EQ(report.find("| Transfer |"), std::string::npos);
}

TEST(Report, MaxDesignsLimitsDetailSections) {
  core::ChopSession session = ar_session();
  const core::PredictionStats stats = session.predict_partitions();
  const core::SearchResult result = session.search({});
  ReportOptions options;
  options.max_designs = 0;
  const std::string report =
      render_report_string(session, stats, result, options);
  EXPECT_EQ(report.find("— guideline"), std::string::npos);
  // The summary table still lists every design.
  EXPECT_NE(report.find("## Feasible designs"), std::string::npos);
}

}  // namespace
}  // namespace chop::io
