// Focused tests for the designer guideline output (§3.1's bullet-list
// feedback) and remaining session facade edge cases.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "chip/mosis_packages.hpp"
#include "core/session.hpp"
#include "dfg/benchmarks.hpp"
#include "library/experiment_library.hpp"

namespace chop::core {
namespace {

const lib::ComponentLibrary& library() {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  return lib;
}

ChopSession two_chip_session() {
  static const dfg::BenchmarkGraph ar = dfg::ar_lattice_filter();
  Partitioning pt(ar.graph, {{"left", chip::mosis_package_84()},
                             {"right", chip::mosis_package_84()}});
  const auto cuts = dfg::ar_two_way_cut(ar);
  pt.add_partition("front_half", cuts[0], 0);
  pt.add_partition("back_half", cuts[1], 1);
  ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {30000.0, 30000.0};
  return ChopSession(library(), std::move(pt), config);
}

TEST(Guideline, NamesPartitionsAndChips) {
  ChopSession session = two_chip_session();
  session.predict_partitions();
  const SearchResult r = session.search({});
  ASSERT_FALSE(r.designs.empty());
  const std::string g = session.guideline(r.designs.front());
  EXPECT_NE(g.find("front_half"), std::string::npos);
  EXPECT_NE(g.find("back_half"), std::string::npos);
  EXPECT_NE(g.find("(chip left)"), std::string::npos);
  EXPECT_NE(g.find("(chip right)"), std::string::npos);
}

TEST(Guideline, ReportsEverySection31Item) {
  // The §3.1 example lists: design style + stage count, module library,
  // allocation, register bits, mux count — all must appear per partition.
  ChopSession session = two_chip_session();
  session.predict_partitions();
  const SearchResult r = session.search({});
  ASSERT_FALSE(r.designs.empty());
  const std::string g = session.guideline(r.designs.front());
  for (const char* needle :
       {"design style with", "stages", "module library of", "add units",
        "mul units", "bits of registers for the data path",
        "1-bit 2-to-1 multiplexers", "predicted area"}) {
    EXPECT_NE(g.find(needle), std::string::npos) << "missing: " << needle;
  }
}

TEST(Guideline, TransferModulesIncludeBufferAndPla) {
  // "Similar predictions are also output for each data transfer module."
  ChopSession session = two_chip_session();
  session.predict_partitions();
  const SearchResult r = session.search({});
  ASSERT_FALSE(r.designs.empty());
  const std::string g = session.guideline(r.designs.front());
  EXPECT_NE(g.find("pins, X="), std::string::npos);
  EXPECT_NE(g.find("buffer="), std::string::npos);
  EXPECT_NE(g.find("PLA "), std::string::npos);
}

TEST(Guideline, RejectsForeignDesign) {
  ChopSession session = two_chip_session();
  session.predict_partitions();
  GlobalDesign bogus;
  bogus.choice = {0, 0, 0};  // three partitions: wrong arity
  EXPECT_THROW(session.guideline(bogus), Error);
  GlobalDesign out_of_range;
  out_of_range.choice = {999999, 0};
  EXPECT_THROW(session.guideline(out_of_range), Error);
}

TEST(Guideline, EveryNonInferiorDesignRenders) {
  ChopSession session = two_chip_session();
  // Looser budgets admit more designs.
  session.apply(EvalDelta::set_constraints({60000.0, 60000.0}));
  session.predict_partitions();
  SearchOptions options;
  options.heuristic = Heuristic::Enumeration;
  const SearchResult r = session.search(options);
  for (const GlobalDesign& d : r.designs) {
    EXPECT_FALSE(session.guideline(d).empty());
  }
}

TEST(Guideline, KeepAllDesignRendersFromRawLists) {
  // A prune=false search indexes BAD's raw lists, not the eligible ones.
  ChopSession session = two_chip_session();
  session.predict_partitions();
  SearchOptions options;
  options.prune = false;
  const SearchResult r = session.search(options);
  ASSERT_FALSE(r.designs.empty());
  const auto& raw = session.predictions().raw;
  for (const GlobalDesign& d : r.designs) {
    const std::string g = session.guideline(d);
    for (std::size_t p = 0; p < raw.size(); ++p) {
      const bad::DesignPrediction& sel = raw[p][d.choice[p]];
      std::ostringstream area;
      area << "predicted area " << sel.total_area << " mil^2.";
      EXPECT_NE(g.find("module library of " + sel.module_set_label + ","),
                std::string::npos);
      EXPECT_NE(g.find(area.str()), std::string::npos) << area.str();
    }
  }
}

TEST(Session, MutatePartitioningInvalidatesPredictions) {
  ChopSession session = two_chip_session();
  session.predict_partitions();
  session.apply(EvalDelta::move_partition_to_chip(1, 0));
  EXPECT_THROW(session.search({}), Error);
  session.predict_partitions();
  EXPECT_NO_THROW(session.search({}));
}

TEST(Session, ConstMutatorsDoNotInvalidate) {
  ChopSession session = two_chip_session();
  session.predict_partitions();
  // Read-only access keeps stored predictions usable.
  (void)session.partitioning().partitions().size();
  (void)session.transfer_tasks();
  EXPECT_NO_THROW(session.search({}));
}

}  // namespace
}  // namespace chop::core
