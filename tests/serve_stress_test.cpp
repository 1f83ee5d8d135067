// Concurrency stress for chop_serve, run under TSan in CI: M client
// threads hammer one ChopServer with N jobs each (two distinct projects),
// and every result must be byte-identical to a direct single-process
// ChopSession run. A second test mixes concurrent submits with concurrent
// cancels and an eventual drain — nothing may crash, deadlock, or leave a
// job non-terminal.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "testing/scenario.hpp"

namespace chop {
namespace {

io::Project stress_project(std::uint64_t seed) {
  testing::ScenarioKnobs knobs;
  knobs.seed = seed;
  knobs.normalize();
  return testing::build_scenario(knobs);
}

std::string direct_render(const io::Project& project,
                          const serve::JobOptions& job) {
  core::ChopSession session = project.make_session();
  session.predict_partitions();
  core::SearchOptions search;
  search.heuristic = job.heuristic;
  search.threads = job.threads;
  search.prune = !job.keep_all;
  search.bound_pruning = job.bound_pruning && !job.keep_all;
  search.max_trials = job.max_trials;
  return serve::render_search_result(session.search(search)).dump();
}

TEST(ServeStress, ConcurrentClientsGetByteIdenticalResults) {
  constexpr int kClients = 8;
  constexpr int kJobsPerClient = 4;

  const io::Project projects[2] = {stress_project(7), stress_project(21)};
  serve::JobOptions job;
  job.heuristic = core::Heuristic::Enumeration;
  const std::string expected[2] = {direct_render(projects[0], job),
                                   direct_render(projects[1], job)};

  serve::ServerOptions options;
  options.workers = 4;
  options.queue_capacity = kClients * kJobsPerClient;
  serve::ChopServer server(options);

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int j = 0; j < kJobsPerClient; ++j) {
        const int which = (c + j) % 2;
        const serve::SubmitOutcome out = server.submit(projects[which], job);
        if (out.status != serve::SubmitStatus::Accepted) {
          failures.fetch_add(1);
          continue;
        }
        const serve::JobView view =
            server.view(out.id, /*wait_terminal=*/true);
        if (view.state != serve::JobState::Done) {
          failures.fetch_add(1);
          continue;
        }
        if (view.result_json != expected[which]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed,
            static_cast<std::uint64_t>(kClients * kJobsPerClient));
}

TEST(ServeStress, ConcurrentSubmitCancelShutdownNeverWedges) {
  const io::Project project = stress_project(11);
  serve::ServerOptions options;
  options.workers = 2;
  options.queue_capacity = 16;
  serve::ChopServer server(options);

  constexpr int kJobs = 32;
  std::mutex ids_mu;
  std::vector<std::string> ids;        // accepted, guarded by ids_mu
  std::atomic<int> submitted_total{0};
  std::atomic<bool> submitters_done{false};

  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (;;) {
        const int slot = submitted_total.fetch_add(1);
        if (slot >= kJobs) return;
        serve::JobOptions job;
        job.priority = slot % 3;
        const serve::SubmitOutcome out = server.submit(project, job);
        if (out.status == serve::SubmitStatus::Accepted) {
          std::lock_guard<std::mutex> lock(ids_mu);
          ids.push_back(out.id);
        }
      }
    });
  }
  // Cancel racers: chase whatever ids have been accepted so far.
  std::vector<std::thread> cancellers;
  for (int t = 0; t < 2; ++t) {
    cancellers.emplace_back([&, t] {
      std::size_t seen = 0;
      while (!submitters_done.load() || seen > 0) {
        std::vector<std::string> snapshot;
        {
          std::lock_guard<std::mutex> lock(ids_mu);
          snapshot = ids;
        }
        seen = 0;
        for (std::size_t i = t; i < snapshot.size(); i += 2) {
          server.cancel(snapshot[i]);
          ++seen;
        }
        if (submitters_done.load()) break;
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  submitters_done.store(true);
  for (std::thread& t : cancellers) t.join();

  server.shutdown(true);
  std::vector<std::string> accepted;
  {
    std::lock_guard<std::mutex> lock(ids_mu);
    accepted = ids;
  }
  for (const std::string& id : accepted) {
    const serve::JobView view = server.view(id);
    ASSERT_TRUE(view.found) << id;
    EXPECT_TRUE(is_terminal(view.state)) << id;
  }
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

}  // namespace
}  // namespace chop
