// runtime::AnalysisCache: one build per key, distinct entries per scale
// and policy, the lookup arithmetic ServiceCounters reports, failed
// constructions, and concurrent lookups of one key.
#include "runtime/analysis_cache.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

namespace tictac::runtime {
namespace {

ExperimentSpec SmallSpec(const std::string& policy = "tac") {
  ExperimentSpec spec;
  spec.model = "AlexNet v2";
  spec.cluster.workers = 2;
  spec.cluster.ps = 1;
  spec.cluster.training = true;
  spec.policy = policy;
  return spec;
}

TEST(AnalysisCache, SameKeyBuildsOnce) {
  AnalysisCache cache;
  const Runner& first = cache.runner(SmallSpec());
  const Runner& second = cache.runner(SmallSpec());
  EXPECT_EQ(&first, &second);
  // The policy is not part of a Runner's key.
  EXPECT_EQ(&cache.runner(SmallSpec("tic")), &first);
  const AnalysisCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.runner_builds, 1u);
  EXPECT_EQ(counters.runner_hits, 2u);
  EXPECT_EQ(cache.runners(), 1u);
}

TEST(AnalysisCache, ScaleAndPolicyKeySeparateEntries) {
  AnalysisCache cache;
  const Runner& whole = cache.runner(SmallSpec(), 1.0);
  const Runner& half = cache.runner(SmallSpec(), 0.5);
  EXPECT_NE(&whole, &half);
  EXPECT_EQ(half.config().platform.bandwidth_bps,
            whole.config().platform.bandwidth_bps * 0.5);
  EXPECT_EQ(cache.runners(), 2u);

  const AnalysisCache::ScheduleEntry& tac = cache.schedule(SmallSpec("tac"));
  const AnalysisCache::ScheduleEntry& baseline =
      cache.schedule(SmallSpec("baseline"));
  const AnalysisCache::ScheduleEntry& tac_half =
      cache.schedule(SmallSpec("tac"), 0.5);
  EXPECT_NE(&tac, &baseline);
  EXPECT_NE(&tac, &tac_half);
  EXPECT_TRUE(tac.covers_all_recvs);
  EXPECT_FALSE(baseline.covers_all_recvs);
  const core::Graph& graph = whole.worker_graph();
  EXPECT_EQ(tac.schedule.RecvOrder(graph),
            whole.MakeSchedule("tac").RecvOrder(graph));
  EXPECT_EQ(tac_half.schedule.RecvOrder(graph),
            half.MakeSchedule("tac").RecvOrder(graph));
  const AnalysisCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.runner_builds, 2u);
  EXPECT_EQ(counters.schedule_builds, 3u);
  EXPECT_EQ(counters.schedule_hits, 0u);
}

TEST(AnalysisCache, ScheduleMissCostsExactlyOneRunnerLookup) {
  AnalysisCache cache;
  cache.schedule(SmallSpec());
  AnalysisCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.runner_builds, 1u);
  EXPECT_EQ(counters.runner_hits, 0u);
  EXPECT_EQ(counters.schedule_builds, 1u);

  // A second policy on the same runner: one more runner lookup, a hit.
  cache.schedule(SmallSpec("tic"));
  counters = cache.counters();
  EXPECT_EQ(counters.runner_builds, 1u);
  EXPECT_EQ(counters.runner_hits, 1u);
  EXPECT_EQ(counters.schedule_builds, 2u);

  // A schedule hit touches no runner.
  cache.schedule(SmallSpec());
  counters = cache.counters();
  EXPECT_EQ(counters.runner_hits, 1u);
  EXPECT_EQ(counters.schedule_hits, 1u);
}

TEST(AnalysisCache, FailedConstructionLeavesNoEntryAndRetries) {
  AnalysisCache cache;
  ExperimentSpec unknown = SmallSpec();
  unknown.model = "No Such Model";
  EXPECT_THROW(cache.runner(unknown), std::out_of_range);
  // A dead entry would be returned (or crash) here instead of building
  // again.
  EXPECT_THROW(cache.runner(unknown), std::out_of_range);
  EXPECT_EQ(cache.runners(), 0u);

  EXPECT_THROW(cache.schedule(SmallSpec("no-such-policy")),
               std::invalid_argument);
  EXPECT_THROW(cache.schedule(SmallSpec("no-such-policy")),
               std::invalid_argument);
  const AnalysisCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.runner_builds, 1u);  // the policy failed, not the runner
  EXPECT_EQ(counters.runner_hits, 1u);
  EXPECT_EQ(counters.schedule_builds, 0u);
  EXPECT_EQ(counters.schedule_hits, 0u);
  EXPECT_EQ(cache.runners(), 1u);
  EXPECT_TRUE(cache.schedule(SmallSpec()).covers_all_recvs);
}

TEST(AnalysisCache, ConcurrentLookupsOfOneKeyBuildOnce) {
  constexpr int kThreads = 8;
  AnalysisCache cache;
  std::vector<const Runner*> runners(kThreads);
  std::vector<const AnalysisCache::ScheduleEntry*> schedules(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      schedules[static_cast<std::size_t>(t)] = &cache.schedule(SmallSpec());
      runners[static_cast<std::size_t>(t)] = &cache.runner(SmallSpec());
    });
  }
  for (std::thread& thread : pool) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(runners[static_cast<std::size_t>(t)], runners[0]);
    EXPECT_EQ(schedules[static_cast<std::size_t>(t)], schedules[0]);
  }
  const AnalysisCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.runner_builds, 1u);
  // kThreads direct lookups plus the one the schedule miss made.
  EXPECT_EQ(counters.runner_hits, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(counters.schedule_builds, 1u);
  EXPECT_EQ(counters.schedule_hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(cache.runners(), 1u);
}

}  // namespace
}  // namespace tictac::runtime
