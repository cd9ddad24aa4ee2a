// The benchmark's own tests: the trace check rejects corrupted results,
// and on shrunken inputs every workload's traced decomposition reproduces
// its untraced result bit for bit and does the work the library reports.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "core/policy.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "runtime/lowering.h"
#include "runtime/sharding.h"
#include "runtime/spec.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = tictac::core;
namespace models = tictac::models;
namespace runtime = tictac::runtime;
namespace sim = tictac::sim;

// One simulated iteration of AlexNet v2 on 2 workers and 1 PS under TIC.
struct Simulated {
  runtime::Lowering lowering;
  sim::SimResult run;
};

Simulated SimulateAlexNet() {
  runtime::ClusterSpec spec;
  spec.workers = 2;
  spec.ps = 1;
  spec.training = true;
  const runtime::ClusterConfig config = spec.Build();
  const models::ModelInfo& model = models::FindModel("AlexNet v2");
  const core::Graph graph = models::BuildWorkerGraph(model, {.training = true});
  const core::PropertyIndex index(graph);
  const core::Schedule schedule = core::TicPolicy().Compute(
      index, core::AnalyticalTimeOracle(config.platform));
  Simulated simulated;
  simulated.lowering = runtime::LowerCluster(
      graph, schedule, runtime::ShardParams(models::ParamSizes(model), 1), config);
  simulated.run = simulated.lowering.BuildSim().Run(config.sim, /*seed=*/3);
  return simulated;
}

TEST(CheckTraceTest, AcceptsASimulatedIteration) {
  const Simulated simulated = SimulateAlexNet();
  const TraceCheck check = CheckTrace(simulated.lowering.tasks, simulated.run);
  EXPECT_TRUE(check.ok()) << check.messages.front();
}

TEST(CheckTraceTest, RejectsTwoTasksOverlappingOnOneResource) {
  Simulated simulated = SimulateAlexNet();
  const auto& tasks = simulated.lowering.tasks;
  // The two earliest tasks with positive duration on one resource.
  std::map<int, std::size_t> first_on;
  std::size_t a = tasks.size();
  std::size_t b = tasks.size();
  for (std::size_t t = 0; t < tasks.size() && b == tasks.size(); ++t) {
    if (simulated.run.end[t] <= simulated.run.start[t]) continue;
    const auto [it, inserted] = first_on.emplace(tasks[t].resource, t);
    if (!inserted) {
      a = it->second;
      b = t;
    }
  }
  ASSERT_LT(b, tasks.size());
  const double length = simulated.run.end[b] - simulated.run.start[b];
  // Slide b back to start halfway through a, keeping its length.
  const double start = (simulated.run.start[a] + simulated.run.end[a]) / 2.0;
  simulated.run.start[b] = start;
  simulated.run.end[b] = start + length;
  const TraceCheck check = CheckTrace(tasks, simulated.run);
  EXPECT_FALSE(check.ok());
  ASSERT_FALSE(check.messages.empty());
  EXPECT_NE(check.messages.front().find("resource"), std::string::npos)
      << check.messages.front();
}

TEST(CheckTraceTest, RejectsATaskStartingBeforeItsPredEnds) {
  Simulated simulated = SimulateAlexNet();
  const auto& tasks = simulated.lowering.tasks;
  std::size_t t = 0;
  while (t < tasks.size() &&
         (tasks[t].preds.empty() ||
          simulated.run.end[static_cast<std::size_t>(tasks[t].preds.front())] <= 0.0)) {
    ++t;
  }
  ASSERT_LT(t, tasks.size());
  const auto pred = static_cast<std::size_t>(tasks[t].preds.front());
  const double length = simulated.run.end[t] - simulated.run.start[t];
  simulated.run.start[t] = std::nextafter(simulated.run.end[pred], 0.0);
  simulated.run.end[t] = simulated.run.start[t] + length;
  const TraceCheck check = CheckTrace(tasks, simulated.run);
  EXPECT_FALSE(check.ok());
  bool named_pred = false;
  for (const std::string& message : check.messages) {
    named_pred |= message.find("before pred") != std::string::npos;
  }
  EXPECT_TRUE(named_pred);
}

TEST(CheckTraceTest, RejectsAResultOfTheWrongSize) {
  Simulated simulated = SimulateAlexNet();
  simulated.run.end.pop_back();
  EXPECT_FALSE(CheckTrace(simulated.lowering.tasks, simulated.run).ok());
}

TEST(TracerTest, SelfTimesPartitionTheTracedWall) {
  Tracer tracer;
  {
    Tracer::Scope outer(tracer, "outer");
    Tracer::Scope inner(tracer, "inner");
  }
  tracer.Stop();
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  double total = tracer.Unattributed();
  for (const auto& [name, self] : tracer.SelfTimes()) {
    EXPECT_GE(self, 0.0) << name;
    total += self;
  }
  EXPECT_NEAR(total, tracer.Wall(), 1e-12);
}

class WorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadTest, TracedDecompositionReproducesTheUntracedRun) {
  const auto workload = MakeWorkload(GetParam(), /*seed=*/5, Size::kSmall);
  workload->Setup();
  const std::vector<double> parts = workload->Run();
  EXPECT_FALSE(parts.empty());
  for (const double part : parts) EXPECT_GT(part, 0.0);
  const Outcome untraced = workload->Finish();
  EXPECT_EQ(untraced.failed, 0u)
      << (untraced.failures.empty() ? "" : untraced.failures.front());
  EXPECT_GT(untraced.attempted, 0u);
  ASSERT_FALSE(untraced.output.empty());

  Tracer tracer;
  Counters counters;
  const Outcome traced = workload->Traced(tracer, counters);
  tracer.Stop();
  EXPECT_EQ(traced.failed, 0u)
      << (traced.failures.empty() ? "" : traced.failures.front());
  EXPECT_EQ(traced.attempted, untraced.attempted);
  EXPECT_EQ(traced.output, untraced.output);
  ASSERT_EQ(traced.simulated.size(), untraced.simulated.size());
  for (std::size_t i = 0; i < traced.simulated.size(); ++i) {
    EXPECT_EQ(traced.simulated[i].name, untraced.simulated[i].name);
    EXPECT_EQ(traced.simulated[i].value, untraced.simulated[i].value)
        << traced.simulated[i].name;
  }
  EXPECT_FALSE(tracer.spans().empty());
  for (const auto& [name, value] : workload->LibraryWork()) {
    EXPECT_EQ(counters[name], value) << name;
  }
}

TEST_P(WorkloadTest, SeedChangesTheInputs) {
  const auto run = [this](std::uint64_t seed) {
    const auto workload = MakeWorkload(GetParam(), seed, Size::kSmall);
    workload->Setup();
    workload->Run();
    return workload->Finish().output;
  };
  const std::string first = run(5);
  EXPECT_EQ(run(5), first);
  // The schedules do not depend on the seed; every spec line names it.
  EXPECT_NE(run(6), first);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadTest,
                         ::testing::ValuesIn(WorkloadNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(WorkloadNamesTest, UnknownNameIsRejected) {
  EXPECT_THROW(MakeWorkload("nope", 1, Size::kSmall), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
