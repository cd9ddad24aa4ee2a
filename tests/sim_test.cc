#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace tictac::sim {
namespace {

Task MakeTask(double duration, int resource,
              std::vector<TaskId> preds = {}) {
  Task t;
  t.duration = duration;
  t.resource = resource;
  t.preds = std::move(preds);
  return t;
}

TEST(Engine, SingleResourceSerializes) {
  std::vector<Task> tasks{MakeTask(1.0, 0), MakeTask(2.0, 0),
                          MakeTask(3.0, 0)};
  TaskGraphSim sim(std::move(tasks), 1);
  sim.Validate();
  const SimResult r = sim.Run({}, 1);
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
}

TEST(Engine, IndependentResourcesRunInParallel) {
  std::vector<Task> tasks{MakeTask(5.0, 0), MakeTask(3.0, 1)};
  TaskGraphSim sim(std::move(tasks), 2);
  const SimResult r = sim.Run({}, 1);
  EXPECT_DOUBLE_EQ(r.makespan, 5.0);
  EXPECT_DOUBLE_EQ(r.start[1], 0.0);
}

TEST(Engine, DependencyChainSerializesAcrossResources) {
  std::vector<Task> tasks{MakeTask(1.0, 0), MakeTask(2.0, 1, {0}),
                          MakeTask(3.0, 0, {1})};
  TaskGraphSim sim(std::move(tasks), 2);
  const SimResult r = sim.Run({}, 1);
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
  EXPECT_DOUBLE_EQ(r.start[1], 1.0);
  EXPECT_DOUBLE_EQ(r.start[2], 3.0);
}

// Figure 1: recv1, recv2 on the NIC (resource 1); op1, op2 on the
// processor (resource 0). op1 needs recv1; op2 needs op1 and recv2.
TEST(Engine, Fig1GoodOrderBeatsBadOrder) {
  // Good order (recv1 first): makespan 3. Bad order (recv2 first): 4.
  for (const bool good : {true, false}) {
    std::vector<Task> tasks;
    Task recv1 = MakeTask(1.0, 1);
    recv1.priority = good ? 0 : 1;
    Task recv2 = MakeTask(1.0, 1);
    recv2.priority = good ? 1 : 0;
    tasks.push_back(recv1);                    // 0
    tasks.push_back(recv2);                    // 1
    tasks.push_back(MakeTask(1.0, 0, {0}));    // 2: op1 <- recv1
    tasks.push_back(MakeTask(1.0, 0, {2, 1})); // 3: op2 <- op1, recv2
    TaskGraphSim sim(std::move(tasks), 2);
    const SimResult r = sim.Run({}, 7);
    EXPECT_DOUBLE_EQ(r.makespan, good ? 3.0 : 4.0);
  }
}

TEST(Engine, PrioritySelectsLowestNumber) {
  std::vector<Task> tasks;
  for (int i = 0; i < 4; ++i) {
    Task t = MakeTask(1.0, 0);
    t.priority = 3 - i;  // task 3 has priority 0
    tasks.push_back(t);
  }
  TaskGraphSim sim(std::move(tasks), 1);
  const SimResult r = sim.Run({}, 5);
  EXPECT_EQ(r.start_order, (std::vector<TaskId>{3, 2, 1, 0}));
}

TEST(Engine, SparseAndNegativePrioritiesOrderCorrectly) {
  // Priorities are rank-compressed internally; arbitrary (even negative)
  // numbers must still order by value.
  std::vector<Task> tasks;
  const int priorities[] = {1000000, -5, 0, 42};
  for (const int p : priorities) {
    Task t = MakeTask(1.0, 0);
    t.priority = p;
    tasks.push_back(t);
  }
  TaskGraphSim sim(std::move(tasks), 1);
  const SimResult r = sim.Run({}, 11);
  EXPECT_EQ(r.start_order, (std::vector<TaskId>{1, 2, 3, 0}));
}

TEST(Engine, LongGateCascadeReleasesAllRanks) {
  // All 64 gated transfers become dependency-ready at t=0 with ranks
  // reversed w.r.t. id; activating rank 0 must cascade-release the
  // entire chain in rank order.
  constexpr int kRanks = 64;
  std::vector<Task> tasks;
  for (int i = 0; i < kRanks; ++i) {
    Task t = MakeTask(1.0, 0);
    t.gate_group = 0;
    t.gate_rank = kRanks - 1 - i;
    t.priority = kRanks - 1 - i;
    tasks.push_back(t);
  }
  TaskGraphSim sim(std::move(tasks), 1);
  sim.Validate();
  SimOptions opts;
  opts.enforce_gates = true;
  const SimResult r = sim.Run(opts, 13);
  ASSERT_EQ(r.start_order.size(), static_cast<std::size_t>(kRanks));
  for (int i = 0; i < kRanks; ++i) {
    EXPECT_EQ(r.start_order[static_cast<std::size_t>(i)],
              static_cast<TaskId>(kRanks - 1 - i));
  }
  EXPECT_DOUBLE_EQ(r.makespan, static_cast<double>(kRanks));
}

TEST(Engine, UnprioritizedTasksCompeteWithLowest) {
  // One priority-5 task and one unprioritized task: both are candidates,
  // so across seeds each should win sometimes.
  int unprioritized_first = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    std::vector<Task> tasks;
    Task a = MakeTask(1.0, 0);
    a.priority = 5;
    Task b = MakeTask(1.0, 0);  // no priority
    tasks.push_back(a);
    tasks.push_back(b);
    TaskGraphSim sim(std::move(tasks), 1);
    const SimResult r = sim.Run({}, seed);
    if (r.start_order.front() == 1) ++unprioritized_first;
  }
  EXPECT_GT(unprioritized_first, 5);
  EXPECT_LT(unprioritized_first, 35);
}

TEST(Engine, BaselineOrderVariesAcrossSeeds) {
  auto make = [] {
    std::vector<Task> tasks;
    for (int i = 0; i < 8; ++i) tasks.push_back(MakeTask(1.0, 0));
    return tasks;
  };
  TaskGraphSim sim(make(), 1);
  const auto a = sim.Run({}, 1).start_order;
  const auto b = sim.Run({}, 2).start_order;
  EXPECT_NE(a, b);
}

TEST(Engine, DeterministicForSameSeed) {
  std::vector<Task> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back(MakeTask(0.5 + 0.1 * i, i % 3));
  }
  TaskGraphSim sim(std::move(tasks), 3);
  SimOptions opts;
  opts.jitter_sigma = 0.1;
  const SimResult a = sim.Run(opts, 99);
  const SimResult b = sim.Run(opts, 99);
  EXPECT_EQ(a.start_order, b.start_order);
  EXPECT_EQ(a.end, b.end);
}

TEST(Engine, GatesEnforceHandoffOrderOnOneChannel) {
  // Three gated transfers on one channel with ranks 2, 1, 0 by id: wire
  // order must follow rank order.
  std::vector<Task> tasks;
  for (int i = 0; i < 3; ++i) {
    Task t = MakeTask(1.0, 0);
    t.gate_group = 0;
    t.gate_rank = 2 - i;
    t.priority = 2 - i;
    tasks.push_back(t);
  }
  TaskGraphSim sim(std::move(tasks), 1);
  SimOptions opts;
  opts.enforce_gates = true;
  const SimResult r = sim.Run(opts, 3);
  EXPECT_EQ(r.start_order, (std::vector<TaskId>{2, 1, 0}));
}

TEST(Engine, GateHandoffDoesNotBlockOtherChannels) {
  // Rank 0 is a long transfer on channel 0; rank 1 lives on channel 1.
  // Hand-off (enqueue) happens at activation, so channel 1 must start its
  // transfer immediately rather than waiting for channel 0's wire time.
  std::vector<Task> tasks;
  Task big = MakeTask(10.0, 0);
  big.gate_group = 0;
  big.gate_rank = 0;
  Task small = MakeTask(1.0, 1);
  small.gate_group = 0;
  small.gate_rank = 1;
  tasks.push_back(big);
  tasks.push_back(small);
  TaskGraphSim sim(std::move(tasks), 2);
  SimOptions opts;
  opts.enforce_gates = true;
  const SimResult r = sim.Run(opts, 3);
  EXPECT_DOUBLE_EQ(r.start[1], 0.0);
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
}

TEST(Engine, GateWaitsForPredecessorRankActivation) {
  // Rank 1's transfer is dependency-ready at t=0, but rank 0 only
  // activates after a 5s compute: rank 1 must not be handed off first.
  std::vector<Task> tasks;
  tasks.push_back(MakeTask(5.0, 1));  // 0: compute gating rank 0's recv
  Task first = MakeTask(1.0, 0, {0});
  first.gate_group = 0;
  first.gate_rank = 0;
  Task second = MakeTask(1.0, 0);
  second.gate_group = 0;
  second.gate_rank = 1;
  tasks.push_back(first);   // 1
  tasks.push_back(second);  // 2
  TaskGraphSim sim(std::move(tasks), 2);
  SimOptions opts;
  opts.enforce_gates = true;
  const SimResult r = sim.Run(opts, 3);
  EXPECT_DOUBLE_EQ(r.start[1], 5.0);
  EXPECT_DOUBLE_EQ(r.start[2], 6.0);
}

TEST(Engine, GatesIgnoredWhenDisabled) {
  std::vector<Task> tasks;
  Task a = MakeTask(1.0, 0);
  a.gate_group = 0;
  a.gate_rank = 1;  // would be second with gates on
  Task b = MakeTask(1.0, 1);
  b.gate_group = 0;
  b.gate_rank = 0;
  tasks.push_back(a);
  tasks.push_back(b);
  TaskGraphSim sim(std::move(tasks), 2);
  SimOptions opts;
  opts.enforce_gates = false;
  const SimResult r = sim.Run(opts, 3);
  EXPECT_DOUBLE_EQ(r.makespan, 1.0);  // both start at 0 on their channels
}

TEST(Engine, OutOfOrderInjectionScramblesPriorities) {
  SimOptions opts;
  opts.out_of_order_probability = 1.0;
  int scrambled = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    std::vector<Task> tasks;
    for (int i = 0; i < 6; ++i) {
      Task t = MakeTask(1.0, 0);
      t.priority = i;
      tasks.push_back(t);
    }
    TaskGraphSim sim(std::move(tasks), 1);
    const SimResult r = sim.Run(opts, seed);
    std::vector<TaskId> in_order(6);
    for (int i = 0; i < 6; ++i) in_order[static_cast<std::size_t>(i)] = i;
    if (r.start_order != in_order) ++scrambled;
  }
  EXPECT_GT(scrambled, 25);
}

TEST(Engine, JitterPerturbsDurationsDeterministically) {
  std::vector<Task> tasks{MakeTask(1.0, 0)};
  TaskGraphSim sim(std::move(tasks), 1);
  SimOptions opts;
  opts.jitter_sigma = 0.2;
  const double a = sim.Run(opts, 1).makespan;
  const double b = sim.Run(opts, 1).makespan;
  const double c = sim.Run(opts, 2).makespan;
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_GT(a, 0.0);
}

TEST(Engine, MakespanNeverExceedsSerialTotal) {
  // Work conservation: some resource is always busy, so the makespan is
  // bounded by the serial sum of durations.
  util::Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Task> tasks;
    double total = 0.0;
    for (int i = 0; i < 30; ++i) {
      Task t = MakeTask(rng.Uniform(0.1, 1.0),
                        static_cast<int>(rng.Index(4)));
      if (i > 0 && rng.Chance(0.5)) {
        t.preds.push_back(static_cast<TaskId>(rng.Index(static_cast<std::size_t>(i))));
      }
      total += t.duration;
      tasks.push_back(t);
    }
    TaskGraphSim sim(std::move(tasks), 4);
    sim.Validate();
    const SimResult r = sim.Run({}, static_cast<std::uint64_t>(trial));
    EXPECT_LE(r.makespan, total + 1e-9);
    EXPECT_EQ(r.start_order.size(), 30u);
  }
}

TEST(Engine, AllTasksCompleteWithEndAfterStart) {
  std::vector<Task> tasks{MakeTask(1.0, 0), MakeTask(2.0, 1, {0}),
                          MakeTask(0.5, 0, {1})};
  TaskGraphSim sim(std::move(tasks), 2);
  const SimResult r = sim.Run({}, 1);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(r.end[i], r.start[i]);
  }
}

TEST(Validate, RejectsBadGraphs) {
  {
    std::vector<Task> tasks{MakeTask(1.0, 5)};
    TaskGraphSim sim(std::move(tasks), 2);
    EXPECT_THROW(sim.Validate(), std::invalid_argument);
  }
  {
    std::vector<Task> tasks{MakeTask(-1.0, 0)};
    TaskGraphSim sim(std::move(tasks), 1);
    EXPECT_THROW(sim.Validate(), std::invalid_argument);
  }
  {
    std::vector<Task> tasks{MakeTask(1.0, 0, {0})};  // self-loop
    TaskGraphSim sim(std::move(tasks), 1);
    EXPECT_THROW(sim.Validate(), std::invalid_argument);
  }
  {
    // Gate ranks must be dense per group.
    Task a = MakeTask(1.0, 0);
    a.gate_group = 0;
    a.gate_rank = 1;
    std::vector<Task> tasks{a};
    TaskGraphSim sim(std::move(tasks), 1);
    EXPECT_THROW(sim.Validate(), std::invalid_argument);
  }
  {
    // Rank without group.
    Task a = MakeTask(1.0, 0);
    a.gate_rank = 0;
    std::vector<Task> tasks{a};
    TaskGraphSim sim(std::move(tasks), 1);
    EXPECT_THROW(sim.Validate(), std::invalid_argument);
  }
}

TEST(Validate, AcceptsWellFormedGraph) {
  Task a = MakeTask(1.0, 0);
  a.gate_group = 0;
  a.gate_rank = 0;
  Task b = MakeTask(1.0, 0, {0});
  b.gate_group = 0;
  b.gate_rank = 1;
  std::vector<Task> tasks{a, b};
  TaskGraphSim sim(std::move(tasks), 1);
  EXPECT_NO_THROW(sim.Validate());
}

// Mid-run resource perturbations (DESIGN.md §8): the fault path only
// engages for a non-empty timeline, speed is sampled at task start, and
// a zero speed parks the resource until a recovery event.

TEST(SimFaults, NullAndEmptyTimelinesMatchBitForBit) {
  std::vector<Task> tasks{MakeTask(2.0, 0), MakeTask(1.0, 1, {0}),
                          MakeTask(3.0, 0, {0})};
  TaskGraphSim sim(std::move(tasks), 2);
  SimOptions options;
  const SimResult base = sim.Run(options, 7);
  const std::vector<ResourceFault> empty;
  options.faults = &empty;
  const SimResult faulted = sim.Run(options, 7);
  EXPECT_EQ(base.makespan, faulted.makespan);
  EXPECT_EQ(base.start, faulted.start);
  EXPECT_EQ(base.end, faulted.end);
  EXPECT_EQ(base.start_order, faulted.start_order);
}

TEST(SimFaults, SpeedIsSampledAtTaskStart) {
  // Resource 0 halves over [0, 3): the first task (nominal 2) starts at
  // 0 and takes 4 — the in-flight duration is NOT re-scaled when speed
  // recovers at 3. The successor starts at 4 back at full speed.
  std::vector<Task> tasks{MakeTask(2.0, 0), MakeTask(2.0, 0, {0})};
  TaskGraphSim sim(std::move(tasks), 1);
  const std::vector<ResourceFault> faults{{0.0, 0, 0.5}, {3.0, 0, 1.0}};
  SimOptions options;
  options.faults = &faults;
  const SimResult r = sim.Run(options, 1);
  EXPECT_DOUBLE_EQ(r.end[0], 4.0);
  EXPECT_DOUBLE_EQ(r.start[1], 4.0);
  EXPECT_DOUBLE_EQ(r.end[1], 6.0);
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
}

TEST(SimFaults, DownResourceDelaysStartsOthersUnaffected) {
  // Resource 0 is down over [0, 2): its task waits for the recovery
  // event; resource 1 is untouched and runs at t = 0.
  std::vector<Task> tasks{MakeTask(1.0, 0), MakeTask(1.0, 1)};
  TaskGraphSim sim(std::move(tasks), 2);
  const std::vector<ResourceFault> faults{{0.0, 0, 0.0}, {2.0, 0, 1.0}};
  SimOptions options;
  options.faults = &faults;
  const SimResult r = sim.Run(options, 1);
  EXPECT_DOUBLE_EQ(r.start[0], 2.0);
  EXPECT_DOUBLE_EQ(r.end[0], 3.0);
  EXPECT_DOUBLE_EQ(r.start[1], 0.0);
  EXPECT_DOUBLE_EQ(r.end[1], 1.0);
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
}

TEST(SimFaults, MidRunSlowdownHitsOnlyLaterStarts) {
  // The perturbation lands at t = 1.5, mid-flight for the first task:
  // it finishes on time at 2; the successor starts at 2 under 4x
  // slowdown (speed 0.25) and takes 4.
  std::vector<Task> tasks{MakeTask(2.0, 0), MakeTask(1.0, 0, {0})};
  TaskGraphSim sim(std::move(tasks), 1);
  const std::vector<ResourceFault> faults{{1.5, 0, 0.25}};
  SimOptions options;
  options.faults = &faults;
  const SimResult r = sim.Run(options, 1);
  EXPECT_DOUBLE_EQ(r.end[0], 2.0);
  EXPECT_DOUBLE_EQ(r.start[1], 2.0);
  EXPECT_DOUBLE_EQ(r.end[1], 6.0);
}

// Dispatch work counter: dispatch visits only resources an event touched,
// so a chain on one resource of a very wide graph costs O(tasks), not
// O(tasks x resources) — the full-scan dispatch needed ~1.6 M visits here.

std::vector<Task> Chain(int length, int resource) {
  std::vector<Task> tasks;
  for (int i = 0; i < length; ++i) {
    tasks.push_back(MakeTask(
        1.0, resource,
        i == 0 ? std::vector<TaskId>{} : std::vector<TaskId>{i - 1}));
  }
  return tasks;
}

TEST(DispatchVisits, ProportionalToEventsNotResources) {
  constexpr int kTasks = 200;
  const TaskGraphSim sim(Chain(kTasks, 0), 4096);
  const SimResult plain = sim.Run({}, 1);
  EXPECT_DOUBLE_EQ(plain.makespan, 200.0);
  EXPECT_LT(plain.dispatch_visits, 2u * kTasks);

  // Fault events on idle resources, and on the chain's own, add at most
  // one visit each. Resource 0 is down over [10.5, 20): the task in
  // flight finishes at 11 and the next one waits until 20.
  const std::vector<ResourceFault> faults{
      {0.0, 4095, 0.5}, {10.5, 0, 0.0}, {20.0, 0, 1.0}, {30.0, 17, 2.0}};
  SimOptions options;
  options.faults = &faults;
  const SimResult faulted = sim.Run(options, 1);
  EXPECT_DOUBLE_EQ(faulted.makespan, 209.0);
  EXPECT_LT(faulted.dispatch_visits, 2u * kTasks + faults.size());
}

TEST(DispatchVisits, RunParallelSumsShardCounters) {
  // Two disjoint chains at opposite ends of the resource range: two
  // shards, each a chain on one resource.
  std::vector<Task> tasks = Chain(50, 0);
  for (Task& t : Chain(30, 4095)) {
    for (TaskId& p : t.preds) p += 50;
    tasks.push_back(std::move(t));
  }
  const TaskGraphSim sim(std::move(tasks), 4096);
  const std::uint64_t expected =
      TaskGraphSim(Chain(50, 0), 1).Run({}, 1).dispatch_visits +
      TaskGraphSim(Chain(30, 0), 1).Run({}, 1).dispatch_visits;
  for (const int threads : {1, 4}) {
    EXPECT_EQ(sim.RunParallel({}, 1, threads).dispatch_visits, expected);
  }
}

}  // namespace
}  // namespace tictac::sim
