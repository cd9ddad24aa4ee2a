// Golden pins for the event engine's RNG-consuming output.
//
// The differential suites compare the engine against itself (RunParallel
// vs Run, empty vs null fault timelines, flow off vs a flow-less network)
// or against the RNG-free reference executor. Neither catches a change
// that reorders the engine's random draws — a different dispatch order,
// say — because both sides of such a comparison move together. This
// suite hashes the engine's full output over a seeded grid of random
// task graphs and real lowerings and pins the digests, so any change to
// which task starts where and when shows up as a digest mismatch.
//
// What is hashed (FNV-1a, 64-bit): start_order, the bit patterns of
// every start and end time, and the makespan's bit pattern. The grid
// covers resource counts on both sides of 64-bit word boundaries, tied
// and missing priorities, gates on and off, out-of-order picks, jitter,
// a fault timeline (a t = 0 event plus a down -> up interval on a busy
// resource), flow fairness over shared links, and the sharded engine at
// 1 and 4 threads. Digests depend on libstdc++'s random distributions
// (util::Rng wraps them), like every other seeded output of the repo.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/schedule.h"
#include "models/zoo.h"
#include "runtime/cluster.h"
#include "runtime/lowering.h"
#include "runtime/runner.h"
#include "sim/engine.h"
#include "sim/flow.h"
#include "sim/task.h"
#include "util/rng.h"

namespace tictac::sim {
namespace {

class Fnv1a {
 public:
  void Bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Double(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    Bytes(&bits, sizeof bits);
  }
  void U64(std::uint64_t x) { Bytes(&x, sizeof x); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t Digest(const SimResult& r) {
  Fnv1a h;
  for (TaskId t : r.start_order) h.Bytes(&t, sizeof t);
  for (double s : r.start) h.Double(s);
  for (double e : r.end) h.Double(e);
  h.Double(r.makespan);
  return h.value();
}

// Components a random graph is split into: tasks, resources, gate groups
// and flow links of component c never touch another component's, so
// RunParallel genuinely shards.
int Components(int num_resources) { return std::min(num_resources, 4); }

// A seeded random DAG over `num_resources` resources, ~6 tasks per
// resource. Task t belongs to component t % K and runs on a resource r
// with r % K == t % K; predecessors are earlier tasks of the same
// component. Priorities come from {0, 1, 2} (heavy ties), and with
// `missing_priorities` about 40% carry kNoPriority instead. About a
// third of the tasks are gated, two gate groups per component, ranks
// dense in task-id order (so gate order never fights dependency order).
std::vector<Task> RandomGraph(int num_resources, bool missing_priorities,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  const int k = Components(num_resources);
  const int num_tasks = 6 * num_resources + 20;
  std::vector<int> next_rank(static_cast<std::size_t>(2 * k), 0);
  std::vector<Task> tasks(static_cast<std::size_t>(num_tasks));
  for (int t = 0; t < num_tasks; ++t) {
    Task& task = tasks[static_cast<std::size_t>(t)];
    const int c = t % k;
    const int per_component = (num_resources - c + k - 1) / k;
    task.duration = rng.Uniform(0.05, 2.0);
    task.resource =
        c + k * static_cast<int>(rng.Index(
                    static_cast<std::size_t>(per_component)));
    task.priority = static_cast<int>(rng.Index(3));
    if (missing_priorities && rng.Chance(0.4)) task.priority = kNoPriority;
    const int earlier = t / k;  // same-component tasks before t
    const int preds = earlier == 0 ? 0 : static_cast<int>(rng.Index(3));
    for (int p = 0; p < preds; ++p) {
      const auto window = static_cast<std::size_t>(std::min(earlier, 12));
      const int back = 1 + static_cast<int>(rng.Index(window));
      task.preds.push_back(static_cast<TaskId>(t - k * back));
    }
    if (rng.Chance(0.35)) {
      task.gate_group = 2 * c + static_cast<int>(rng.Index(2));
      task.gate_rank = next_rank[static_cast<std::size_t>(task.gate_group)]++;
    }
  }
  return tasks;
}

// Flow links per component: resource r of component c with (r / K) odd
// is a flow resource on link c, and every other such resource also
// crosses link K + c, so water-filling sees multi-link bottlenecks.
FlowNetwork Network(int num_resources) {
  const int k = Components(num_resources);
  FlowNetwork net;
  for (int l = 0; l < 2 * k; ++l) net.links.push_back({100.0 + 10.0 * l});
  net.resource_links.resize(static_cast<std::size_t>(num_resources));
  net.resource_nominal_bps.assign(static_cast<std::size_t>(num_resources),
                                  40.0);
  for (int r = 0; r < num_resources; ++r) {
    const int c = r % k;
    const int slot = r / k;
    if (slot % 2 == 0) continue;
    auto& links = net.resource_links[static_cast<std::size_t>(r)];
    links.push_back(c);
    if (slot % 4 == 3) links.push_back(k + c);
  }
  return net;
}

// A t = 0 slowdown, a resource down from t = 0 that comes back up, and a
// down -> up interval mid-run on resource 0 (which carries ~6 tasks, so
// work queues behind it while it is down).
std::vector<ResourceFault> Faults(int num_resources) {
  std::vector<ResourceFault> faults{{0.0, 1, 0.5}, {1.5, 0, 0.0},
                                    {4.0, 0, 1.0}};
  if (num_resources > 2) {
    faults.insert(faults.begin() + 1, {0.0, 2, 0.0});
    faults.push_back({4.0, 2, 2.0});
  }
  return faults;
}

// Runs `run` over the full option grid on one random graph per priority
// mode and folds every run's digest into one.
template <typename RunFn>
std::uint64_t GridDigest(int num_resources, RunFn run) {
  const FlowNetwork net = Network(num_resources);
  const std::vector<ResourceFault> faults = Faults(num_resources);
  Fnv1a digest;
  for (const bool missing : {false, true}) {
    const TaskGraphSim sim(
        RandomGraph(num_resources, missing, 1000 + num_resources),
        num_resources);
    sim.Validate();
    for (const bool gates : {false, true}) {
      for (const double ooo : {0.0, 0.05}) {
        for (const double jitter : {0.0, 0.1}) {
          for (const bool with_faults : {false, true}) {
            for (const bool flows : {false, true}) {
              SimOptions options;
              options.enforce_gates = gates;
              options.out_of_order_probability = ooo;
              options.jitter_sigma = jitter;
              options.faults = with_faults ? &faults : nullptr;
              options.flow_fairness = flows;
              options.network = flows ? &net : nullptr;
              digest.U64(Digest(run(sim, options, std::uint64_t{7})));
            }
          }
        }
      }
    }
  }
  return digest.value();
}

struct GridCase {
  int num_resources;
  std::uint64_t run;       // Run()
  std::uint64_t parallel;  // RunParallel() at 1 and 4 threads
};

// Resource counts straddle the 64-bit word boundaries: 3 (one word,
// fewer resources than components), 64 (exactly one word), 65 (one bit
// into the second), 130 (three words).
const GridCase kGrid[] = {
    {3, 0x4ce96ef03105b159ULL, 0xde06735120271cc1ULL},
    {64, 0x6ee0353238d53e70ULL, 0x146aac892e6252ccULL},
    {65, 0x79803efb874c293eULL, 0x9218d8f21c0fcc6bULL},
    {130, 0x75ad701e67311277ULL, 0x93eda8df33a087b2ULL},
};

void PrintTo(const GridCase& c, std::ostream* os) {
  *os << c.num_resources << " resources";
}

class EngineGolden : public ::testing::TestWithParam<GridCase> {};

TEST_P(EngineGolden, RunMatchesPinnedDigest) {
  const GridCase& c = GetParam();
  const std::uint64_t got = GridDigest(
      c.num_resources, [](const TaskGraphSim& sim, const SimOptions& options,
                          std::uint64_t seed) { return sim.Run(options, seed); });
  EXPECT_EQ(got, c.run) << "0x" << std::hex << got;
}

TEST_P(EngineGolden, RunParallelMatchesPinnedDigestAtOneAndFourThreads) {
  const GridCase& c = GetParam();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::uint64_t got = GridDigest(
        c.num_resources,
        [threads](const TaskGraphSim& sim, const SimOptions& options,
                  std::uint64_t seed) {
          return sim.RunParallel(options, seed, threads);
        });
    EXPECT_EQ(got, c.parallel) << "0x" << std::hex << got;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Resources, EngineGolden, ::testing::ValuesIn(kGrid),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      std::string name = "r";
      name += std::to_string(info.param.num_resources);
      return name;
    });

// The paper's headline configuration: ResNet-101 v2 on envG with 8
// workers and 4 parameter servers, one training iteration, lowered and
// simulated the way runtime::Runner::Run does it (envG's jitter and
// out-of-order probability included).
std::uint64_t ResNetDigest(const char* policy) {
  const runtime::Runner runner(models::FindModel("ResNet-101 v2"),
                               runtime::EnvG(8, 4, /*training=*/true));
  const core::Schedule schedule = runner.MakeSchedule(policy);
  const runtime::Lowering lowering = runtime::LowerCluster(
      runner.worker_graph(), schedule, runner.ps_of_param(), runner.config());
  SimOptions options = runner.config().sim;
  options.enforce_gates =
      schedule.size() == runner.worker_graph().size() &&
      schedule.CoversAllRecvs(runner.worker_graph());
  return Digest(lowering.BuildSim().Run(options, 1));
}

TEST(EngineGoldenLowering, ResNet101Baseline) {
  const std::uint64_t got = ResNetDigest("baseline");
  EXPECT_EQ(got, 0x5ce614379e1d14f4ULL) << "0x" << std::hex << got;
}

TEST(EngineGoldenLowering, ResNet101Tac) {
  const std::uint64_t got = ResNetDigest("tac");
  EXPECT_EQ(got, 0x50c4f0e0e842c119ULL) << "0x" << std::hex << got;
}

}  // namespace
}  // namespace tictac::sim
