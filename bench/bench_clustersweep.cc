// Datacenter-scale contended sweep through the sharded event engine
// (runtime/clustersweep.h, DESIGN.md §11): N identical jobs partitioned
// over ceil(N/64) PS fabrics, merged into one task graph, simulated by
// TaskGraphSim::RunParallel. The 1000-job case is the ROADMAP's "out of
// reach for the single-threaded engine" scale; its wall-clock plus the
// population SLO counters (p99 job iteration, Jain fairness) land in
// BENCH_sched.json next to the per-fabric BM_MultiJob* rows.
//
// Construction (1000 Runner builds: graphs, dependency analysis,
// schedules) happens once per benchmark, outside the timed loop — the
// timed region is one full simulated iteration of every job in the
// cluster, the quantity the parallel engine is supposed to buy down.
// The second argument is the engine's thread count: the 1- vs 4-thread
// rows measure how much of the sweep the shards actually parallelize.
#include <benchmark/benchmark.h>

#include <string>

#include "runtime/clustersweep.h"
#include "runtime/multijob.h"

namespace {

void BM_ClusterSweep(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const std::string text =
      std::to_string(jobs) +
      "x{envG:workers=2:ps=1:training model=AlexNet v2 policy=tac "
      "iterations=1 seed=1}";
  const tictac::runtime::ClusterSweep sweep(
      tictac::runtime::ParseJobGroups(text, 4096),
      {.num_threads = threads});

  tictac::runtime::ClusterSweepResult result;
  for (auto _ : state) {
    result = sweep.Run(/*iterations=*/1, /*seed=*/1);
    benchmark::DoNotOptimize(result);
  }
  state.counters["fabrics"] = result.fabrics;
  state.counters["components"] = result.components;
  state.counters["p99_job_iteration_s"] = result.p99_job_iteration_s;
  state.counters["fairness"] = result.fairness;
  state.counters["total_throughput"] = result.total_throughput;
  state.SetLabel(std::to_string(result.jobs) + " jobs / " +
                 std::to_string(result.fabrics) + " fabrics, " +
                 std::to_string(threads) + " threads");
}

BENCHMARK(BM_ClusterSweep)
    ->ArgNames({"jobs", "threads"})
    ->ArgsProduct({{100, 1000}, {1, 4}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
