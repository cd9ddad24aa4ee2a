// The repo benchmark's workloads (run them with `python3 perfbench/run.py
// --workload <name> --seed <n> --seconds <s> --trace <0|1>`).
//
// Each workload is one batch job run to completion by one process with at
// most 4 threads. The seed becomes every generated spec's seed= and the
// serve arrival seed; the library receives only the generated spec text.
// Seed 1 is the CLI's default; claims must also hold on the held-out seed
// kHeldOutSeed, which is not used while a change is being written.
//
//   workload      entry point                       why
//   zoo-train     harness::Session::RunAll          the paper's own experiment
//                                                   on large single-job graphs:
//                                                   sim dispatch over 76
//                                                   resources (~74%) and TAC
//                                                   (~16%); its speedup and
//                                                   straggler numbers are the
//                                                   paper's headline claims
//   schedule-zoo  core::SchedulingPolicy::Compute   TicTac's deployed path: the
//                                                   priority list is computed
//                                                   once per graph; TAC is ~97%,
//                                                   chunking raises R to 570;
//                                                   the sim layer does nothing
//   cluster-1000  runtime::ClusterSweep             many small identical graphs:
//                                                   the most work sharing and no
//                                                   reuse today; sharded sim
//                                                   ~70%, construction ~19%
//   serve-mix     harness::Session::RunService      lowering and caching used
//                                                   incrementally (re-lowerings,
//                                                   schedule-cache hits); sim
//                                                   ~78%, TAC ~14%
//
// Which per-layer metric should move which end-to-end metric, and where:
//
//   layer metric                           moves        on (share)            little or none on
//   sim.run_s sim.tasks_run                wall_s       zoo-train 74%,        schedule-zoo
//     sim.tasks_per_s                                   serve-mix 78%,
//                                                       cluster-1000 70%
//   core.tac_s core.tac_max_ms core.tic_s  wall_s       schedule-zoo 97%,     cluster-1000 (5%)
//     core.schedules core.recvs                         zoo-train 16%,
//                                                       serve-mix 14%
//   ir.lower_s ir.tasks sim.build_s        setup_s,     cluster-1000          zoo-train (~2%)
//                                          wall_s,
//                                          peak_rss_mb
//   runtime.sweep_build_s                  setup_s,     cluster-1000          the others
//     runtime.fabric_build_s               wall_s
//     runtime.sweep_run_s
//   core.index_s core.index_builds         wall_s       cluster-1000 (no      schedule-zoo
//     harness.runner_hit_rate                           reuse), serve-mix
//     sched.schedule_hit_rate                           (117/151), zoo-train
//     sched.index_builds                                (20/30 runner hits)
//   sched.run_s sched.relowerings          wall_s       serve-mix             the other three
//     sched.sim_runs sched.queued
//   runtime.stats_s                        wall_s       zoo-train,            schedule-zoo
//                                                       cluster-1000 (~4%)
//   runtime.parse_s models.graph_s         setup_s      all (small)           none
//     models.ops core.chunk_s
//   unattributed_s trace_overhead_s        none         all                   none
//
// Every *_s layer metric is a self time: the layer's span durations minus
// the part their child spans cover, so the self times plus unattributed_s
// add up to traced_wall_s. Spans sit in the benchmark, around calls into
// each layer's public functions; SchedulerService and MultiJobRunner
// internals stay opaque (serve-mix reports its counters instead).
//
// The traced decompositions of zoo-train, schedule-zoo and cluster-1000
// redo the entry point's work one layer call at a time, after
// src/runtime/runner.cc, multijob.cc and clustersweep.cc. A library change
// that keeps outputs bit-identical but changes the work done (a new cache,
// say) must be mirrored here, or the per-layer figures go on timing the
// old algorithm. Two checks make such drift fail the traced run: the
// library's own work counters (LibraryWork) must equal the traced ones,
// and perfbench/run.py rejects a traced run whose wall time, checks
// excluded, strays from the untraced wall time by more than a set factor.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace.h"

namespace perfbench {

inline constexpr std::uint64_t kHeldOutSeed = 20261017;

// kFull is the benchmark; kSmall shrinks every workload to a few seconds
// in total for the benchmark's own tests.
enum class Size { kFull, kSmall };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one execution of a workload produced, after its output checks.
struct Outcome {
  // Operations: spec runs (zoo-train), schedules (schedule-zoo), sweep
  // jobs (cluster-1000) or arriving service jobs (serve-mix).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the report
  // Canonical simulated output (CSV/JSON as the CLI prints it, or the
  // schedules' priorities); equal strings mean bit-identical results.
  std::string output;
  std::vector<Metric> simulated;

  // Counts `count` failed operations, keeping `what` for the report.
  void Fail(const std::string& what, std::uint64_t count = 1);
};

// Work counters a traced run records next to its spans, by metric name.
using Counters = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  // Parse, graph and runner construction before the first schedule or
  // simulated iteration (setup_s). Called once per measured process.
  virtual void Setup() = 0;
  // Runs the workload through its public entry point on the state Setup()
  // built, one part at a time (a spec run, a schedule, or the whole entry
  // call where it cannot be split), and returns each part's host seconds
  // in order. perfbench/run.py takes each part's smallest time across
  // executions, so a slow spell during one part of one execution moves
  // only that part's sample.
  virtual std::vector<double> Run() = 0;
  // Checks and summarizes what Run() produced. Untimed.
  virtual Outcome Finish() = 0;
  // The traced decomposition: the same work from the same inputs, calling
  // each layer's public functions in the order the entry point does, each
  // inside a span. Its output must equal Finish()'s bit for bit.
  virtual Outcome Traced(Tracer& tracer, Counters& counters) = 0;
  // Work counters the library itself reports after Run(), keyed by the
  // traced counter that must equal each. A mismatch means the traced
  // decomposition no longer does the program's work.
  virtual Counters LibraryWork() const { return {}; }
  // tictac_cli arguments that run the same inputs and print Finish()'s
  // output (empty when no single CLI command does).
  virtual std::vector<std::string> CliArgs() const = 0;
};

// Workload names in benchmark order.
const std::vector<std::string>& WorkloadNames();

// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       std::uint64_t seed, Size size);

}  // namespace perfbench
