// Multi-job shared-cluster lowering (DESIGN.md §6): composes N
// independently-specified jobs onto ONE parameter-server fabric, so
// transfers from different jobs genuinely contend for the PS NICs and
// the PS bookkeeping CPUs — the regime ByteScheduler/P3-style systems
// target — while each job keeps its own workers, model, schedule and
// policy.
//
// Resource layout of the combined fabric (T = Σ_j W_j workers, S shared
// parameter servers; identical to runtime/lowering.h with W := T, so a
// 1-job lowering degenerates to the single-job layout *bit for bit*):
//   [0, T)                      worker computation, job j's workers at
//                                 [base_w(j), base_w(j) + W_j)
//   [T, T + T*S)                downlink channels (PS s -> global worker g)
//   [T + T*S, T + 2*T*S)        uplink channels (global worker g -> PS s)
//   [T + 2*T*S, T + 2*T*S + S)  PS bookkeeping CPUs — SHARED across jobs:
//                                 reads/aggregates/updates of all jobs
//                                 queue on the same S resources
//   [T + 2*T*S + S, ...)        one arrival-delay resource per job with a
//                                 start offset > 0
//
// Each PS NIC is time-shared by the T pair-channels of ALL jobs, so the
// per-channel bandwidth is bandwidth/T — adding a co-located job slows
// every transfer in the fabric, and the per-job schedules are computed
// against that contended oracle (BuildSharedFabric scales each job's
// platform bandwidth by W_j/T before handing it to runtime::Runner,
// whose MakeSchedule divides by W_j; the product is bandwidth/T).
//
// The combined task graph runs through the existing sim::TaskGraphSim
// unchanged — tasks, resources, priorities and per-(job, worker) gate
// groups are all it ever sees. SliceResult() cuts the combined SimResult
// back into per-job SimResults so runtime::ComputeIterationStats yields
// per-job makespans/efficiency/overlap with the exact single-job code.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/analysis_cache.h"
#include "runtime/lowering.h"
#include "runtime/runner.h"
#include "runtime/spec.h"

namespace tictac::runtime {

// Jobs per shared fabric, at most (MultiJobSpec, the cluster sweep's
// partitioner, the service's max_jobs_per_fabric). Every job widens the
// fabric by 2·S channel resources per worker and every distinct job
// costs a Runner and a schedule, so an over-generous count turns a
// one-line spec into minutes of work; 64 co-located jobs is far beyond
// any realistic shared-PS scenario.
inline constexpr int kMaxJobsPerFabric = 64;

// One job of a multi-job experiment: a complete single-job spec plus an
// arrival offset (seconds after t = 0 before any of the job's tasks may
// start — the staggered-arrival scenario family).
struct MultiJobEntry {
  ExperimentSpec spec;
  double start_offset = 0.0;

  friend bool operator==(const MultiJobEntry&,
                         const MultiJobEntry&) = default;
};

// Parses the "[COUNTx]{<experiment spec>}[@offset_s]" group grammar into
// a flat job list, with replication counts capped at `max_count`.
// MultiJobSpec::Parse is this with the 64-job fabric cap plus
// Validate(); the cluster sweep (runtime/clustersweep.h) parses with a
// larger cap and partitions the result over several fabrics. Throws
// std::invalid_argument (naming the bad token) on malformed input.
std::vector<MultiJobEntry> ParseJobGroups(std::string_view text,
                                          long long max_count);

// N jobs sharing one PS fabric. Text form (round-trips exactly):
//
//   jobs=2x{envG:workers=4:ps=2:training model=ResNet-101 v1 policy=tac
//   iterations=10 seed=1} {envG:workers=2:ps=2 model=VGG-16
//   policy=baseline iterations=10 seed=1}@0.05
//
// Grammar:
//   multijob := ["jobs="] group (ws group)*
//   group    := [COUNT "x"] "{" experiment-spec "}" ["@" OFFSET_SECONDS]
//
// `COUNT x` replicates the group (2x{...} = two identical co-located
// jobs); `@offset` delays every replica's arrival. ToString() collapses
// consecutive identical entries back into the counted form. At most
// kMaxJobsPerFabric jobs.
struct MultiJobSpec {
  std::vector<MultiJobEntry> jobs;

  // Canonical text form; Parse(ToString()) == *this.
  std::string ToString() const;

  // Throws std::invalid_argument (naming the bad token) on malformed
  // input. The parsed spec is Validate()d before being returned.
  static MultiJobSpec Parse(std::string_view text);

  // The fabric-sharing rules: >= 1 job; every job declares the same env,
  // the same ps= count (it is one shared PS fleet), the same
  // iterations/seed (the combined graph is simulated as one unit), and
  // the same jitter/ooo overrides (sim options are global to a run);
  // offsets must be finite and >= 0. Model, policy, workers, training,
  // batch, chunk, enforcement, sigma and speeds may differ per job.
  // Throws std::invalid_argument naming the offending job and field.
  void Validate() const;

  // Sum of the jobs' worker counts (the T of the resource layout).
  int TotalWorkers() const;

  friend bool operator==(const MultiJobSpec&, const MultiJobSpec&) = default;
};

// The combined fabric plus the per-job slices needed to cut metrics back
// out of a combined SimResult.
struct MultiJobLowering {
  // Whole-fabric task graph: num_workers = T, worker tables indexed by
  // global worker id. update_task/worker_sink are left empty (parameter
  // indices are per-job; use the slices' lowerings).
  Lowering combined;

  struct JobSlice {
    // The job's own LowerCluster output, untouched (job-local task ids
    // and resources): feed it ComputeIterationStats together with
    // SliceResult's job-local SimResult.
    Lowering lowering;
    // The job's contiguous task range in the combined graph:
    // combined id = first_task + local id, range [first_task, last_task).
    sim::TaskId first_task = 0;
    sim::TaskId last_task = 0;
    // Global id of the job's first worker (base_w).
    int first_worker = 0;
    // Combined id of the arrival-delay task, -1 when start_offset == 0.
    sim::TaskId delay_task = -1;
    // The job's arrival offset, repeated here so SliceResult can shift
    // the slice onto the job's own clock.
    double start_offset = 0.0;
  };
  std::vector<JobSlice> jobs;

  int total_workers = 0;
  int num_ps = 0;
};

// Lowers every job with runtime::LowerCluster and merges the results
// onto the shared fabric: task ids are offset per job, resources remapped
// into the combined layout (PS CPUs collapse onto the shared S), gate
// groups renumbered by global worker so enforcement counters never
// collide across jobs, and a start_offset > 0 becomes a delay task every
// source task of the job depends on. All jobs must declare the same
// num_ps. A single zero-offset job reproduces LowerCluster bit for bit.
MultiJobLowering LowerSharedCluster(const std::vector<JobLoweringInput>& jobs);

// Cuts the combined SimResult down to one job's slice: start/end are
// re-indexed to job-local task ids and shifted onto the job's own clock
// (its nominal arrival, start_offset, becomes t = 0, so waiting to
// arrive is not billed as contention slowdown or Eq.-3 inefficiency);
// makespan is the slice's own max shifted end — the job's completion
// time since arrival, the quantity per-job throughput and interference
// are measured against. start_order keeps the job's tasks, re-indexed.
// (Under jitter the delay task's simulated duration may differ slightly
// from the nominal offset, so shifted starts can be marginally
// negative; metrics only consume differences and maxima.)
sim::SimResult SliceResult(const sim::SimResult& combined,
                           const MultiJobLowering::JobSlice& job);

// SliceResult for every slice at once: one pass over start_order, which
// is bucketed by job range with each job's order kept. Equal, field for
// field, to SliceResult(combined, slices[j]) for every j — the per-job
// call scans the whole start_order once per job.
std::vector<sim::SimResult> SliceResults(
    const sim::SimResult& combined,
    const std::vector<MultiJobLowering::JobSlice>& slices);

// A lowered shared fabric and the options every simulation of it runs
// with. options.network points into lowering.combined.flow, which copies
// and moves share.
struct SharedFabric {
  MultiJobLowering lowering;
  sim::SimOptions options;
};

// A fabric over an already-lowered `lowering`, with the options derived
// from `base` (job 0's config.sim): gates are enforced when
// `enforce_gates` (some job's schedule covers its recvs), and the flow
// model is on when the lowering carries a flow network, i.e. when any
// job enables it (contention is fabric-wide or not at all).
SharedFabric MakeSharedFabric(MultiJobLowering lowering,
                              const sim::SimOptions& base,
                              bool enforce_gates);

// The one contended-fabric construction path (MultiJobRunner,
// ClusterSweep and sched::SchedulerService all build through it). Scales
// each job's platform bandwidth by W_j/T, looks up its Runner and then
// its schedule in `cache` in job order, lowers the jobs with
// LowerSharedCluster, and derives the options with MakeSharedFabric.
// Jobs are not validated against each other here; the callers apply
// their own sharing rules first.
SharedFabric BuildSharedFabric(const std::vector<MultiJobEntry>& jobs,
                               AnalysisCache& cache);

// Combined + per-job views of one multi-job experiment. jobs[j] is
// sliced from the same simulated executions the combined result
// summarizes, so for every iteration i:
//   combined.iterations[i].makespan ==
//       max_j (jobs[j].iterations[i].makespan + start_offset_j)
// (each task belongs to exactly one job; delay tasks never finish
// last). With all offsets zero — the common case — the combined
// makespan is exactly the max over per-job makespans.
struct MultiJobResult {
  ExperimentResult combined;
  std::vector<ExperimentResult> jobs;
};

// Builds and runs a multi-job experiment. Construction validates the
// spec and builds the shared fabric (BuildSharedFabric, with a cache
// local to the constructor); Run() then simulates the spec's iterations.
// A 1-job MultiJobRunner reproduces the single-job Session/Runner path
// bit for bit (pinned by tests/multijob_test.cc).
class MultiJobRunner {
 public:
  explicit MultiJobRunner(MultiJobSpec spec);
  // Runs `fabric`, lowered elsewhere from `spec` (e.g. by
  // ir::FullLoweringPipeline over ir::BuildModuleForSpec); throws
  // std::invalid_argument unless it has one slice per job of the spec.
  MultiJobRunner(MultiJobSpec spec, SharedFabric fabric);

  // Simulates spec().jobs[0].spec.iterations iterations (validated equal
  // across jobs), seeds seed + i as the single-job path does. Thread-safe
  // (const, all mutable state is per-call).
  MultiJobResult Run() const;
  MultiJobResult Run(int iterations, std::uint64_t seed) const;

  const MultiJobSpec& spec() const { return spec_; }
  const MultiJobLowering& lowering() const { return fabric_.lowering; }
  int total_workers() const { return fabric_.lowering.total_workers; }
  // The options every Run() simulates with (gates, jitter, flow network),
  // derived from the jobs' configs by MakeSharedFabric.
  const sim::SimOptions& sim_options() const { return fabric_.options; }

 private:
  MultiJobSpec spec_;
  SharedFabric fabric_;
};

}  // namespace tictac::runtime
