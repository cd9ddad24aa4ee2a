#include "runtime/multijob.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "ir/lower.h"
#include "models/zoo.h"

namespace tictac::runtime {
namespace {

[[noreturn]] void Fail(const std::string& message) {
  throw std::invalid_argument("multijob: " + message);
}

}  // namespace

std::string MultiJobSpec::ToString() const {
  std::string text = "jobs=";
  std::size_t i = 0;
  bool first = true;
  while (i < jobs.size()) {
    std::size_t run = 1;
    while (i + run < jobs.size() && jobs[i + run] == jobs[i]) ++run;
    if (!first) text += ' ';
    first = false;
    if (run > 1) text += std::to_string(run) + "x";
    text += '{' + jobs[i].spec.ToString() + '}';
    if (jobs[i].start_offset != 0.0) {
      text += '@' + FormatDouble(jobs[i].start_offset);
    }
    i += run;
  }
  return text;
}

std::vector<MultiJobEntry> ParseJobGroups(std::string_view text,
                                          long long max_count) {
  std::vector<MultiJobEntry> jobs;
  std::size_t pos = 0;
  const auto skip_ws = [&] {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  };
  skip_ws();
  if (text.substr(pos, 5) == "jobs=") pos += 5;
  while (true) {
    skip_ws();
    if (pos >= text.size()) break;
    // Optional replication count: "2x{...}".
    long long count = 1;
    if (std::isdigit(static_cast<unsigned char>(text[pos]))) {
      std::size_t digits = pos;
      while (digits < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[digits]))) {
        ++digits;
      }
      if (digits >= text.size() || text[digits] != 'x') {
        Fail("expected COUNTx{...} at '" + std::string(text.substr(pos)) +
             "'");
      }
      const std::string digits_text(text.substr(pos, digits - pos));
      try {
        count = std::stoll(digits_text);
      } catch (const std::out_of_range&) {
        count = -1;  // out of any acceptable range: fail below, loudly
      }
      if (count < 1 || count > max_count) {
        Fail("job count must be in [1, " + std::to_string(max_count) +
             "], got " + digits_text);
      }
      pos = digits + 1;
    }
    if (pos >= text.size() || text[pos] != '{') {
      Fail("expected '{' opening a job spec at '" +
           std::string(text.substr(pos)) + "'");
    }
    const std::size_t close = text.find('}', pos + 1);
    if (close == std::string_view::npos) {
      Fail("unterminated job spec (missing '}') in '" + std::string(text) +
           "'");
    }
    MultiJobEntry entry;
    entry.spec = ExperimentSpec::Parse(text.substr(pos + 1, close - pos - 1));
    pos = close + 1;
    if (pos < text.size() && text[pos] == '@') {
      std::size_t end = pos + 1;
      while (end < text.size() &&
             !std::isspace(static_cast<unsigned char>(text[end]))) {
        ++end;
      }
      const std::string value(text.substr(pos + 1, end - pos - 1));
      try {
        std::size_t consumed = 0;
        entry.start_offset = std::stod(value, &consumed);
        if (consumed != value.size()) throw std::invalid_argument(value);
      } catch (const std::exception&) {
        Fail("@offset expects a number of seconds, got '" + value + "'");
      }
      pos = end;
    }
    // Totals above max_count are the caller's to reject (MultiJobSpec
    // caps per-fabric in Validate; the cluster sweep caps at parse time)
    // so the per-fabric error message stays the legacy one.
    for (long long c = 0; c < count; ++c) jobs.push_back(entry);
  }
  if (jobs.empty()) {
    Fail("no jobs found — expected at least one [COUNTx]{<experiment spec>} "
         "group");
  }
  return jobs;
}

MultiJobSpec MultiJobSpec::Parse(std::string_view text) {
  MultiJobSpec spec;
  spec.jobs = ParseJobGroups(text, kMaxJobsPerFabric);
  spec.Validate();
  return spec;
}

void MultiJobSpec::Validate() const {
  if (jobs.empty()) Fail("need >= 1 job");
  if (jobs.size() > static_cast<std::size_t>(kMaxJobsPerFabric)) {
    Fail("at most " + std::to_string(kMaxJobsPerFabric) +
         " jobs per fabric, got " + std::to_string(jobs.size()));
  }
  const ExperimentSpec& head = jobs.front().spec;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const ExperimentSpec& job = jobs[j].spec;
    const std::string where = "job " + std::to_string(j) + " ('" +
                              job.ToString() + "') ";
    job.BuildCluster();  // per-job cluster validity, loud field names
    if (job.cluster.topology != Topology::kPsFabric) {
      Fail(where + "declares topology=" +
           std::string(TopologyToken(job.cluster.topology)) +
           " — the shared fabric is parameter-server only (a ring "
           "collective has no PS fleet to share; run it single-job)");
    }
    if (job.cluster.env != head.cluster.env) {
      Fail(where + "declares env " + job.cluster.env +
           " but the fabric is " + head.cluster.env +
           " — all jobs share one environment");
    }
    if (job.cluster.ps != head.cluster.ps) {
      Fail(where + "declares ps=" + std::to_string(job.cluster.ps) +
           " but the shared PS fleet has " +
           std::to_string(head.cluster.ps) +
           " servers — all jobs must declare the same ps=");
    }
    if (job.iterations != head.iterations || job.seed != head.seed) {
      Fail(where +
           "declares iterations/seed different from job 0 — the combined "
           "fabric is simulated as one unit, so iterations= and seed= must "
           "match across jobs");
    }
    if (job.cluster.jitter_sigma != head.cluster.jitter_sigma ||
        job.cluster.out_of_order != head.cluster.out_of_order) {
      Fail(where +
           "overrides jitter=/ooo= differently from job 0 — simulation "
           "options are global to a run");
    }
    if (!(jobs[j].start_offset >= 0.0) || std::isinf(jobs[j].start_offset)) {
      Fail(where + "has start offset " +
           std::to_string(jobs[j].start_offset) +
           " — offsets must be finite and >= 0");
    }
  }
}

int MultiJobSpec::TotalWorkers() const {
  int total = 0;
  for (const MultiJobEntry& job : jobs) total += job.spec.cluster.workers;
  return total;
}

MultiJobLowering LowerSharedCluster(
    const std::vector<JobLoweringInput>& jobs) {
  // The shared-fabric preconditions are checked up front — before any
  // per-job lowering work — preserving the legacy error precedence; the
  // merge_jobs pass re-validates them.
  if (jobs.empty()) Fail("LowerSharedCluster needs >= 1 job");
  const int S = jobs.front().config.num_ps;
  long long total = 0;
  for (const JobLoweringInput& job : jobs) {
    if (job.config.num_ps != S) {
      Fail("all jobs must share the PS fleet: got num_ps=" +
           std::to_string(job.config.num_ps) + " vs " + std::to_string(S));
    }
    total += job.config.num_workers;
  }
  if (total > (1 << 20)) {
    Fail("total workers across jobs must be <= 1048576, got " +
         std::to_string(total));
  }
  ir::Module module = ir::StandardLoweringPipeline(Topology::kPsFabric)
                          .Run(ir::BuildLogicalModule(jobs));
  return ir::ToMultiJobLowering(module);
}

SharedFabric BuildSharedFabric(const std::vector<MultiJobEntry>& jobs,
                               AnalysisCache& cache) {
  int total_workers = 0;
  for (const MultiJobEntry& job : jobs) {
    total_workers += job.spec.cluster.workers;
  }
  std::vector<JobLoweringInput> inputs;
  inputs.reserve(jobs.size());
  bool any_covered = false;
  for (const MultiJobEntry& job : jobs) {
    // Every PS NIC is time-shared by the pair-channels of ALL jobs'
    // workers, not just this job's: scaling the platform bandwidth by
    // W_j / T makes LowerCluster's and MakeSchedule's per-channel figure
    // (bandwidth / W_j) come out as the contended bandwidth / T. Exactly
    // 1.0 — bit-identical to the single-job path — for a lone job.
    const double scale = static_cast<double>(job.spec.cluster.workers) /
                         static_cast<double>(total_workers);
    const Runner& runner = cache.runner(job.spec, scale);
    const AnalysisCache::ScheduleEntry& schedule =
        cache.schedule(job.spec, scale);
    any_covered |= schedule.covers_all_recvs;
    inputs.push_back(JobLoweringInput{runner.worker_graph(),
                                      schedule.schedule, runner.ps_of_param(),
                                      runner.config(), job.start_offset});
  }
  return MakeSharedFabric(LowerSharedCluster(inputs),
                          inputs.front().config.sim, any_covered);
}

SharedFabric MakeSharedFabric(MultiJobLowering lowering,
                              const sim::SimOptions& base,
                              bool enforce_gates) {
  SharedFabric fabric{std::move(lowering), base};
  fabric.options.enforce_gates = enforce_gates;
  // Non-null exactly when a config enabled sim.flow_fairness
  // (lower_flow_nics).
  fabric.options.network = fabric.lowering.combined.flow.get();
  fabric.options.flow_fairness |= fabric.options.network != nullptr;
  return fabric;
}

namespace {

// SliceResult's start/end/makespan (everything but start_order).
sim::SimResult SliceTimes(const sim::SimResult& combined,
                          const MultiJobLowering::JobSlice& job) {
  const auto first = static_cast<std::size_t>(job.first_task);
  const auto last = static_cast<std::size_t>(job.last_task);
  sim::SimResult out;
  out.start.assign(combined.start.begin() + static_cast<std::ptrdiff_t>(first),
                   combined.start.begin() + static_cast<std::ptrdiff_t>(last));
  out.end.assign(combined.end.begin() + static_cast<std::ptrdiff_t>(first),
                 combined.end.begin() + static_cast<std::ptrdiff_t>(last));
  if (job.start_offset != 0.0) {
    // The job's own clock starts at its arrival: waiting for the offset
    // is not execution time (and must not read as contention slowdown
    // or negative Eq.-3 efficiency downstream).
    for (double& start : out.start) start -= job.start_offset;
    for (double& end : out.end) end -= job.start_offset;
  }
  for (const double end : out.end) out.makespan = std::max(out.makespan, end);
  return out;
}

}  // namespace

sim::SimResult SliceResult(const sim::SimResult& combined,
                           const MultiJobLowering::JobSlice& job) {
  sim::SimResult out = SliceTimes(combined, job);
  for (const sim::TaskId t : combined.start_order) {
    if (t >= job.first_task && t < job.last_task) {
      out.start_order.push_back(t - job.first_task);
    }
  }
  return out;
}

std::vector<sim::SimResult> SliceResults(
    const sim::SimResult& combined,
    const std::vector<MultiJobLowering::JobSlice>& slices) {
  std::vector<sim::SimResult> out;
  out.reserve(slices.size());
  // owner[t]: the slice holding combined task t; -1 for arrival delays.
  std::vector<int> owner(combined.start.size(), -1);
  for (std::size_t j = 0; j < slices.size(); ++j) {
    const MultiJobLowering::JobSlice& slice = slices[j];
    out.push_back(SliceTimes(combined, slice));
    out.back().start_order.reserve(
        static_cast<std::size_t>(slice.last_task - slice.first_task));
    std::fill(owner.begin() + slice.first_task,
              owner.begin() + slice.last_task, static_cast<int>(j));
  }
  for (const sim::TaskId t : combined.start_order) {
    const int j = owner[static_cast<std::size_t>(t)];
    if (j >= 0) {
      out[static_cast<std::size_t>(j)].start_order.push_back(
          t - slices[static_cast<std::size_t>(j)].first_task);
    }
  }
  return out;
}

MultiJobRunner::MultiJobRunner(MultiJobSpec spec) : spec_(std::move(spec)) {
  spec_.Validate();
  // The lowering copies what it needs, so the Runners and schedules are
  // dropped with the cache once the fabric is built.
  AnalysisCache cache;
  fabric_ = BuildSharedFabric(spec_.jobs, cache);
}

MultiJobRunner::MultiJobRunner(MultiJobSpec spec, SharedFabric fabric)
    : spec_(std::move(spec)), fabric_(std::move(fabric)) {
  spec_.Validate();
  if (fabric_.lowering.jobs.size() != spec_.jobs.size()) {
    Fail("the fabric has " + std::to_string(fabric_.lowering.jobs.size()) +
         " job slices but the spec has " + std::to_string(spec_.jobs.size()) +
         " jobs");
  }
}

MultiJobResult MultiJobRunner::Run() const {
  return Run(spec_.jobs.front().spec.iterations,
             spec_.jobs.front().spec.seed);
}

MultiJobResult MultiJobRunner::Run(int iterations,
                                   std::uint64_t seed) const {
  if (iterations < 1) {
    throw std::invalid_argument("MultiJobRunner: iterations must be >= 1");
  }
  const MultiJobLowering& lowering = fabric_.lowering;
  sim::TaskGraphSim sim = lowering.combined.BuildSim();

  MultiJobResult result;
  result.jobs.resize(spec_.jobs.size());
  double combined_samples = 0.0;
  for (std::size_t j = 0; j < spec_.jobs.size(); ++j) {
    const ExperimentSpec& job = spec_.jobs[j].spec;
    // Same expression (and evaluation order) as Runner::Run.
    const double samples = models::FindModel(job.model).standard_batch *
                           job.cluster.batch_factor * job.cluster.workers;
    result.jobs[j].samples_per_iteration = samples;
    result.jobs[j].iterations.reserve(static_cast<std::size_t>(iterations));
    combined_samples += samples;
  }
  result.combined.samples_per_iteration = combined_samples;
  result.combined.iterations.reserve(static_cast<std::size_t>(iterations));

  for (int i = 0; i < iterations; ++i) {
    const sim::SimResult run =
        sim.Run(fabric_.options, seed + static_cast<std::uint64_t>(i));
    result.combined.iterations.push_back(
        ComputeIterationStats(lowering.combined, run));
    const std::vector<sim::SimResult> sliced =
        SliceResults(run, lowering.jobs);
    for (std::size_t j = 0; j < lowering.jobs.size(); ++j) {
      result.jobs[j].iterations.push_back(
          ComputeIterationStats(lowering.jobs[j].lowering, sliced[j]));
    }
  }
  return result;
}

}  // namespace tictac::runtime
