#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "core/chunking.h"
#include "core/policy_registry.h"
#include "harness/session.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "runtime/clustersweep.h"
#include "runtime/multijob.h"
#include "runtime/sharding.h"
#include "sched/arrival.h"
#include "sched/service.h"

namespace perfbench {

namespace core = tictac::core;
namespace harness = tictac::harness;
namespace models = tictac::models;
namespace runtime = tictac::runtime;
namespace sched = tictac::sched;
namespace sim = tictac::sim;

void Outcome::Fail(const std::string& what, std::uint64_t count) {
  failed += count;
  if (failures.size() < 5) failures.push_back(what);
}

namespace {

// The ten Table-1 models, in Table-1 order.
const std::vector<std::string>& TableOneModels() {
  static const std::vector<std::string> names = {
      "AlexNet v2",   "Inception v1",  "Inception v2", "Inception v3",
      "ResNet-50 v1", "ResNet-101 v1", "ResNet-50 v2", "ResNet-101 v2",
      "VGG-16",       "VGG-19"};
  return names;
}

std::string Join(const std::vector<std::string>& items, const char* sep) {
  std::string joined;
  for (const std::string& item : items) {
    joined += (joined.empty() ? "" : sep) + item;
  }
  return joined;
}

bool Positive(double value) { return std::isfinite(value) && value > 0.0; }

// Host seconds that part() takes.
template <typename Part>
double Timed(Part&& part) {
  const auto start = std::chrono::steady_clock::now();
  part();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Span names per policy; baseline scheduling is not a layer of its own
// (it assigns no priorities) and falls into the caller's self time.
const char* ScheduleSpan(const std::string& policy) {
  if (policy == "tac") return "core.tac";
  if (policy == "tic") return "core.tic";
  return nullptr;
}

// ---------------------------------------------------------------------------
// The runtime::Runner constructor and MakeSchedule, one layer call at a
// time. Mirrors src/runtime/runner.cc; the traced runs' bit-identity
// checks catch any drift.

struct Analyzed {
  const models::ModelInfo* model = nullptr;
  runtime::ClusterConfig config;
  core::Graph graph;
  std::unique_ptr<const core::PropertyIndex> index;  // points into graph
  std::vector<int> ps_of_param;
};

std::unique_ptr<Analyzed> Analyze(const models::ModelInfo& model,
                                  runtime::ClusterConfig config,
                                  Tracer& tracer, Counters& counters) {
  auto analyzed = std::make_unique<Analyzed>();
  analyzed->model = &model;
  analyzed->config = std::move(config);
  analyzed->config.Validate();
  models::BuildOptions build;
  build.training = analyzed->config.training;
  build.batch_factor = analyzed->config.batch_factor;
  {
    Tracer::Scope span(tracer, "models.graph");
    analyzed->graph = models::BuildWorkerGraph(model, build);
  }
  counters["models.ops"] += static_cast<double>(analyzed->graph.size());
  if (analyzed->config.chunk_bytes > 0) {
    Tracer::Scope span(tracer, "core.chunk");
    analyzed->graph = core::ChunkTransfers(
        analyzed->graph, {.max_chunk_bytes = analyzed->config.chunk_bytes});
  }
  {
    Tracer::Scope span(tracer, "core.index");
    analyzed->index = std::make_unique<const core::PropertyIndex>(analyzed->graph);
  }
  counters["core.index_builds"] += 1;
  analyzed->ps_of_param = runtime::ShardParams(
      models::ParamSizes(model), analyzed->config.num_ps, analyzed->config.shard);
  return analyzed;
}

// A tic/tac schedule must prioritize every recv; a failure is recorded
// against `outcome` under `label`.
void CheckCoverage(const core::Schedule& schedule, const core::Graph& graph,
                   const std::string& policy, const std::string& label,
                   Outcome& outcome) {
  if (ScheduleSpan(policy) == nullptr) return;
  if (schedule.size() != graph.size() || !schedule.CoversAllRecvs(graph)) {
    outcome.Fail(label + ": " + policy + " schedule leaves a recv unprioritized");
  }
}

core::Schedule MakeSchedule(const Analyzed& analyzed, const std::string& policy,
                            const std::string& label, Tracer& tracer,
                            Counters& counters, Outcome& outcome) {
  const std::unique_ptr<core::SchedulingPolicy> instance =
      core::PolicyRegistry::Global().Create(policy);
  core::PlatformModel effective = analyzed.config.platform;
  effective.bandwidth_bps /= analyzed.config.num_workers;
  const core::AnalyticalTimeOracle exact(effective);
  const char* span_name = ScheduleSpan(policy);
  core::Schedule schedule;
  {
    std::optional<Tracer::Scope> span;
    if (span_name != nullptr) span.emplace(tracer, span_name);
    if (analyzed.config.tac_oracle_sigma > 0.0 && instance->RequiresOracle()) {
      const core::NoisyTimeOracle noisy(exact, analyzed.config.tac_oracle_sigma,
                                        /*seed=*/0x7ac0ff5e);
      schedule = instance->Compute(*analyzed.index, noisy);
    } else {
      schedule = instance->Compute(*analyzed.index, exact);
    }
  }
  if (span_name != nullptr) {
    counters["core.schedules"] += 1;
    counters["core.recvs"] += static_cast<double>(analyzed.index->recvs().size());
    Tracer::Scope span(tracer, "bench.check");
    CheckCoverage(schedule, analyzed.graph, policy, label, outcome);
  }
  return schedule;
}

// Simulates one iteration under a span, then checks its trace.
sim::SimResult SimulateChecked(const std::vector<sim::Task>& tasks,
                               const std::string& label, Tracer& tracer,
                               Counters& counters, Outcome& outcome,
                               const std::function<sim::SimResult()>& run) {
  sim::SimResult result;
  {
    Tracer::Scope span(tracer, "sim.run");
    result = run();
  }
  counters["sim.tasks_run"] += static_cast<double>(tasks.size());
  Tracer::Scope span(tracer, "bench.check");
  const TraceCheck check = CheckTrace(tasks, result);
  if (!check.ok()) {
    outcome.Fail(label + ": " + std::to_string(check.violations) +
                 " trace violations, first: " + check.messages.front());
  }
  return result;
}

// ---------------------------------------------------------------------------
// zoo-train: Session::RunAll at parallelism 1 over all ten models,
// training on envG with 8 workers and 4 PS, baseline/tic/tac, 10
// iterations.

harness::ResultRow MakeRow(const runtime::ExperimentSpec& spec,
                           const runtime::ExperimentResult& result) {
  // Field for field as harness::Session builds its rows.
  harness::ResultRow row;
  row.spec = spec;
  row.mean_iteration_s = result.MeanIterationTime();
  row.throughput = result.Throughput();
  row.mean_efficiency = result.MeanEfficiency();
  row.mean_overlap = result.MeanOverlap();
  row.max_straggler_pct = result.MaxStragglerPct();
  row.mean_straggler_pct = result.MeanStragglerPct();
  row.unique_recv_orders = result.UniqueRecvOrders();
  return row;
}

class ZooTrain final : public Workload {
 public:
  ZooTrain(std::uint64_t seed, Size size) {
    const bool full = size == Size::kFull;
    models_ = full ? TableOneModels()
                   : std::vector<std::string>{"AlexNet v2", "VGG-16"};
    text_ = std::string(full ? "envG:workers=8:ps=4:training"
                             : "envG:workers=2:ps=1:training") +
            " models=" + Join(models_, ",") +
            " policies=baseline,tic,tac iterations=" + (full ? "10" : "2") +
            " seed=" + std::to_string(seed);
  }

  void Setup() override {
    specs_ = runtime::SweepSpec::Parse(text_).Expand();
    session_ = std::make_unique<harness::Session>();
    for (const runtime::ExperimentSpec& spec : specs_) session_->runner(spec);
  }

  // One RunAll call per spec: at parallelism 1, RunAll over all specs runs
  // them one after another through the same session, so the work is the
  // same.
  std::vector<double> Run() override {
    std::vector<double> parts;
    std::vector<harness::ResultRow> rows;
    try {
      for (const runtime::ExperimentSpec& spec : specs_) {
        parts.push_back(Timed([&] {
          const harness::ResultTable one = session_->RunAll(
              std::vector<runtime::ExperimentSpec>{spec}, /*parallelism=*/1);
          rows.insert(rows.end(), one.rows().begin(), one.rows().end());
        }));
      }
    } catch (const std::exception& error) {
      outcome_.Fail(std::string("RunAll threw: ") + error.what(), specs_.size());
    }
    table_ = harness::ResultTable(std::move(rows));
    return parts;
  }

  Outcome Finish() override {
    Outcome outcome = std::move(outcome_);
    Summarize(table_, outcome);
    return outcome;
  }

  Counters LibraryWork() const override {
    return {{"core.index_builds", static_cast<double>(session_->cached_runners())}};
  }

  std::vector<std::string> CliArgs() const override {
    return {"sweep", "--sweep", text_, "--csv", "--parallel", "1"};
  }

  Outcome Traced(Tracer& tracer, Counters& counters) override {
    Outcome outcome;
    std::vector<runtime::ExperimentSpec> specs;
    {
      Tracer::Scope span(tracer, "runtime.parse");
      specs = runtime::SweepSpec::Parse(text_).Expand();
    }
    // Session's runner cache, keyed the same way.
    std::unordered_map<std::string, std::unique_ptr<Analyzed>> cache;
    std::vector<harness::ResultRow> rows;
    for (const runtime::ExperimentSpec& spec : specs) {
      const std::string key = spec.model + '\n' + spec.cluster.ToString();
      std::unique_ptr<Analyzed>& analyzed = cache[key];
      counters["harness.runner_lookups"] += 1;
      if (analyzed) {
        counters["harness.runner_hits"] += 1;
      } else {
        analyzed = Analyze(models::FindModel(spec.model), spec.cluster.Build(),
                           tracer, counters);
      }
      rows.push_back(
          MakeRow(spec, RunSpec(*analyzed, spec, tracer, counters, outcome)));
    }
    Summarize(harness::ResultTable(std::move(rows)), outcome);
    return outcome;
  }

 private:
  // runtime::Runner::Run for a PS-fabric spec.
  static runtime::ExperimentResult RunSpec(const Analyzed& analyzed,
                                           const runtime::ExperimentSpec& spec,
                                           Tracer& tracer, Counters& counters,
                                           Outcome& outcome) {
    const std::string label = spec.ToString();
    if (analyzed.config.topology != runtime::Topology::kPsFabric) {
      throw std::invalid_argument(label + ": only PS-fabric specs are traced");
    }
    const core::Schedule schedule = MakeSchedule(analyzed, spec.policy, label,
                                                 tracer, counters, outcome);
    runtime::Lowering lowering;
    {
      Tracer::Scope span(tracer, "ir.lower");
      lowering = runtime::LowerCluster(analyzed.graph, schedule,
                                       analyzed.ps_of_param, analyzed.config);
    }
    counters["ir.tasks"] += static_cast<double>(lowering.tasks.size());
    sim::SimOptions options = analyzed.config.sim;
    options.enforce_gates = schedule.size() == analyzed.graph.size() &&
                            schedule.CoversAllRecvs(analyzed.graph);
    options.network = lowering.flow.get();
    std::optional<sim::TaskGraphSim> engine;
    {
      Tracer::Scope span(tracer, "sim.build");
      engine.emplace(lowering.BuildSim());
    }
    runtime::ExperimentResult result;
    result.samples_per_iteration = analyzed.model->standard_batch *
                                   analyzed.config.batch_factor *
                                   analyzed.config.num_workers;
    result.iterations.reserve(static_cast<std::size_t>(spec.iterations));
    for (int i = 0; i < spec.iterations; ++i) {
      const std::uint64_t seed = spec.seed + static_cast<std::uint64_t>(i);
      const sim::SimResult run =
          SimulateChecked(lowering.tasks, label, tracer, counters, outcome,
                          [&] { return engine->Run(options, seed); });
      Tracer::Scope span(tracer, "runtime.stats");
      result.iterations.push_back(runtime::ComputeIterationStats(lowering, run));
    }
    return result;
  }

  void Summarize(const harness::ResultTable& table, Outcome& outcome) const {
    const std::size_t expected = models_.size() * 3;
    outcome.attempted += expected;
    if (table.size() != expected) {
      if (outcome.failed == 0) {
        outcome.Fail("expected " + std::to_string(expected) + " rows, got " +
                     std::to_string(table.size()), expected);
      }
      return;
    }
    for (const harness::ResultRow& row : table.rows()) {
      if (!Positive(row.mean_iteration_s) || !Positive(row.throughput)) {
        outcome.Fail(row.spec.ToString() + ": non-positive iteration time");
      }
    }
    outcome.output = table.ToCsv();
    // Means over models of the per-model figures, in model order; the
    // CLI cross-check (perfbench/check.py) recomputes them from
    // `tictac_cli sweep --csv` the same way.
    double tac_speedup = 0.0;
    double tic_speedup = 0.0;
    double tac_straggler = 0.0;
    double baseline_straggler = 0.0;
    for (const harness::ResultRow& row : table.rows()) {
      if (row.spec.policy == "tac") {
        tac_speedup += table.SpeedupVsBaseline(row);
        tac_straggler += row.max_straggler_pct;
      } else if (row.spec.policy == "tic") {
        tic_speedup += table.SpeedupVsBaseline(row);
      } else {
        baseline_straggler += row.max_straggler_pct;
      }
    }
    const auto n = static_cast<double>(models_.size());
    outcome.simulated = {
        {"tac_speedup_pct", 100.0 * tac_speedup / n, "%"},
        {"tic_speedup_pct", 100.0 * tic_speedup / n, "%"},
        {"tac_straggler_pct", tac_straggler / n, "%"},
        {"baseline_straggler_pct", baseline_straggler / n, "%"},
    };
  }

  std::vector<std::string> models_;
  std::string text_;
  std::vector<runtime::ExperimentSpec> specs_;
  std::unique_ptr<harness::Session> session_;
  harness::ResultTable table_;
  Outcome outcome_;
};

// ---------------------------------------------------------------------------
// schedule-zoo: 10 models x {inference, training} x {unchunked, 1 MiB
// chunks} x {tic, tac} on envG with 8 workers and 4 PS, each through
// Runner::MakeSchedule's contended oracle. No simulation.

class ScheduleZoo final : public Workload {
 public:
  ScheduleZoo(std::uint64_t seed, Size size) {
    const std::vector<std::string> models =
        size == Size::kFull ? TableOneModels()
                            : std::vector<std::string>{"AlexNet v2", "VGG-16"};
    for (const std::string& model : models) {
      for (const char* task : {"inference", "training"}) {
        for (const char* chunk : {"", ":chunk=1048576"}) {
          for (const char* policy : {"tic", "tac"}) {
            texts_.push_back(std::string("envG:workers=8:ps=4:") + task + chunk +
                             " model=" + model + " policy=" + policy +
                             " iterations=1 seed=" + std::to_string(seed));
          }
        }
      }
    }
  }

  void Setup() override {
    for (const std::string& text : texts_) {
      specs_.push_back(runtime::ExperimentSpec::Parse(text));
    }
    for (const runtime::ExperimentSpec& spec : specs_) {
      policies_.push_back(core::PolicyRegistry::Global().Create(spec.policy));
      std::unique_ptr<runtime::Runner>& runner = runners_[Key(spec)];
      if (!runner) {
        runner = std::make_unique<runtime::Runner>(
            models::FindModel(spec.model), spec.cluster.Build());
      }
    }
  }

  std::vector<double> Run() override {
    std::vector<double> parts;
    schedules_.clear();
    schedules_.reserve(specs_.size());
    try {
      for (std::size_t i = 0; i < specs_.size(); ++i) {
        parts.push_back(Timed([&] {
          schedules_.push_back(
              runners_.at(Key(specs_[i]))->MakeSchedule(*policies_[i]));
        }));
      }
    } catch (const std::exception& error) {
      // Summarize counts the schedules that were not computed.
      outcome_.Fail(std::string("MakeSchedule threw: ") + error.what(), 0);
    }
    return parts;
  }

  Outcome Finish() override {
    Outcome outcome = std::move(outcome_);
    std::vector<const core::Graph*> graphs;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      graphs.push_back(&runners_.at(Key(specs_[i]))->worker_graph());
      if (i < schedules_.size()) {
        CheckCoverage(schedules_[i], *graphs.back(), specs_[i].policy,
                      texts_[i], outcome);
      }
    }
    Summarize(schedules_, graphs, outcome);
    return outcome;
  }

  std::vector<std::string> CliArgs() const override { return {}; }

  Outcome Traced(Tracer& tracer, Counters& counters) override {
    Outcome outcome;
    std::vector<runtime::ExperimentSpec> specs;
    {
      Tracer::Scope span(tracer, "runtime.parse");
      for (const std::string& text : texts_) {
        specs.push_back(runtime::ExperimentSpec::Parse(text));
      }
    }
    std::unordered_map<std::string, std::unique_ptr<Analyzed>> analyzed;
    for (const runtime::ExperimentSpec& spec : specs) {
      std::unique_ptr<Analyzed>& slot = analyzed[Key(spec)];
      counters["harness.runner_lookups"] += 1;
      if (slot) {
        counters["harness.runner_hits"] += 1;
      } else {
        slot = Analyze(models::FindModel(spec.model), spec.cluster.Build(),
                       tracer, counters);
      }
    }
    std::vector<core::Schedule> schedules;
    std::vector<const core::Graph*> graphs;
    for (const runtime::ExperimentSpec& spec : specs) {
      const Analyzed& entry = *analyzed.at(Key(spec));
      schedules.push_back(MakeSchedule(entry, spec.policy, spec.ToString(),
                                       tracer, counters, outcome));
      graphs.push_back(&entry.graph);
    }
    Summarize(schedules, graphs, outcome);
    return outcome;
  }

 private:
  static std::string Key(const runtime::ExperimentSpec& spec) {
    return spec.model + '\n' + spec.cluster.ToString();
  }

  // The canonical output: one line per schedule with the priority of
  // each recv, in graph order.
  void Summarize(const std::vector<core::Schedule>& schedules,
                 const std::vector<const core::Graph*>& graphs,
                 Outcome& outcome) const {
    outcome.attempted += texts_.size();
    if (schedules.size() != texts_.size()) {
      outcome.Fail("computed " + std::to_string(schedules.size()) + " of " +
                   std::to_string(texts_.size()) + " schedules",
                   texts_.size() - schedules.size());
    }
    double max_recvs = 0.0;
    double total_recvs = 0.0;
    for (std::size_t i = 0; i < schedules.size(); ++i) {
      const std::vector<core::OpId> recvs = graphs[i]->RecvOps();
      max_recvs = std::max(max_recvs, static_cast<double>(recvs.size()));
      total_recvs += static_cast<double>(recvs.size());
      outcome.output += texts_[i] + ",";
      for (const core::OpId op : recvs) {
        outcome.output += " " + std::to_string(schedules[i].priority(op));
      }
      outcome.output += "\n";
    }
    outcome.simulated = {{"max_recvs", max_recvs, "count"},
                         {"total_recvs", total_recvs, "count"}};
  }

  std::vector<std::string> texts_;
  std::vector<runtime::ExperimentSpec> specs_;
  std::vector<std::unique_ptr<core::SchedulingPolicy>> policies_;
  std::unordered_map<std::string, std::unique_ptr<runtime::Runner>> runners_;
  std::vector<core::Schedule> schedules_;
  Outcome outcome_;
};

// ---------------------------------------------------------------------------
// cluster-1000: ClusterSweep of 1000 identical AlexNet v2 jobs (2 workers,
// 1 PS, training, tac, 1 iteration) over 16 fabrics on 2 engine threads.

// Nearest-rank percentile, as ClusterSweep::Run reports it.
double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

class Cluster1000 final : public Workload {
 public:
  Cluster1000(std::uint64_t seed, Size size) {
    const bool full = size == Size::kFull;
    text_ = std::string(full ? "1000x" : "20x") +
            "{envG:workers=2:ps=1:training model=AlexNet v2 policy=tac "
            "iterations=1 seed=" +
            std::to_string(seed) + "}";
    options_.fabrics = full ? 16 : 4;
    options_.num_threads = 2;
  }

  void Setup() override {
    sweep_ = std::make_unique<runtime::ClusterSweep>(
        runtime::ParseJobGroups(text_, kMaxCount), options_);
  }

  std::vector<double> Run() override {
    return {Timed([&] {
      try {
        result_ = sweep_->Run();
      } catch (const std::exception& error) {
        outcome_.Fail(std::string("ClusterSweep::Run threw: ") + error.what(),
                      static_cast<std::uint64_t>(sweep_->num_jobs()));
      }
    })};
  }

  Outcome Finish() override {
    Outcome outcome = std::move(outcome_);
    outcome.attempted += static_cast<std::uint64_t>(sweep_->num_jobs());
    if (outcome.failed == 0) Summarize(result_, outcome);
    return outcome;
  }

  Outcome Traced(Tracer& tracer, Counters& counters) override;

  std::vector<std::string> CliArgs() const override {
    return {"clustersweep", "--jobs", text_, "--fabrics",
            std::to_string(options_.fabrics), "--threads",
            std::to_string(options_.num_threads), "--json"};
  }

 private:
  // The CLI's replication cap for clustersweep --jobs.
  static constexpr long long kMaxCount = 4096;

  struct Fabric {
    runtime::MultiJobSpec spec;
    runtime::MultiJobLowering lowering;
    sim::SimOptions options;
  };

  Fabric BuildFabric(runtime::MultiJobSpec spec, Tracer& tracer,
                     Counters& counters, Outcome& outcome) const;

  static void Summarize(const runtime::ClusterSweepResult& result,
                        Outcome& outcome) {
    for (std::size_t j = 0; j < result.job_mean_iteration_s.size(); ++j) {
      if (!Positive(result.job_mean_iteration_s[j])) {
        outcome.Fail("sweep job " + std::to_string(j) +
                     ": non-positive iteration time");
      }
    }
    if (result.job_mean_iteration_s.size() != static_cast<std::size_t>(result.jobs)) {
      outcome.Fail("the sweep reported " +
                   std::to_string(result.job_mean_iteration_s.size()) +
                   " job times for " + std::to_string(result.jobs) + " jobs");
    }
    outcome.output = result.ToJson();
    outcome.simulated = {{"p99_job_iter_s", result.p99_job_iteration_s, "s"},
                         {"jain_fairness", result.fairness, "ratio"}};
  }

  std::string text_;
  runtime::ClusterSweepOptions options_;
  std::unique_ptr<runtime::ClusterSweep> sweep_;
  runtime::ClusterSweepResult result_;
  Outcome outcome_;
};

// The MultiJobRunner constructor (src/runtime/multijob.cc), one layer call
// at a time.
Cluster1000::Fabric Cluster1000::BuildFabric(runtime::MultiJobSpec spec,
                                             Tracer& tracer, Counters& counters,
                                             Outcome& outcome) const {
  Fabric fabric;
  fabric.spec = std::move(spec);
  fabric.spec.Validate();
  const int total_workers = fabric.spec.TotalWorkers();
  std::vector<std::unique_ptr<Analyzed>> jobs;
  std::vector<core::Schedule> schedules;
  bool any_scheduled = false;
  for (const runtime::MultiJobEntry& entry : fabric.spec.jobs) {
    runtime::ClusterConfig config = entry.spec.BuildCluster();
    config.platform.bandwidth_bps *= static_cast<double>(config.num_workers) /
                                     static_cast<double>(total_workers);
    jobs.push_back(Analyze(models::FindModel(entry.spec.model), std::move(config),
                           tracer, counters));
    counters["harness.runner_lookups"] += 1;
    schedules.push_back(MakeSchedule(*jobs.back(), entry.spec.policy,
                                     entry.spec.ToString(), tracer, counters,
                                     outcome));
    any_scheduled |= schedules.back().size() == jobs.back()->graph.size() &&
                     schedules.back().CoversAllRecvs(jobs.back()->graph);
  }
  std::vector<runtime::JobLoweringInput> inputs;
  inputs.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    inputs.push_back(runtime::JobLoweringInput{
        jobs[j]->graph, schedules[j], jobs[j]->ps_of_param, jobs[j]->config,
        fabric.spec.jobs[j].start_offset});
  }
  {
    Tracer::Scope span(tracer, "ir.lower");
    fabric.lowering = runtime::LowerSharedCluster(inputs);
  }
  counters["ir.tasks"] += static_cast<double>(fabric.lowering.combined.tasks.size());
  fabric.options = jobs.front()->config.sim;
  fabric.options.enforce_gates = any_scheduled;
  fabric.options.network = fabric.lowering.combined.flow.get();
  fabric.options.flow_fairness |= fabric.options.network != nullptr;
  if (fabric.options.network != nullptr) {
    throw std::invalid_argument("flow-fairness fabrics are not traced");
  }
  return fabric;
}

// ClusterSweep's constructor and Run (src/runtime/clustersweep.cc), with
// each fabric's MultiJobRunner construction split into its layer calls.
Outcome Cluster1000::Traced(Tracer& tracer, Counters& counters) {
  Outcome outcome;
  std::vector<runtime::MultiJobEntry> jobs;
  {
    Tracer::Scope span(tracer, "runtime.parse");
    jobs = runtime::ParseJobGroups(text_, kMaxCount);
  }
  outcome.attempted += jobs.size();

  std::vector<Fabric> fabrics;
  std::vector<sim::Task> merged_tasks;
  std::vector<sim::TaskId> task_base;
  int merged_resources = 0;
  sim::SimOptions merged_options;
  {
    Tracer::Scope build(tracer, "runtime.sweep_build");
    const int n = static_cast<int>(jobs.size());
    const int count = options_.fabrics;
    const int base = n / count;
    const int extra = n % count;
    std::size_t next = 0;
    for (int f = 0; f < count; ++f) {
      const int size = base + (f < extra ? 1 : 0);
      runtime::MultiJobSpec spec;
      spec.jobs.assign(jobs.begin() + static_cast<std::ptrdiff_t>(next),
                       jobs.begin() + static_cast<std::ptrdiff_t>(next) + size);
      next += static_cast<std::size_t>(size);
      Tracer::Scope span(tracer, "runtime.fabric_build");
      fabrics.push_back(BuildFabric(std::move(spec), tracer, counters, outcome));
    }
    merged_options = fabrics.front().options;
    for (std::size_t f = 1; f < fabrics.size(); ++f) {
      merged_options.enforce_gates |= fabrics[f].options.enforce_gates;
      merged_options.flow_fairness |= fabrics[f].options.flow_fairness;
    }
    int gate_base = 0;
    for (const Fabric& fabric : fabrics) {
      const runtime::Lowering& lowering = fabric.lowering.combined;
      const auto first = static_cast<sim::TaskId>(merged_tasks.size());
      task_base.push_back(first);
      int max_gate = -1;
      for (const sim::Task& task : lowering.tasks) {
        sim::Task merged = task;
        merged.resource += merged_resources;
        for (sim::TaskId& pred : merged.preds) pred += first;
        if (merged.gate_group >= 0) {
          max_gate = std::max(max_gate, merged.gate_group);
          merged.gate_group += gate_base;
        }
        merged_tasks.push_back(std::move(merged));
      }
      merged_resources += lowering.num_resources;
      gate_base += max_gate + 1;
    }
    task_base.push_back(static_cast<sim::TaskId>(merged_tasks.size()));
    merged_options.network = nullptr;
  }

  runtime::ClusterSweepResult result;
  {
    Tracer::Scope run_span(tracer, "runtime.sweep_run");
    const runtime::ExperimentSpec& head = fabrics.front().spec.jobs.front().spec;
    const int iterations = head.iterations;
    std::optional<sim::TaskGraphSim> engine;
    {
      Tracer::Scope span(tracer, "sim.build");
      engine.emplace(merged_tasks, merged_resources);
    }
    result.jobs = static_cast<int>(jobs.size());
    result.fabrics = static_cast<int>(fabrics.size());
    result.iterations = iterations;
    {
      int max_component = -1;
      for (const int c : engine->ComponentOf(merged_options)) {
        max_component = std::max(max_component, c);
      }
      result.components = max_component + 1;
    }
    std::vector<runtime::ExperimentResult> per_job(jobs.size());
    {
      std::size_t g = 0;
      for (const Fabric& fabric : fabrics) {
        for (const runtime::MultiJobEntry& entry : fabric.spec.jobs) {
          const runtime::ExperimentSpec& job = entry.spec;
          per_job[g].samples_per_iteration =
              models::FindModel(job.model).standard_batch *
              job.cluster.batch_factor * job.cluster.workers;
          per_job[g].iterations.reserve(static_cast<std::size_t>(iterations));
          ++g;
        }
      }
    }
    double makespan_sum = 0.0;
    for (int i = 0; i < iterations; ++i) {
      const std::uint64_t seed = head.seed + static_cast<std::uint64_t>(i);
      const sim::SimResult run = SimulateChecked(
          merged_tasks, "iteration " + std::to_string(i), tracer, counters,
          outcome, [&] {
            return engine->RunParallel(merged_options, seed, options_.num_threads);
          });
      makespan_sum += run.makespan;
      std::size_t g = 0;
      for (std::size_t f = 0; f < fabrics.size(); ++f) {
        const auto first = static_cast<std::size_t>(task_base[f]);
        const auto last = static_cast<std::size_t>(task_base[f + 1]);
        sim::SimResult fabric_run;
        fabric_run.start.assign(run.start.begin() + static_cast<std::ptrdiff_t>(first),
                                run.start.begin() + static_cast<std::ptrdiff_t>(last));
        fabric_run.end.assign(run.end.begin() + static_cast<std::ptrdiff_t>(first),
                              run.end.begin() + static_cast<std::ptrdiff_t>(last));
        for (const sim::TaskId t : run.start_order) {
          if (t >= task_base[f] && t < task_base[f + 1]) {
            fabric_run.start_order.push_back(t - task_base[f]);
          }
        }
        for (const auto& slice : fabrics[f].lowering.jobs) {
          Tracer::Scope span(tracer, "runtime.stats");
          const sim::SimResult sliced = runtime::SliceResult(fabric_run, slice);
          per_job[g].iterations.push_back(
              runtime::ComputeIterationStats(slice.lowering, sliced));
          ++g;
        }
      }
    }
    result.mean_makespan_s = makespan_sum / static_cast<double>(iterations);
    double throughput_sum = 0.0;
    double throughput_sq_sum = 0.0;
    double iteration_sum = 0.0;
    for (const runtime::ExperimentResult& job : per_job) {
      const double mean = job.MeanIterationTime();
      result.job_mean_iteration_s.push_back(mean);
      iteration_sum += mean;
      const double throughput = job.Throughput();
      throughput_sum += throughput;
      throughput_sq_sum += throughput * throughput;
    }
    result.mean_job_iteration_s =
        iteration_sum / static_cast<double>(per_job.size());
    std::vector<double> sorted = result.job_mean_iteration_s;
    std::sort(sorted.begin(), sorted.end());
    result.p50_job_iteration_s = NearestRank(sorted, 0.50);
    result.p99_job_iteration_s = NearestRank(sorted, 0.99);
    result.total_throughput = throughput_sum;
    result.fairness =
        throughput_sq_sum > 0.0
            ? (throughput_sum * throughput_sum) /
                  (static_cast<double>(per_job.size()) * throughput_sq_sum)
            : 0.0;
  }
  Summarize(result, outcome);
  return outcome;
}

// ---------------------------------------------------------------------------
// serve-mix: Session::RunService with Poisson arrivals at 10 jobs/s over 2
// fabrics, least-loaded placement, three round-robin templates (ps=2,
// iterations=5): Inception v2 4w tac, VGG-16 2w tic, ResNet-50 v1 4w
// baseline. Admission stays open until the 23rd arrival, so every seed
// serves exactly 22 jobs: a Poisson count over a fixed 2 s would make the
// work, and so the host time, vary by +-25% from seed to seed.

class ServeMix final : public Workload {
 public:
  ServeMix(std::uint64_t seed, Size size) : seed_(seed) {
    const bool full = size == Size::kFull;
    const std::string tail = std::string(" iterations=") + (full ? "5" : "2") +
                             " seed=" + std::to_string(seed);
    templates_ = {
        "envG:workers=4:ps=2:training model=Inception v2 policy=tac" + tail,
        "envG:workers=2:ps=2:training model=VGG-16 policy=tic" + tail,
        "envG:workers=4:ps=2:training model=ResNet-50 v1 policy=baseline" + tail};
    jobs_ = full ? 22 : 4;
    duration_ = AdmissionHorizon();
  }

  // The seeded stream's (jobs_ + 1)-th arrival time: arrivals before it
  // are exactly the first jobs_ of the stream.
  double AdmissionHorizon() const {
    std::vector<runtime::ExperimentSpec> workload;
    for (const std::string& text : templates_) {
      workload.push_back(runtime::ExperimentSpec::Parse(text));
    }
    const sched::ArrivalSpec arrivals = sched::ArrivalSpec::Parse(kArrivals);
    for (double horizon = 8.0;; horizon *= 2.0) {
      const std::vector<sched::ArrivalEvent> events =
          sched::GenerateArrivals(arrivals, workload, horizon, seed_);
      if (events.size() > static_cast<std::size_t>(jobs_)) {
        return events[static_cast<std::size_t>(jobs_)].time;
      }
    }
  }

  void Setup() override { config_ = Parse(); }

  std::vector<double> Run() override {
    return {Timed([&] {
      try {
        report_ = harness::Session().RunService(config_);
      } catch (const std::exception& error) {
        outcome_.Fail(std::string("RunService threw: ") + error.what(),
                      static_cast<std::uint64_t>(jobs_));
      }
    })};
  }

  Outcome Finish() override {
    Outcome outcome = std::move(outcome_);
    if (outcome.failed == 0) {
      Summarize(report_, outcome);
    } else {
      outcome.attempted += static_cast<std::uint64_t>(jobs_);
    }
    return outcome;
  }

  std::vector<std::string> CliArgs() const override {
    std::vector<std::string> args = {
        "serve", "--arrivals", kArrivals, "--fabrics", "2", "--duration",
        runtime::FormatDouble(duration_), "--seed", std::to_string(seed_),
        "--placement", "least-loaded", "--json"};
    for (const std::string& text : templates_) {
      args.push_back("--job");
      args.push_back(text);
    }
    return args;
  }

  Outcome Traced(Tracer& tracer, Counters& counters) override {
    Outcome outcome;
    sched::ServiceConfig config;
    {
      Tracer::Scope span(tracer, "runtime.parse");
      config = Parse();
    }
    sched::ServiceReport report;
    {
      Tracer::Scope span(tracer, "sched.run");
      report = harness::Session().RunService(config);
    }
    const sched::ServiceCounters& c = report.counters;
    counters["sched.relowerings"] = static_cast<double>(c.fabric_relowerings);
    counters["sched.sim_runs"] = static_cast<double>(c.sim_runs);
    counters["sched.queued"] = static_cast<double>(c.queued);
    counters["sched.index_builds"] = static_cast<double>(c.property_index_builds);
    counters["sched.schedule_hits"] = static_cast<double>(c.schedule_cache_hits);
    counters["sched.schedule_lookups"] =
        static_cast<double>(c.schedule_cache_hits + c.schedules_computed);
    counters["harness.runner_hits"] = static_cast<double>(c.runner_cache_hits);
    counters["harness.runner_lookups"] =
        static_cast<double>(c.runner_cache_hits + c.property_index_builds);
    Summarize(report, outcome);
    return outcome;
  }

 private:
  static constexpr const char* kArrivals = "poisson:rate=10";

  sched::ServiceConfig Parse() const {
    sched::ServiceConfig config;
    config.arrivals = sched::ArrivalSpec::Parse(kArrivals);
    for (const std::string& text : templates_) {
      config.workload.push_back(runtime::ExperimentSpec::Parse(text));
    }
    config.fabrics = 2;
    config.duration = duration_;
    config.placement = "least-loaded";
    config.seed = seed_;
    config.Validate();
    return config;
  }

  void Summarize(const sched::ServiceReport& report, Outcome& outcome) const {
    outcome.attempted += static_cast<std::uint64_t>(jobs_);
    if (report.jobs.size() != static_cast<std::size_t>(jobs_)) {
      outcome.Fail(std::to_string(report.jobs.size()) + " jobs arrived, " +
                       std::to_string(jobs_) + " expected",
                   static_cast<std::uint64_t>(
                       std::abs(static_cast<long long>(report.jobs.size()) - jobs_)));
    }
    for (const sched::JobRecord& job : report.jobs) {
      if (job.rejected || job.failed || !Positive(job.completion_time) ||
          !Positive(job.mean_iter_s)) {
        outcome.Fail("service job " + std::to_string(job.id) +
                     (job.rejected ? " was rejected" : " did not complete"));
      }
    }
    outcome.output = report.ToJson();
    outcome.simulated = {{"p99_slowdown", report.p99_slowdown, "x"},
                         {"svc_makespan_s", report.makespan, "s"}};
  }

  std::uint64_t seed_;
  std::vector<std::string> templates_;
  int jobs_ = 0;
  double duration_ = 0.0;
  sched::ServiceConfig config_;
  sched::ServiceReport report_;
  Outcome outcome_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"zoo-train", "schedule-zoo",
                                                 "cluster-1000", "serve-mix"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       std::uint64_t seed, Size size) {
  if (name == "zoo-train") return std::make_unique<ZooTrain>(seed, size);
  if (name == "schedule-zoo") return std::make_unique<ScheduleZoo>(seed, size);
  if (name == "cluster-1000") return std::make_unique<Cluster1000>(seed, size);
  if (name == "serve-mix") return std::make_unique<ServeMix>(seed, size);
  throw std::invalid_argument("unknown workload '" + std::string(name) +
                              "'; expected one of " +
                              Join(WorkloadNames(), ", "));
}

}  // namespace perfbench
