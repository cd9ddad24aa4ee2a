// tictac_cli — command-line front end over the public API.
//
// Run `tictac_cli` with no arguments for the commands, the flags each one
// reads and the spec grammars; README.md walks through examples. The
// command and flag tables at the end of this file are the only place
// those sets are written down: parsing, the usage text and the dispatch
// are all derived from them.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/io.h"
#include "core/policy_registry.h"
#include "core/tic.h"
#include "exec/validate.h"
#include "fault/fault.h"
#include "harness/session.h"
#include "ir/lower.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "runtime/clustersweep.h"
#include "sched/placement.h"
#include "util/table.h"

using namespace tictac;

namespace {

struct Args {
  std::string model;
  std::string env = "envG";
  int workers = 4;
  int ps = 1;
  bool training = false;
  std::string policy = "tic";
  int iterations = 10;
  // run/sweep/multijob/lower/clustersweep: the joined spec text plus
  // output/executor options.
  std::string spec_text;
  int parallelism = 0;  // 0 = default (all cores for sweep)
  bool no_isolated = false;  // multijob: skip the isolated references
  bool dump = false;         // lower: per-pass module summaries
  enum class Emit { kTable, kCsv, kJson } emit = Emit::kTable;
  // serve: the service configuration (defaults mirror ServiceConfig).
  std::string arrivals;
  std::vector<std::string> serve_jobs;  // --job templates, repeatable
  int fabrics = 1;
  double duration = 10.0;
  std::string placement = "least-loaded";
  int max_jobs = 8;
  int queue = 64;
  std::uint64_t seed = 1;
  std::string trace_out;  // --trace: per-job JSON records file
  std::string faults;     // --faults: fault::FaultSpec grammar
  int retry_budget = 3;   // --retry-budget: evictions before failure
  // clustersweep: fabric count (0 = fewest the cap allows) and engine
  // threads (0 = hardware concurrency).
  int sweep_fabrics = 0;
  int threads = 0;
  // exec: sim-to-real validation knobs (exec::ExecSpec).
  std::vector<std::string> exec_policies;          // --policy, repeatable
  std::vector<std::pair<int, double>> stragglers;  // --straggler w=F
  bool deterministic = false;                      // virtual clock
  double link_jitter = 0.0;                        // lognormal sigma
};

// One subcommand. `operands` says what its bare (non-flag) tokens are:
// none, one leading <model>, or spec text, joined back together so an
// unquoted spec works.
struct Command {
  std::string_view name;
  enum class Operands { kNone, kModel, kSpec } operands;
  // Its cluster and policy settings come from spec text, so the flags
  // that set them elsewhere (kSpecKey below) get a pointer to the spec.
  bool spec_settings;
  std::string_view summary;
  int (*run)(const Args&);
};

// Writes one flag's value (null for a switch) into Args; false means
// usage, exit 2. `flag` is the flag's name, for messages.
using Store =
    std::function<bool(Args& args, std::string_view flag, const char* value)>;

// One flag, as read by `commands`. A flag whose value goes to different
// places for different commands has one row per destination.
struct Flag {
  std::string_view name;
  std::string_view value;  // usage placeholder; empty for a switch
  std::vector<std::string_view> commands;
  Store store;
  int traits = 0;  // kSpecKey | kRepeats
};
constexpr int kSpecKey = 1;  // the spec text has a key for this setting
constexpr int kRepeats = 2;  // may be given more than once

const std::vector<Command>& Commands();
const std::vector<Flag>& Flags();

bool Reads(const Flag& flag, std::string_view command) {
  for (const std::string_view c : flag.commands) {
    if (c == command) return true;
  }
  return false;
}

int Usage() {
  std::cerr << "usage:\n";
  for (const Command& command : Commands()) {
    std::string line = "  tictac_cli " + std::string(command.name);
    if (command.operands == Command::Operands::kModel) line += " <model>";
    for (const Flag& flag : Flags()) {
      if (!Reads(flag, command.name)) continue;
      std::string item = " [" + std::string(flag.name);
      if (!flag.value.empty()) item += ' ' + std::string(flag.value);
      item += flag.traits & kRepeats ? "]..." : "]";
      // Wrap at 80 columns, continuing under the command name.
      const std::size_t width = line.size() - line.rfind('\n') - 1;
      if (width + item.size() > 80) line += "\n       ";
      line += item;
    }
    std::cerr << line << "\n      " << command.summary << "\n";
  }
  std::cerr
      << "spec grammar:  envG:workers=8:ps=4:training model=VGG-16 "
         "policy=tac iterations=10 seed=1\n"
         "sweep grammar: comma lists on any axis, e.g. "
         "envG:workers=2,4,8:ps=1 models=VGG-16,Inception v2 "
         "policies=baseline,tic\n"
         "multijob grammar: whitespace-separated [COUNTx]{<spec>}[@offset_s]"
         " groups — COUNTx replicates the braced experiment spec, @offset_s "
         "delays its start by offset_s seconds (both optional), e.g. "
         "2x{envG:workers=4:ps=2:training model=ResNet-101 v1 "
         "policy=tac} {envG:workers=2:ps=2 model=VGG-16}@0.05\n"
         "arrival grammar: poisson:rate=R | bursty:rate=R:burst=B | "
         "trace:<csv of `t,<spec>` rows>\n"
         "fault grammar:  ';'-joined clauses or trace:<csv>, e.g. "
         "straggler:worker=2:factor=3:at=1:for=2; "
         "slowlink:nic=0:scale=0.25:at=1:for=2; crash:worker=2:at=5; "
         "crash:fabric=1:at=5; flap:nic=0:period=0.5:at=1:for=3\n"
         "placements: ";
  bool first_placement = true;
  for (const auto& name : sched::PlacementPolicyNames()) {
    std::cerr << (first_placement ? "" : ", ") << name;
    first_placement = false;
  }
  std::cerr << "\npolicies (see `tictac_cli policies`): ";
  bool first = true;
  for (const auto& name : core::PolicyRegistry::Global().List()) {
    std::cerr << (first ? "" : ", ") << name;
    first = false;
  }
  std::cerr << "\n";
  return 2;
}

int CmdListPolicies(const Args&) {
  util::Table table({"Policy", "Needs oracle", "Example spec"});
  const auto& registry = core::PolicyRegistry::Global();
  for (const auto& name : registry.List()) {
    const auto policy = registry.Create(name);
    table.AddRow({name, policy->RequiresOracle() ? "yes" : "no",
                  policy->name()});
  }
  table.Print(std::cout);
  return 0;
}

// Whole-string value parse; false (→ usage, exit 2) instead of letting
// std::sto* abort the process on "--workers abc" or accept "8x".
template <typename T>
bool ParseValue(const char* text, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = text;
    return true;
  } else {
    try {
      std::size_t consumed = 0;
      T parsed;
      if constexpr (std::is_same_v<T, int>) {
        parsed = std::stoi(text, &consumed);
      } else if constexpr (std::is_same_v<T, double>) {
        parsed = std::stod(text, &consumed);
      } else {
        static_assert(std::is_same_v<T, std::uint64_t>);
        parsed = std::stoull(text, &consumed);
      }
      if (consumed != std::strlen(text)) return false;
      out = parsed;
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }
}

// Store builders for the flag table.
template <typename T>
Store Into(T Args::*field) {
  return [field](Args& args, std::string_view, const char* value) {
    return ParseValue(value, args.*field);
  };
}

// Into, then a lower bound, with `note` appended to the complaint.
template <typename T>
Store AtLeast(T Args::*field, T min, std::string_view note = "") {
  return [=](Args& args, std::string_view flag, const char* value) {
    if (!ParseValue(value, args.*field)) return false;
    if (args.*field >= min) return true;
    std::cerr << flag << " must be >= " << min << note << "\n";
    return false;
  };
}

Store Append(std::vector<std::string> Args::*field) {
  return [field](Args& args, std::string_view, const char* value) {
    (args.*field).emplace_back(value);
    return true;
  };
}

Store Set(bool Args::*field) {
  return [field](Args& args, std::string_view, const char*) {
    args.*field = true;
    return true;
  };
}

Store EmitAs(Args::Emit emit) {
  return [emit](Args& args, std::string_view, const char*) {
    args.emit = emit;
    return true;
  };
}

void AppendSpecText(Args& args, std::string_view text) {
  if (!args.spec_text.empty()) args.spec_text += ' ';
  args.spec_text += text;
}

bool AppendSpec(Args& args, std::string_view, const char* value) {
  AppendSpecText(args, value);
  return true;
}

bool AddStraggler(Args& args, std::string_view flag, const char* value) {
  const std::string text = value;
  const std::size_t eq = text.find('=');
  int worker = 0;
  double factor = 0.0;
  if (eq == std::string::npos ||
      !ParseValue(text.substr(0, eq).c_str(), worker) ||
      !ParseValue(text.substr(eq + 1).c_str(), factor)) {
    std::cerr << flag << " expects worker=factor, e.g. " << flag << " 1=2.5\n";
    return false;
  }
  if (worker < 0 || factor < 1.0) {
    std::cerr << flag << " needs worker >= 0 and factor >= 1\n";
    return false;
  }
  args.stragglers.emplace_back(worker, factor);
  return true;
}

// Names `flag`, which `command` does not read, and says where it goes.
void Reject(const Command& command, std::string_view flag, bool spec_key) {
  std::cerr << command.name << ": " << flag << " is not accepted";
  if (command.spec_settings && spec_key) {
    std::cerr << " — put it in the spec text, e.g. "
                 "\"envG:workers=8:ps=2:training ... iterations=5\"\n";
    return;
  }
  std::vector<std::string_view> own;
  std::vector<std::string_view> owners;
  for (const Flag& f : Flags()) {
    if (Reads(f, command.name)) own.push_back(f.name);
    if (f.name == flag) {
      owners.insert(owners.end(), f.commands.begin(), f.commands.end());
    }
  }
  const auto list = [](const std::vector<std::string_view>& names) {
    std::string text;
    for (const std::string_view name : names) {
      if (!text.empty()) text += ", ";
      text += name;
    }
    return text.empty() ? std::string("no flags") : text;
  };
  std::cerr << " (" << command.name << " reads " << list(own) << "; uses of "
            << flag << " belong to " << list(owners) << ")\n";
}

// Every flag is checked against the command's rows in Flags(): a flag
// the command does not read is rejected by name, so no command silently
// ignores one. Returns the command to run, or null (→ usage, exit 2).
const Command* Parse(int argc, char** argv, Args& args) {
  if (argc < 2) return nullptr;
  const Command* command = nullptr;
  for (const Command& c : Commands()) {
    if (c.name == argv[1]) command = &c;
  }
  if (!command) {
    std::cerr << "unknown command: " << argv[1] << "\n";
    return nullptr;
  }
  const std::string_view name = command->name;
  int i = 2;
  if (command->operands == Command::Operands::kModel) {
    if (i >= argc) return nullptr;
    args.model = argv[i++];
  }
  for (; i < argc; ++i) {
    const std::string_view token = argv[i];
    if (!token.starts_with("--")) {
      if (command->operands != Command::Operands::kSpec) {
        std::cerr << name << ": unexpected argument: " << token << "\n";
        return nullptr;
      }
      AppendSpecText(args, token);
      continue;
    }
    const Flag* flag = nullptr;
    bool known = false;
    bool spec_key = false;
    for (const Flag& f : Flags()) {
      if (f.name != token) continue;
      known = true;
      spec_key |= (f.traits & kSpecKey) != 0;
      if (Reads(f, name)) flag = &f;
    }
    if (!known) {
      std::cerr << "unknown flag: " << token << "\n";
      return nullptr;
    }
    if (!flag) {
      Reject(*command, token, spec_key);
      return nullptr;
    }
    const char* value = nullptr;
    if (!flag->value.empty()) {
      if (i + 1 >= argc) return nullptr;
      value = argv[++i];
    }
    if (!flag->store(args, token, value)) return nullptr;
  }
  return command;
}

int CmdModels(const Args&) {
  util::Table table({"Model", "#Par", "MiB", "#Ops inf", "#Ops train",
                     "Batch", "Family"});
  for (const auto& info : models::ModelZoo()) {
    table.AddRow({info.name, std::to_string(info.num_params),
                  util::Fmt(info.total_param_mib, 2),
                  std::to_string(info.ops_inference),
                  std::to_string(info.ops_training),
                  std::to_string(info.standard_batch),
                  ToString(info.family)});
  }
  table.Print(std::cout);
  return 0;
}

int CmdSchedule(const Args& args) {
  const auto& info = models::FindModel(args.model);
  const core::Graph graph =
      models::BuildWorkerGraph(info, {.training = args.training});
  const auto policy = core::PolicyRegistry::Global().Create(args.policy);
  const core::PropertyIndex index(graph);
  const core::AnalyticalTimeOracle oracle{core::PlatformModel{}};
  const core::Schedule schedule = policy->Compute(index, oracle);
  std::cout << "# priority list for " << info.name << " ("
            << (args.training ? "training" : "inference") << ", "
            << policy->name() << ")\n"
            << "# rank param bytes priority op\n";
  int rank = 0;
  for (const core::OpId r : schedule.RecvOrder(graph)) {
    const core::Op& op = graph.op(r);
    std::cout << rank++ << " " << op.param << " " << op.bytes << " ";
    if (schedule.HasPriority(r)) {
      std::cout << schedule.priority(r);
    } else {
      std::cout << "-";  // the policy assigns no priority to this recv
    }
    std::cout << " " << op.name << "\n";
  }
  return 0;
}

int RunAndPrint(const runtime::ExperimentSpec& spec) {
  harness::Session session;
  const auto result = session.Run(spec);
  std::cout << "spec: " << spec.ToString() << "\n";
  std::cout << "  mean iteration time: "
            << util::Fmt(result.MeanIterationTime() * 1e3, 2) << " ms\n";
  std::cout << "  throughput:          " << util::Fmt(result.Throughput(), 1)
            << " samples/s\n";
  std::cout << "  scheduling eff. E:   "
            << util::Fmt(result.MeanEfficiency(), 3) << "\n";
  std::cout << "  comm/comp overlap:   " << util::Fmt(result.MeanOverlap(), 3)
            << "\n";
  std::cout << "  max straggler share: "
            << util::Fmt(result.MaxStragglerPct(), 1) << "%\n";
  return 0;
}

int CmdRun(const Args& args) {
  if (args.spec_text.empty()) {
    std::cerr << "run: missing experiment spec (use --spec \"...\")\n";
    return 2;
  }
  return RunAndPrint(runtime::ExperimentSpec::Parse(args.spec_text));
}

int CmdSweep(const Args& args) {
  if (args.spec_text.empty()) {
    std::cerr << "sweep: missing sweep spec (use --sweep \"...\")\n";
    return 2;
  }
  const auto sweep = runtime::SweepSpec::Parse(args.spec_text);
  const int parallelism = args.parallelism > 0
                              ? args.parallelism
                              : harness::Session::DefaultParallelism();
  harness::Session session;
  const harness::ResultTable results = session.RunAll(sweep, parallelism);
  switch (args.emit) {
    case Args::Emit::kCsv:
      std::cout << results.ToCsv();
      break;
    case Args::Emit::kJson:
      std::cout << results.ToJson();
      break;
    case Args::Emit::kTable:
      std::cerr << "sweep: " << results.size() << " runs ("
                << session.cached_runners() << " distinct graphs) on "
                << parallelism << " threads\n";
      results.ToTable().Print(std::cout);
      break;
  }
  return 0;
}

int CmdMultiJob(const Args& args) {
  if (args.spec_text.empty()) {
    std::cerr << "multijob: missing job list (use --jobs "
                 "\"2x{<experiment spec>} {<experiment spec>}@0.05\")\n";
    return 2;
  }
  const auto spec = runtime::MultiJobSpec::Parse(args.spec_text);
  harness::Session session;
  const harness::MultiJobReport report =
      session.RunMultiJob(spec, /*with_isolated=*/!args.no_isolated);
  if (args.emit == Args::Emit::kJson) {
    std::cout << report.ToJson();
    return 0;
  }
  std::cerr << "multijob: " << spec.jobs.size() << " jobs, "
            << spec.TotalWorkers() << " workers on "
            << spec.jobs.front().spec.cluster.ps << " shared PS ("
            << spec.jobs.front().spec.cluster.env << ")\n";
  std::cout << "combined: mean iteration "
            << util::Fmt(report.result.combined.MeanIterationTime() * 1e3, 2)
            << " ms, aggregate throughput "
            << util::Fmt(report.result.combined.Throughput(), 1)
            << " samples/s\n";
  report.ToTable().Print(std::cout);
  if (!report.isolated.empty()) {
    std::cout << "interference: mean slowdown "
              << util::Fmt(report.interference.mean_slowdown, 3) << "x, max "
              << util::Fmt(report.interference.max_slowdown, 3)
              << "x, Jain fairness "
              << util::Fmt(report.interference.fairness, 3) << "\n";
  }
  return 0;
}

int CmdLower(const Args& args) {
  if (args.spec_text.empty()) {
    std::cerr << "lower: missing job list (use --jobs "
                 "\"{<experiment spec>} {<experiment spec>}@0.05\"; a bare "
                 "experiment spec is accepted as a single job)\n";
    return 2;
  }
  // A bare experiment spec (no braces) is sugar for one job.
  std::string text = args.spec_text;
  if (text.find('{') == std::string::npos) text = '{' + text + '}';
  const auto spec = runtime::MultiJobSpec::Parse(text);

  // The whole composed scenario — chunking, sharding, schedule
  // computation, replica expansion, PS lowering, job merging, arrival
  // offsets, iteration pipelining — is ONE PassPipeline invocation over
  // one ir::Module (DESIGN.md §10).
  const ir::PassPipeline pipeline =
      ir::FullLoweringPipeline(spec.jobs.front().spec.cluster.topology);
  std::cerr << "lower: " << spec.jobs.size() << " job(s), "
            << spec.TotalWorkers() << " workers on "
            << spec.jobs.front().spec.cluster.ps
            << " shared PS; pass pipeline:";
  for (const auto& name : pipeline.names()) std::cerr << ' ' << name;
  std::cerr << "\n";

  ir::PipelineOptions options;
  options.check_invariants = true;  // validate the module after every pass
  if (args.dump) {
    options.dump = [](const std::string& pass, const ir::Module& module) {
      std::cerr << "  [after " << pass << "] " << module.DebugSummary()
                << "\n";
    };
  }
  const ir::Module module =
      pipeline.Run(ir::BuildModuleForSpec(spec), options);

  // Simulated exactly as multijob simulates BuildSharedFabric's fabric.
  bool any_scheduled = false;
  for (const auto& job : module.jobs) any_scheduled |= job.scheduled;
  const runtime::MultiJobRunner runner(
      spec, runtime::MakeSharedFabric(ir::ToMultiJobLowering(module),
                                      module.jobs.front().config.sim,
                                      any_scheduled));
  const runtime::MultiJobResult result = runner.Run();

  if (args.emit == Args::Emit::kJson) {
    std::cout << "{\n  \"passes\": [";
    bool first = true;
    for (const auto& name : pipeline.names()) {
      std::cout << (first ? "\"" : ", \"") << name << "\"";
      first = false;
    }
    std::cout << "],\n  \"combined\": {\"mean_iteration_s\": "
              << runtime::FormatDouble(result.combined.MeanIterationTime())
              << ", \"throughput\": "
              << runtime::FormatDouble(result.combined.Throughput())
              << "},\n  \"jobs\": [\n";
    for (std::size_t j = 0; j < result.jobs.size(); ++j) {
      const runtime::ExperimentSpec& job = spec.jobs[j].spec;
      std::cout << "    {\"model\": \"" << job.model << "\", \"policy\": \""
                << job.policy << "\", \"workers\": " << job.cluster.workers
                << ", \"mean_iteration_s\": "
                << runtime::FormatDouble(result.jobs[j].MeanIterationTime())
                << ", \"throughput\": "
                << runtime::FormatDouble(result.jobs[j].Throughput()) << "}"
                << (j + 1 < result.jobs.size() ? ",\n" : "\n");
    }
    std::cout << "  ]\n}\n";
    return 0;
  }

  std::cout << "combined: mean iteration "
            << util::Fmt(result.combined.MeanIterationTime() * 1e3, 2)
            << " ms, aggregate throughput "
            << util::Fmt(result.combined.Throughput(), 1) << " samples/s\n";
  util::Table table({"Job", "Model", "Policy", "Workers", "Iteration (ms)",
                     "Throughput", "E", "Overlap"});
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    const runtime::ExperimentSpec& job = spec.jobs[j].spec;
    table.AddRow({std::to_string(j), job.model, job.policy,
                  std::to_string(job.cluster.workers),
                  util::Fmt(result.jobs[j].MeanIterationTime() * 1e3, 2),
                  util::Fmt(result.jobs[j].Throughput(), 1),
                  util::Fmt(result.jobs[j].MeanEfficiency(), 3),
                  util::Fmt(result.jobs[j].MeanOverlap(), 3)});
  }
  table.Print(std::cout);
  return 0;
}

int CmdClusterSweep(const Args& args) {
  if (args.spec_text.empty()) {
    std::cerr << "clustersweep: missing job list (use --jobs "
                 "\"1000x{<experiment spec>}\")\n";
    return 2;
  }
  // Same group grammar as multijob, but replication counts up to 4096 —
  // the sweep partitions them over fabrics instead of packing one.
  std::vector<runtime::MultiJobEntry> jobs =
      runtime::ParseJobGroups(args.spec_text, /*max_count=*/4096);
  runtime::ClusterSweepOptions options;
  options.fabrics = args.sweep_fabrics;
  options.num_threads = args.threads;
  const runtime::ClusterSweep sweep(std::move(jobs), options);
  const runtime::ClusterSweepResult result = sweep.Run();
  if (args.emit == Args::Emit::kJson) {
    std::cout << result.ToJson();
    return 0;
  }
  std::cerr << "clustersweep: " << result.jobs << " jobs over "
            << result.fabrics << " fabrics (" << result.components
            << " engine shards), " << result.iterations << " iterations\n";
  util::Table table({"Metric", "Value"});
  table.AddRow({"mean makespan (ms)",
                util::Fmt(result.mean_makespan_s * 1e3, 2)});
  table.AddRow({"mean job iteration (ms)",
                util::Fmt(result.mean_job_iteration_s * 1e3, 2)});
  table.AddRow({"p50 job iteration (ms)",
                util::Fmt(result.p50_job_iteration_s * 1e3, 2)});
  table.AddRow({"p99 job iteration (ms)",
                util::Fmt(result.p99_job_iteration_s * 1e3, 2)});
  table.AddRow({"total throughput (samples/s)",
                util::Fmt(result.total_throughput, 1)});
  table.AddRow({"Jain fairness", util::Fmt(result.fairness, 3)});
  table.Print(std::cout);
  return 0;
}

int CmdServe(const Args& args) {
  if (args.arrivals.empty()) {
    std::cerr << "serve: missing arrival process (use --arrivals "
                 "\"poisson:rate=40\", \"bursty:rate=4:burst=8\", or "
                 "\"trace:arrivals.csv\")\n";
    return 2;
  }
  sched::ServiceConfig config;
  config.arrivals = sched::ArrivalSpec::Parse(args.arrivals);
  for (const std::string& job : args.serve_jobs) {
    config.workload.push_back(runtime::ExperimentSpec::Parse(job));
  }
  if (config.workload.empty() &&
      config.arrivals.kind != sched::ArrivalSpec::Kind::kTrace) {
    // A small default template so `serve --arrivals ...` works out of
    // the box; real studies pass their own --job specs.
    config.workload.push_back(runtime::ExperimentSpec::Parse(
        "envG:workers=4:ps=2:training model=Inception v2 policy=tac "
        "iterations=5"));
  }
  config.fabrics = args.fabrics;
  config.duration = args.duration;
  config.placement = args.placement;
  config.max_jobs_per_fabric = args.max_jobs;
  config.admission_queue_capacity = args.queue;
  config.seed = args.seed;
  if (!args.faults.empty()) {
    config.faults = fault::FaultSpec::Parse(args.faults);
  }
  config.retry_budget = args.retry_budget;
  harness::Session session;
  const sched::ServiceReport report = session.RunService(config);
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    if (!out) {
      std::cerr << "serve: cannot write trace file '" << args.trace_out
                << "'\n";
      return 1;
    }
    out << report.JobTraceJson();
    std::cerr << "serve: wrote " << report.jobs.size() << " job records to "
              << args.trace_out << "\n";
  }
  if (args.emit == Args::Emit::kJson) {
    std::cout << report.ToJson();
    return 0;
  }
  std::cerr << "serve: " << report.counters.arrivals << " arrivals over "
            << util::Fmt(config.duration, 2) << " s on " << config.fabrics
            << " fabric(s), placement " << config.placement << "\n";
  report.ToTable().Print(std::cout);
  return 0;
}

int CmdExec(const Args& args) {
  exec::ExecSpec spec;  // exec is always a training (push/pull) workload
  if (!args.model.empty()) spec.model = models::FindModel(args.model).name;
  if (!args.exec_policies.empty()) spec.policies = args.exec_policies;
  spec.num_workers = args.workers;
  spec.num_ps = args.ps;
  spec.iterations = args.iterations;
  spec.seed = args.seed;
  spec.deterministic = args.deterministic;
  spec.link_jitter_sigma = args.link_jitter;
  if (!args.stragglers.empty()) {
    spec.straggler_factors.assign(
        static_cast<std::size_t>(spec.num_workers), 1.0);
    for (const auto& [worker, factor] : args.stragglers) {
      if (worker >= spec.num_workers) {
        std::cerr << "exec: --straggler worker " << worker
                  << " out of range (have " << spec.num_workers
                  << " workers)\n";
        return 2;
      }
      spec.straggler_factors[static_cast<std::size_t>(worker)] = factor;
    }
  }
  harness::Session session;
  const exec::ExecReport report = session.RunExec(spec);
  if (args.emit == Args::Emit::kJson) {
    std::cout << report.ToJson();
    return 0;
  }
  std::cout << report.ToTable();
  return 0;
}

int CmdSimulate(const Args& args) {
  runtime::ExperimentSpec spec;
  spec.model = models::FindModel(args.model).name;
  spec.cluster.env = args.env;
  spec.cluster.workers = args.workers;
  spec.cluster.ps = args.ps;
  spec.cluster.training = args.training;
  spec.policy = args.policy;
  spec.iterations = args.iterations;
  return RunAndPrint(spec);
}

int CmdCompare(const Args& args) {
  runtime::SweepSpec sweep;
  sweep.models = {models::FindModel(args.model).name};
  sweep.env = args.env;
  sweep.workers = {args.workers};
  sweep.ps = {args.ps};
  sweep.tasks = {args.training};
  // Registration order puts "baseline" first, so every speedup's
  // reference row is present.
  sweep.policies = core::PolicyRegistry::Global().List();
  sweep.iterations = args.iterations;
  harness::Session session;
  const harness::ResultTable results =
      session.RunAll(sweep, harness::Session::DefaultParallelism());
  util::Table table({"Policy", "Iteration (ms)", "Throughput", "Speedup",
                     "E", "Overlap", "Max straggler %"});
  for (const auto& row : results.rows()) {
    table.AddRow({row.spec.policy,
                  util::Fmt(row.mean_iteration_s * 1e3, 1),
                  util::Fmt(row.throughput, 1),
                  util::FmtPct(results.SpeedupVsBaseline(row)),
                  util::Fmt(row.mean_efficiency, 3),
                  util::Fmt(row.mean_overlap, 3),
                  util::Fmt(row.max_straggler_pct, 1)});
  }
  table.Print(std::cout);
  return 0;
}

int CmdExportGraph(const Args& args) {
  const core::Graph graph = models::BuildWorkerGraph(
      models::FindModel(args.model), {.training = args.training});
  std::cout << core::GraphToString(graph);
  return 0;
}

int CmdExportDot(const Args& args) {
  const core::Graph graph = models::BuildWorkerGraph(
      models::FindModel(args.model), {.training = args.training});
  const core::Schedule tic = core::Tic(graph);
  std::cout << core::ToDot(graph, &tic);
  return 0;
}

const std::vector<Command>& Commands() {
  using enum Command::Operands;
  static const std::vector<Command> commands = {
      {"models", kNone, false,
       "List the model zoo with Table 1 characteristics.", CmdModels},
      {"policies", kNone, false, "List the registered scheduling policies.",
       CmdListPolicies},
      {"--list-policies", kNone, false, "Same as `tictac_cli policies`.",
       CmdListPolicies},
      {"schedule", kModel, false,
       "Print the priority list (the ordering wizard's output, §5).",
       CmdSchedule},
      {"run", kSpec, true,
       "Execute one declaratively specified experiment (grammar below).",
       CmdRun},
      {"sweep", kSpec, true,
       "Run a cartesian grid; rows are identical at every --parallel.",
       CmdSweep},
      {"multijob", kSpec, true,
       "Co-locate jobs on one shared PS fabric (DESIGN.md §6).",
       CmdMultiJob},
      {"lower", kSpec, true,
       "Lower jobs through one checked pass pipeline, simulate (DESIGN.md "
       "§10).",
       CmdLower},
      {"clustersweep", kSpec, true,
       "Split up to 4096 jobs over K fabrics, simulate sharded (DESIGN.md "
       "§11).",
       CmdClusterSweep},
      {"serve", kNone, true,
       "Scheduler service: arrivals, placement, SLOs, faults (DESIGN.md "
       "§7-8).",
       CmdServe},
      {"exec", kNone, false,
       "Run the graph on real PS threads: predicted vs measured (DESIGN.md "
       "§9).",
       CmdExec},
      {"simulate", kModel, false,
       "Simulate a cluster and report throughput / E / stragglers.",
       CmdSimulate},
      {"compare", kModel, false,
       "Every registered policy side by side against the baseline.",
       CmdCompare},
      {"export-graph", kModel, false,
       "Serialize the worker partition (core/io.h text format).",
       CmdExportGraph},
      {"export-dot", kModel, false,
       "Graphviz DOT of the worker partition with TIC priorities.",
       CmdExportDot},
  };
  return commands;
}

const std::vector<Flag>& Flags() {
  static const std::vector<Flag> flags = {
      {"--spec", "\"<spec>\"", {"run"}, AppendSpec},
      {"--sweep", "\"<sweep>\"", {"sweep"}, AppendSpec},
      {"--jobs", "\"<job groups>\"", {"multijob", "lower", "clustersweep"},
       AppendSpec},
      {"--arrivals", "\"<arrival>\"", {"serve"}, Into(&Args::arrivals)},
      {"--model", "<name>", {"exec"}, Into(&Args::model)},
      {"--policy", "<name>", {"schedule", "simulate"}, Into(&Args::policy),
       kSpecKey},
      {"--policy", "<name>", {"exec"}, Append(&Args::exec_policies),
       kSpecKey | kRepeats},
      {"--workers", "N", {"simulate", "compare", "exec"},
       Into(&Args::workers), kSpecKey},
      {"--ps", "N", {"simulate", "compare", "exec"}, Into(&Args::ps),
       kSpecKey},
      {"--training", "",
       {"schedule", "simulate", "compare", "export-graph", "export-dot"},
       Set(&Args::training), kSpecKey},
      {"--iterations", "N", {"simulate", "compare"}, Into(&Args::iterations),
       kSpecKey},
      {"--env", "<env>", {"simulate", "compare"}, Into(&Args::env), kSpecKey},
      {"--iters", "I", {"exec"}, Into(&Args::iterations)},
      {"--parallel", "N", {"sweep"}, AtLeast(&Args::parallelism, 1)},
      {"--no-isolated", "", {"multijob"}, Set(&Args::no_isolated)},
      {"--dump", "", {"lower"}, Set(&Args::dump)},
      {"--fabrics", "K", {"clustersweep"}, Into(&Args::sweep_fabrics)},
      {"--threads", "N", {"clustersweep"},
       AtLeast(&Args::threads, 0, " (0 = all cores)")},
      {"--fabrics", "K", {"serve"}, Into(&Args::fabrics)},
      {"--duration", "T", {"serve"}, Into(&Args::duration)},
      {"--job", "\"<spec>\"", {"serve"}, Append(&Args::serve_jobs),
       kRepeats},
      {"--placement", "<name>", {"serve"}, Into(&Args::placement)},
      {"--max-jobs", "N", {"serve"}, Into(&Args::max_jobs)},
      {"--queue", "N", {"serve"}, Into(&Args::queue)},
      {"--seed", "N", {"serve", "exec"}, Into(&Args::seed)},
      {"--faults", "\"<faults>\"", {"serve"}, Into(&Args::faults)},
      {"--retry-budget", "N", {"serve"}, Into(&Args::retry_budget)},
      {"--trace", "FILE", {"serve"}, Into(&Args::trace_out)},
      {"--straggler", "w=F", {"exec"}, AddStraggler, kRepeats},
      {"--deterministic", "", {"exec"}, Set(&Args::deterministic)},
      {"--link-jitter", "SIGMA", {"exec"}, AtLeast(&Args::link_jitter, 0.0)},
      {"--csv", "", {"sweep"}, EmitAs(Args::Emit::kCsv)},
      {"--json", "",
       {"sweep", "multijob", "lower", "clustersweep", "serve", "exec"},
       EmitAs(Args::Emit::kJson)},
  };
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const Command* command = Parse(argc, argv, args);
  if (!command) return Usage();
  try {
    return command->run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
