#include "ir/lower.h"

#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/passes.h"
#include "models/builder.h"
#include "models/zoo.h"

namespace tictac::ir {
namespace {

void RequireMerged(const Module& module, const char* exporter) {
  if (module.stage != Stage::kMerged) {
    throw std::invalid_argument(std::string("ir: ") + exporter +
                                " consumes a merged module, got " +
                                ToString(module.stage) +
                                " (run the lowering pipeline first)");
  }
}

// Appends nodes [first, last) to `out` as tasks: ids, preds, workers and
// gate groups shifted down by `first` / `base_w`, resources mapped by
// `resource_of`, and preds on `gate` (a job's arrival delay) dropped. The
// per-worker tables are sized exactly first, and with `ps_tables` the
// iteration-0 update_task/worker_sink entries are filled in the same pass
// (the last compute in emission order is a worker's sink).
template <typename ResourceOf>
void ExportTasks(const Module& module, NodeId first, NodeId last, int base_w,
                 NodeId gate, bool ps_tables, ResourceOf resource_of,
                 runtime::Lowering& out) {
  struct Counts {
    std::size_t tasks = 0, recvs = 0, params = 0;
  };
  std::vector<Counts> counts(out.worker_tasks.size());
  for (NodeId n = first; n < last; ++n) {
    if (module.worker(n) < 0) continue;
    Counts& c = counts[static_cast<std::size_t>(module.worker(n) - base_w)];
    ++c.tasks;
    if (module.kind(n) == core::OpKind::kRecv) {
      ++c.recvs;
      c.params += module.iteration(n) == 0;
    }
  }
  for (std::size_t w = 0; w < counts.size(); ++w) {
    out.worker_tasks[w].reserve(counts[w].tasks);
    out.worker_recv_tasks[w].reserve(counts[w].recvs);
    out.transfer_param[w].reserve(counts[w].params);
  }

  out.tasks.resize(static_cast<std::size_t>(last - first));
  for (NodeId n = first; n < last; ++n) {
    const sim::TaskId id = n - first;
    sim::Task& task = out.tasks[static_cast<std::size_t>(id)];
    task.duration = module.duration(n);
    task.resource = resource_of(module.resource(n));
    task.priority = module.priority(n);
    task.gate_group = module.gate_group(n) >= 0
                          ? module.gate_group(n) - base_w
                          : module.gate_group(n);
    task.gate_rank = module.gate_rank(n);
    const std::span<const NodeId> preds = module.preds(n);
    task.preds.reserve(preds.size());
    for (const NodeId p : preds) {
      if (p != gate) task.preds.push_back(p - first);
    }
    task.op = module.op(n);
    task.kind = module.kind(n);
    task.worker =
        module.worker(n) >= 0 ? module.worker(n) - base_w : module.worker(n);
    const bool first_iteration = module.iteration(n) == 0;
    if (task.worker >= 0) {
      const auto w = static_cast<std::size_t>(task.worker);
      out.worker_tasks[w].push_back(id);
      if (task.kind == core::OpKind::kRecv) {
        out.worker_recv_tasks[w].push_back(id);
        // transfer_param is an iteration-0 table (pipelined lowerings
        // keep the first iteration's copy, runtime/lowering.h).
        if (first_iteration) out.transfer_param[w].push_back(module.param(n));
      }
    }
    if (ps_tables && first_iteration) {
      if (task.kind == core::OpKind::kUpdate) {
        out.update_task[static_cast<std::size_t>(module.param(n))] = id;
      } else if (task.kind == core::OpKind::kCompute && task.worker >= 0) {
        out.worker_sink[static_cast<std::size_t>(task.worker)] = id;
      }
    }
  }
}

// Empty per-worker tables for `workers` workers, plus the update/sink
// tables (all -1) when `ps_tables`.
runtime::Lowering EmptyLowering(int workers, int resources, bool ps_tables,
                                std::size_t params) {
  runtime::Lowering out;
  out.num_workers = workers;
  out.num_resources = resources;
  const auto W = static_cast<std::size_t>(workers);
  out.worker_tasks.resize(W);
  out.worker_recv_tasks.resize(W);
  out.transfer_param.resize(W);
  if (ps_tables) {
    out.update_task.assign(params, -1);
    out.worker_sink.assign(W, -1);
  }
  return out;
}

// Reconstructs one job's own single-job Lowering — local task ids, local
// resource space, no arrival gate — from its slice of the merged module.
// The inverse of merge_jobs' remap + apply_arrival_offsets' delay edge.
runtime::Lowering ExportJobLocal(const Module& module, std::size_t j) {
  const JobInfo& job = module.jobs[j];
  const JobRange& r = module.ranges[j];
  const int W = job.config.num_workers;
  const int S = job.config.num_ps;
  const int T = module.total_workers;
  const int base_w = r.first_worker;

  const auto unmap_resource = [&](int res) {
    if (res < T) return res - base_w;  // worker computation
    if (res < T + T * S) {             // downlink channel
      const int g = (res - T) / S;
      const int s = (res - T) % S;
      return W + (g - base_w) * S + s;
    }
    if (res < T + 2 * T * S) {  // uplink channel
      const int g = (res - T - T * S) / S;
      const int s = (res - T - T * S) % S;
      return W + W * S + (g - base_w) * S + s;
    }
    return W + 2 * W * S + (res - T - 2 * T * S);  // PS CPU
  };

  runtime::Lowering local = EmptyLowering(W, W + 2 * W * S + S, true,
                                          job.ps_of_param.size());
  ExportTasks(module, r.first, r.last, base_w, r.delay, true, unmap_resource,
              local);
  return local;
}

void AppendStandardPasses(PassPipeline& pipeline, runtime::Topology topology,
                          int iterations) {
  pipeline.Add(MakeExpandReplicasPass());
  if (topology == runtime::Topology::kRing) {
    pipeline.Add(MakeLowerAllreduceRingPass());
  } else {
    pipeline.Add(MakeLowerPsFabricPass());
    pipeline.Add(MakeMergeJobsPass());
    // No-op (and no network built) unless a job's config enables
    // sim.flow_fairness, so the static-split presets are untouched.
    pipeline.Add(MakeLowerFlowNicsPass());
  }
  pipeline.Add(MakeApplyArrivalOffsetsPass());
  pipeline.Add(MakePipelineItersPass(iterations));
}

}  // namespace

JobRange AppendLogicalNodes(Module& module, const core::Graph& graph,
                            int job) {
  JobRange r;
  r.first = module.AddNodes(graph.size());
  r.last = static_cast<NodeId>(module.size());
  std::vector<NodeId> buf;
  NodeId n = r.first;
  for (const core::Op& op : graph.ops()) {
    module.kind(n) = op.kind;
    module.op(n) = op.id;
    module.param(n) = op.param;
    module.bytes(n) = op.bytes;
    module.cost(n) = op.cost;
    module.job(n) = job;
    buf.clear();
    for (const core::OpId p : graph.preds(op.id)) {
      buf.push_back(r.first + p);
    }
    module.SetPreds(n++, buf);
  }
  return r;
}

int AddJob(Module& module, JobInfo info) {
  if (module.stage != Stage::kLogical) {
    throw std::invalid_argument("ir: AddJob requires a logical-stage module");
  }
  if (!info.graph) {
    throw std::invalid_argument("ir: AddJob needs info.graph set");
  }
  const int j = static_cast<int>(module.jobs.size());
  module.ranges.push_back(AppendLogicalNodes(module, *info.graph, j));
  module.jobs.push_back(std::move(info));
  return j;
}

void ApplyScheduleAttrs(Module& module, std::size_t job,
                        const core::Graph& graph,
                        const core::Schedule& schedule) {
  const JobRange& r = module.ranges[job];
  const bool size_match = schedule.size() == graph.size();
  if (size_match && schedule.CoversAllRecvs(graph)) {
    const std::unordered_map<core::OpId, int> rank =
        schedule.NormalizedRecvRank(graph);
    for (const auto& [op_id, recv_rank] : rank) {
      module.rank(r.first + op_id) = recv_rank;
    }
    module.jobs[job].scheduled = true;
  }
  if (size_match) {
    for (const core::Op& op : graph.ops()) {
      if (op.kind == core::OpKind::kSend && schedule.HasPriority(op.id)) {
        module.sched_priority(r.first + op.id) = schedule.priority(op.id);
      }
    }
  }
}

Module BuildLogicalModule(
    const std::vector<runtime::JobLoweringInput>& jobs) {
  Module module;
  std::size_t nodes = 0;
  for (const runtime::JobLoweringInput& job : jobs) nodes += job.graph.size();
  module.Reserve(nodes);
  for (const runtime::JobLoweringInput& job : jobs) {
    JobInfo info;
    info.config = job.config;
    info.start_offset = job.start_offset;
    info.ps_of_param = job.ps_of_param;
    // Borrowed: the caller's graph outlives the lowering call.
    info.graph = std::shared_ptr<const core::Graph>(&job.graph,
                                                    [](const core::Graph*) {});
    const int j = AddJob(module, std::move(info));
    ApplyScheduleAttrs(module, static_cast<std::size_t>(j), job.graph,
                       job.schedule);
  }
  return module;
}

Module BuildModuleForSpec(const runtime::MultiJobSpec& spec) {
  spec.Validate();
  const int T = spec.TotalWorkers();
  Module module;
  for (const runtime::MultiJobEntry& entry : spec.jobs) {
    runtime::ClusterConfig config = entry.spec.BuildCluster();
    // Every PS NIC is time-shared by the pair-channels of ALL jobs'
    // workers: scale this job's platform bandwidth by W_j / T so the
    // per-channel figure (bandwidth / W_j) comes out as the contended
    // bandwidth / T. Exactly 1.0 for a single job.
    config.platform.bandwidth_bps *= static_cast<double>(config.num_workers) /
                                     static_cast<double>(T);
    const models::ModelInfo& model = models::FindModel(entry.spec.model);
    models::BuildOptions build;
    build.training = config.training;
    build.batch_factor = config.batch_factor;

    JobInfo info;
    info.config = config;
    info.start_offset = entry.start_offset;
    info.policy = entry.spec.policy;
    info.param_bytes = models::ParamSizes(model);
    info.graph = std::make_shared<const core::Graph>(
        models::BuildWorkerGraph(model, build));
    AddJob(module, std::move(info));
  }
  return module;
}

PassPipeline StandardLoweringPipeline(runtime::Topology topology,
                                      int iterations) {
  PassPipeline pipeline;
  AppendStandardPasses(pipeline, topology, iterations);
  return pipeline;
}

PassPipeline FullLoweringPipeline(runtime::Topology topology,
                                  int iterations) {
  PassPipeline pipeline;
  pipeline.Add(MakeChunkTransfersPass());
  pipeline.Add(MakeShardParamsPass());
  pipeline.Add(MakeComputeSchedulesPass());
  AppendStandardPasses(pipeline, topology, iterations);
  return pipeline;
}

runtime::Lowering ToLowering(const Module& module) {
  RequireMerged(module, "ToLowering");
  // update_task/worker_sink are single-job PS tables (parameter indices
  // are per-job): ring and multi-job lowerings leave them empty.
  const bool ps_tables = module.jobs.size() == 1 && !module.ring;
  runtime::Lowering out = EmptyLowering(
      module.total_workers, module.num_resources, ps_tables,
      ps_tables ? module.jobs.front().ps_of_param.size() : 0);
  out.flow = module.flow;
  ExportTasks(module, 0, static_cast<NodeId>(module.size()), 0, kNoNode,
              ps_tables, [](int res) { return res; }, out);
  return out;
}

runtime::PipelineLowering ToPipelineLowering(const Module& module) {
  runtime::PipelineLowering out;
  out.lowering = ToLowering(module);
  out.iterations = module.iterations;
  out.task_iteration.reserve(module.size());
  for (NodeId n = 0; n < static_cast<NodeId>(module.size()); ++n) {
    out.task_iteration.push_back(module.iteration(n));
  }
  return out;
}

runtime::MultiJobLowering ToMultiJobLowering(const Module& module) {
  RequireMerged(module, "ToMultiJobLowering");
  if (module.ring) {
    throw std::invalid_argument(
        "ir: ToMultiJobLowering needs a PS-fabric module; ring collectives "
        "have no shared fabric to slice");
  }
  if (module.iterations != 1) {
    throw std::invalid_argument(
        "ir: ToMultiJobLowering consumes single-iteration modules (the "
        "multi-job runner re-simulates the one-iteration graph)");
  }
  runtime::MultiJobLowering out;
  out.total_workers = module.total_workers;
  out.num_ps = module.jobs.front().config.num_ps;
  out.combined = ToLowering(module);
  // Parameter indices are per-job: the combined fabric has no meaningful
  // update/sink tables (matches the legacy LowerSharedCluster even for a
  // single job).
  out.combined.update_task.clear();
  out.combined.worker_sink.clear();
  for (std::size_t j = 0; j < module.jobs.size(); ++j) {
    runtime::MultiJobLowering::JobSlice slice;
    const JobRange& r = module.ranges[j];
    slice.first_task = r.first;
    slice.last_task = r.last;
    slice.first_worker = r.first_worker;
    slice.delay_task = r.delay == kNoNode ? -1 : r.delay;
    slice.start_offset = module.jobs[j].start_offset;
    slice.lowering = ExportJobLocal(module, j);
    out.jobs.push_back(std::move(slice));
  }
  return out;
}

}  // namespace tictac::ir
