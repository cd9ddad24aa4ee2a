#include "ir/passes.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/chunking.h"
#include "core/policy_registry.h"
#include "core/properties.h"
#include "core/time_oracle.h"
#include "ir/lower.h"
#include "models/topology.h"
#include "runtime/sharding.h"
#include "sim/flow.h"

namespace tictac::ir {
namespace {

void RequireStage(const Module& module, Stage required, const char* pass) {
  if (module.stage != required) {
    throw std::invalid_argument(
        std::string("ir.") + pass + ": requires a " + ToString(required) +
        " module, got " + ToString(module.stage) +
        " (check the pass order — see ir/passes.h)");
  }
}

// --- chunk_transfers --------------------------------------------------------

class ChunkTransfersPass final : public Pass {
 public:
  std::string name() const override { return "chunk_transfers"; }

  void Run(Module& module) const override {
    RequireStage(module, Stage::kLogical, "chunk_transfers");
    bool any = false;
    for (std::size_t j = 0; j < module.jobs.size(); ++j) {
      const JobInfo& job = module.jobs[j];
      if (job.config.chunk_bytes == 0) continue;
      // chunk= was explicitly requested for this job: a non-positive
      // size is a configuration error, not "off".
      core::ChunkingOptions{.max_chunk_bytes = job.config.chunk_bytes}
          .Validate();
      if (job.scheduled) {
        throw std::invalid_argument(
            "ir.chunk_transfers: job " + std::to_string(j) +
            " is already scheduled — chunking rewrites the recv set the "
            "schedule ranks, so chunk_transfers must run before "
            "compute_schedules");
      }
      any = true;
    }
    if (!any) return;

    Module out;
    out.stage = Stage::kLogical;
    out.jobs = module.jobs;
    for (std::size_t j = 0; j < module.jobs.size(); ++j) {
      JobInfo& job = out.jobs[j];
      if (job.config.chunk_bytes > 0) {
        job.graph = std::make_shared<const core::Graph>(core::ChunkTransfers(
            *job.graph,
            {.max_chunk_bytes = job.config.chunk_bytes}));
      }
      out.ranges.push_back(
          AppendLogicalNodes(out, *job.graph, static_cast<int>(j)));
    }
    module = std::move(out);
  }
};

// --- shard_params -----------------------------------------------------------

class ShardParamsPass final : public Pass {
 public:
  std::string name() const override { return "shard_params"; }

  void Run(Module& module) const override {
    RequireStage(module, Stage::kLogical, "shard_params");
    for (JobInfo& job : module.jobs) {
      // Jobs without parameter sizes imported their ps_of_param directly.
      if (job.param_bytes.empty()) continue;
      job.ps_of_param = runtime::ShardParams(
          job.param_bytes, job.config.num_ps, job.config.shard);
    }
  }
};

// --- compute_schedules ------------------------------------------------------

class ComputeSchedulesPass final : public Pass {
 public:
  std::string name() const override { return "compute_schedules"; }

  void Run(Module& module) const override {
    RequireStage(module, Stage::kLogical, "compute_schedules");
    for (std::size_t j = 0; j < module.jobs.size(); ++j) {
      const JobInfo& job = module.jobs[j];
      if (job.policy.empty()) continue;
      if (!job.graph) {
        throw std::invalid_argument(
            "ir.compute_schedules: job " + std::to_string(j) +
            " carries no logical graph to analyze");
      }
      const core::Graph& graph = *job.graph;
      const core::PropertyIndex index(graph);
      const auto policy = core::PolicyRegistry::Global().Create(job.policy);
      // Same oracle construction as Runner::MakeSchedule: each PS NIC is
      // time-shared by this job's W pair-channels (the config's platform
      // already carries any cross-job W_j/T contention scaling).
      core::PlatformModel effective = job.config.platform;
      effective.bandwidth_bps /= job.config.num_workers;
      const core::AnalyticalTimeOracle exact(effective);
      core::Schedule schedule;
      if (job.config.tac_oracle_sigma > 0.0 && policy->RequiresOracle()) {
        const core::NoisyTimeOracle noisy(exact, job.config.tac_oracle_sigma,
                                          /*seed=*/0x7ac0ff5e);
        schedule = policy->Compute(index, noisy);
      } else {
        schedule = policy->Compute(index, exact);
      }
      ApplyScheduleAttrs(module, j, graph, schedule);
    }
  }
};

// --- expand_replicas --------------------------------------------------------

class ExpandReplicasPass final : public Pass {
 public:
  std::string name() const override { return "expand_replicas"; }

  void Run(Module& module) const override {
    RequireStage(module, Stage::kLogical, "expand_replicas");
    Module out;
    out.stage = Stage::kReplicated;
    out.jobs = module.jobs;
    std::size_t nodes = 0;
    for (std::size_t j = 0; j < module.jobs.size(); ++j) {
      nodes += static_cast<std::size_t>(module.ranges[j].last -
                                        module.ranges[j].first) *
               static_cast<std::size_t>(module.jobs[j].config.num_workers);
    }
    out.Reserve(nodes);

    std::vector<NodeId> buf;
    for (std::size_t j = 0; j < module.jobs.size(); ++j) {
      const JobInfo& job = module.jobs[j];
      const JobRange& r = module.ranges[j];
      const int W = job.config.num_workers;
      const auto V = static_cast<std::size_t>(r.last - r.first);
      if (!job.graph) {
        throw std::invalid_argument(
            "ir.expand_replicas: job " + std::to_string(j) +
            " carries no logical graph");
      }
      // The worker partitions are identical (Model Replica); clones are
      // emitted predecessors-first so every pred id exists when wired.
      const std::vector<core::OpId> topo = job.graph->TopologicalOrder();
      if (topo.size() != V) {
        throw std::invalid_argument("worker graph has a cycle");
      }
      std::vector<std::size_t> pos_of(V);
      for (std::size_t pos = 0; pos < topo.size(); ++pos) {
        pos_of[static_cast<std::size_t>(topo[pos])] = pos;
      }

      const NodeId first = out.AddNodes(static_cast<std::size_t>(W) * V);
      NodeId n = first;
      for (int w = 0; w < W; ++w) {
        const NodeId worker_base =
            first + static_cast<NodeId>(static_cast<std::size_t>(w) * V);
        for (const core::OpId op_id : topo) {
          const NodeId src = r.first + op_id;
          switch (module.kind(src)) {
            case core::OpKind::kCompute:
            case core::OpKind::kRecv:
            case core::OpKind::kSend:
              break;
            default:
              throw std::invalid_argument(
                  "worker partition may only hold compute/recv/send ops");
          }
          out.CopyAttrs(n, module, src);
          out.op(n) = op_id;
          out.worker(n) = w;
          out.job(n) = static_cast<int>(j);
          buf.clear();
          for (const NodeId p : module.preds(src)) {
            buf.push_back(worker_base +
                          static_cast<NodeId>(
                              pos_of[static_cast<std::size_t>(p - r.first)]));
          }
          out.SetPreds(n++, buf);
        }
      }
      out.ranges.push_back(JobRange{first, n, kNoNode, 0});
      out.jobs[j].graph.reset();  // the logical stage ends here
    }
    module = std::move(out);
  }
};

// --- lower_ps_fabric --------------------------------------------------------

class LowerPsFabricPass final : public Pass {
 public:
  std::string name() const override { return "lower_ps_fabric"; }

  void Run(Module& module) const override {
    RequireStage(module, Stage::kReplicated, "lower_ps_fabric");
    Module out;
    out.stage = Stage::kLowered;
    out.jobs = module.jobs;
    // Upper bound: every replica, plus read/aggregate/update per param.
    std::size_t nodes = module.size();
    for (const JobInfo& job : module.jobs) nodes += 3 * job.ps_of_param.size();
    out.Reserve(nodes);

    std::vector<NodeId> buf;
    for (std::size_t j = 0; j < module.jobs.size(); ++j) {
      const JobInfo& job = module.jobs[j];
      const JobRange& r = module.ranges[j];
      const int W = job.config.num_workers;
      const int S = job.config.num_ps;
      if (W < 1 || S < 1) {
        throw std::invalid_argument("need >=1 worker and PS");
      }
      const core::PlatformModel& hw = job.config.platform;
      const std::vector<int>& ps_of_param = job.ps_of_param;
      const int P = static_cast<int>(ps_of_param.size());
      const auto V = static_cast<std::size_t>(r.last - r.first) /
                     static_cast<std::size_t>(W);

      // Job-LOCAL resource layout, identical to runtime/lowering.h;
      // merge_jobs remaps it onto the shared fabric.
      const auto downlink = [&](int w, int s) { return W + w * S + s; };
      const auto uplink = [&](int w, int s) { return W + W * S + w * S + s; };
      const auto ps_cpu = [&](int s) { return W + 2 * W * S + s; };

      // Each PS NIC is shared by W pair-channels.
      const double pair_bandwidth = hw.bandwidth_bps / W;
      const auto transfer_time = [&](std::int64_t bytes) {
        return hw.latency_s + static_cast<double>(bytes) / pair_bandwidth;
      };
      const auto ps_for = [&](int param) {
        if (param < 0 ||
            static_cast<std::size_t>(param) >= ps_of_param.size()) {
          throw std::invalid_argument("transfer op without valid param index");
        }
        return ps_of_param[static_cast<std::size_t>(param)];
      };

      const NodeId first =
          out.AddNodes(static_cast<std::size_t>(P + (r.last - r.first)));

      // PS-side read ops: parameters become available for sending at
      // iteration start (the PS activates all sends up front, §2.2).
      for (int p = 0; p < P; ++p) {
        const NodeId n = first + p;
        out.duration(n) = hw.ps_op_time_s;
        out.resource(n) = ps_cpu(ps_for(p));
        out.kind(n) = core::OpKind::kRead;
        out.param(n) = p;
        out.job(n) = static_cast<int>(j);
      }

      const bool scheduled = job.scheduled;
      const runtime::Enforcement enforcement = job.config.enforcement;
      const NodeId delta = first + P - r.first;  // replica id shift

      // (worker, op id) -> lowered node, for the aggregation fan-in.
      std::vector<NodeId> op_node(static_cast<std::size_t>(W) * V, kNoNode);

      for (NodeId src = r.first; src < r.last; ++src) {
        const int w = module.worker(src);
        const core::OpKind kind = module.kind(src);
        const NodeId n = src + delta;
        out.CopyAttrs(n, module, src);
        out.job(n) = static_cast<int>(j);
        buf.clear();
        switch (kind) {
          case core::OpKind::kRecv: {
            const int s = ps_for(module.param(src));
            out.resource(n) = downlink(w, s);
            out.duration(n) = transfer_time(module.bytes(src));
            buf.push_back(first + module.param(src));  // its read
            if (scheduled) {
              // The channel serves transfers in hand-off order (gRPC
              // FIFO), so the wire priority is the normalized rank — the
              // total order of §5.1 — rather than the raw (possibly
              // tied) schedule priority.
              const int rank = module.rank(src);
              if (rank == kNoRank) {
                throw std::invalid_argument(
                    "ir.lower_ps_fabric: scheduled job has an unranked "
                    "recv");
              }
              out.priority(n) = rank;
              if (enforcement == runtime::Enforcement::kHandoffGate) {
                out.gate_group(n) = w;
                out.gate_rank(n) = rank;
              }
              // kDagChain: dependency edges added in a post-pass below.
            }
            break;
          }
          case core::OpKind::kSend: {
            const int s = ps_for(module.param(src));
            out.resource(n) = uplink(w, s);
            out.duration(n) = transfer_time(module.bytes(src));
            // Gradient-push ordering (core/push_schedule.h) is
            // best-effort: the uplink channel honors priorities among
            // queued pushes, but no hand-off gate holds a ready gradient
            // back.
            if (module.sched_priority(src) != sim::kNoPriority) {
              out.priority(n) = module.sched_priority(src);
            }
            break;
          }
          case core::OpKind::kCompute: {
            out.resource(n) = w;
            double speed = 1.0;
            if (static_cast<std::size_t>(w) <
                job.config.worker_speed_factors.size()) {
              speed =
                  job.config.worker_speed_factors[static_cast<std::size_t>(w)];
              if (speed <= 0.0) {
                throw std::invalid_argument(
                    "worker speed factor must be > 0");
              }
            }
            out.duration(n) = module.cost(src) / (hw.compute_rate * speed);
            break;
          }
          default:
            throw std::invalid_argument(
                "worker partition may only hold compute/recv/send ops");
        }
        for (const NodeId p : module.preds(src)) buf.push_back(p + delta);
        out.SetPreds(n, buf);
        op_node[static_cast<std::size_t>(w) * V +
                static_cast<std::size_t>(module.op(src))] = n;
      }

      // DAG-chaining enforcement: each transfer depends on the completion
      // of its predecessor in the normalized order (§5.1's rejected
      // variant).
      if (scheduled && enforcement == runtime::Enforcement::kDagChain) {
        std::vector<std::vector<NodeId>> recvs_of_worker(
            static_cast<std::size_t>(W));
        for (NodeId n = first + P; n < static_cast<NodeId>(out.size());
             ++n) {
          if (out.kind(n) == core::OpKind::kRecv) {
            recvs_of_worker[static_cast<std::size_t>(out.worker(n))]
                .push_back(n);
          }
        }
        for (int w = 0; w < W; ++w) {
          const auto& recvs = recvs_of_worker[static_cast<std::size_t>(w)];
          std::vector<NodeId> by_rank(recvs.size());
          for (const NodeId n : recvs) {
            by_rank[static_cast<std::size_t>(out.priority(n))] = n;
          }
          for (std::size_t rank = 1; rank < by_rank.size(); ++rank) {
            const NodeId n = by_rank[rank];
            buf.assign(out.preds(n).begin(), out.preds(n).end());
            buf.push_back(by_rank[rank - 1]);
            out.SetPreds(n, buf);
          }
        }
      }

      // PS-side aggregation + update per parameter (training only):
      // aggregate fires once every worker's gradient push for that
      // parameter lands.
      if (job.config.training) {
        std::vector<std::vector<NodeId>> sends_of_param(
            static_cast<std::size_t>(P));
        for (int w = 0; w < W; ++w) {
          for (std::size_t op = 0; op < V; ++op) {
            const NodeId n = op_node[static_cast<std::size_t>(w) * V + op];
            if (out.kind(n) == core::OpKind::kSend) {
              sends_of_param[static_cast<std::size_t>(out.param(n))]
                  .push_back(n);
            }
          }
        }
        std::size_t with_gradient = 0;  // frozen parameters get none
        for (const auto& sends : sends_of_param) {
          with_gradient += !sends.empty();
        }
        NodeId n = out.AddNodes(2 * with_gradient);
        for (int p = 0; p < P; ++p) {
          const auto& sends = sends_of_param[static_cast<std::size_t>(p)];
          if (sends.empty()) continue;
          for (const core::OpKind kind :
               {core::OpKind::kAggregate, core::OpKind::kUpdate}) {
            out.duration(n) = hw.ps_op_time_s;
            out.resource(n) = ps_cpu(ps_for(p));
            out.kind(n) = kind;
            out.param(n) = p;
            out.job(n) = static_cast<int>(j);
            if (kind == core::OpKind::kAggregate) {
              out.SetPreds(n, sends);
            } else {
              buf.assign(1, n - 1);  // its aggregate
              out.SetPreds(n, buf);
            }
            ++n;
          }
        }
      }
      out.ranges.push_back(
          JobRange{first, static_cast<NodeId>(out.size()), kNoNode, 0});
    }
    module = std::move(out);
  }
};

// --- lower_allreduce_ring ---------------------------------------------------

class LowerAllreduceRingPass final : public Pass {
 public:
  std::string name() const override { return "lower_allreduce_ring"; }

  void Run(Module& module) const override {
    RequireStage(module, Stage::kReplicated, "lower_allreduce_ring");
    if (module.jobs.size() != 1) {
      throw std::invalid_argument(
          "ir.lower_allreduce_ring: the ring collective lowers a single "
          "job (got " + std::to_string(module.jobs.size()) +
          "); multi-job fabrics are parameter-server only");
    }
    const JobInfo& job = module.jobs.front();
    const JobRange r = module.ranges.front();
    const int W = job.config.num_workers;
    if (W < 2) throw std::invalid_argument("all-reduce needs >= 2 workers");
    if (!job.config.training) {
      throw std::invalid_argument("all-reduce applies to training only");
    }
    const core::PlatformModel& hw = job.config.platform;
    const auto V = static_cast<std::size_t>(r.last - r.first) /
                   static_cast<std::size_t>(W);

    // Replica ids and order are already exactly the legacy emission
    // (w-major, topo within); assign resources/durations in place and
    // append the ring rounds.
    int max_param = -1;
    for (NodeId n = r.first; n < r.last; ++n) {
      max_param = std::max(max_param, module.param(n));
    }
    const int P = max_param + 1;
    std::vector<std::vector<NodeId>> grad_ready(static_cast<std::size_t>(P));
    // Parameter -> gradient bytes, by lowest op id (the legacy lookup
    // scans ops in id order); worker 0's block covers every op.
    std::vector<std::int64_t> bytes_of_param(static_cast<std::size_t>(P), 0);
    std::vector<bool> bytes_known(static_cast<std::size_t>(P), false);
    {
      std::vector<NodeId> node_of_op(V, kNoNode);
      for (NodeId n = r.first; n < r.first + static_cast<NodeId>(V); ++n) {
        node_of_op[static_cast<std::size_t>(module.op(n))] = n;
      }
      for (std::size_t op = 0; op < V; ++op) {
        const NodeId n = node_of_op[op];
        if (module.kind(n) == core::OpKind::kSend && module.param(n) >= 0 &&
            !bytes_known[static_cast<std::size_t>(module.param(n))]) {
          bytes_of_param[static_cast<std::size_t>(module.param(n))] =
              module.bytes(n);
          bytes_known[static_cast<std::size_t>(module.param(n))] = true;
        }
      }
    }

    for (NodeId n = r.first; n < r.last; ++n) {
      const int w = module.worker(n);
      switch (module.kind(n)) {
        case core::OpKind::kRecv:
          // Weights are local: an instantaneous read on the worker.
          module.resource(n) = w;
          module.duration(n) = 0.0;
          break;
        case core::OpKind::kSend:
          // Gradient handoff to the collective: bookkeeping only; the
          // ring transfers are separate tasks below.
          module.resource(n) = w;
          module.duration(n) = 0.0;
          if (module.param(n) >= 0) {
            grad_ready[static_cast<std::size_t>(module.param(n))]
                .push_back(n);
          }
          break;
        case core::OpKind::kCompute: {
          module.resource(n) = w;
          double speed = 1.0;
          if (static_cast<std::size_t>(w) <
              job.config.worker_speed_factors.size()) {
            speed =
                job.config.worker_speed_factors[static_cast<std::size_t>(w)];
          }
          module.duration(n) = module.cost(n) / (hw.compute_rate * speed);
          break;
        }
        default:
          throw std::invalid_argument(
              "worker partition may only hold compute/recv/send ops");
      }
    }

    // Ring phases per parameter: 2(W-1) rounds, W chunk-transfers per
    // round (one per link, concurrently), each chunk bytes/W. A round
    // starts only when the previous round completes (bucket-synchronous
    // collective) — every transfer of a round shares one interned pred
    // list, the arena's best case.
    for (int p = 0; p < P; ++p) {
      const auto& ready = grad_ready[static_cast<std::size_t>(p)];
      if (ready.empty()) continue;
      const double chunk_time =
          hw.latency_s +
          static_cast<double>(bytes_of_param[static_cast<std::size_t>(p)]) /
              W / hw.bandwidth_bps;
      std::vector<NodeId> previous_round = ready;
      std::vector<NodeId> this_round;
      for (int round = 0; round < 2 * (W - 1); ++round) {
        this_round.clear();
        for (int link = 0; link < W; ++link) {
          const NodeId n = module.AddNode();
          module.kind(n) = core::OpKind::kSend;
          module.resource(n) = W + link;
          module.duration(n) = chunk_time;
          module.param(n) = p;
          module.job(n) = 0;
          module.SetPreds(n, previous_round);
          this_round.push_back(n);
        }
        std::swap(previous_round, this_round);
      }
    }

    module.ranges.front().last = static_cast<NodeId>(module.size());
    module.num_resources = 2 * W;
    module.total_workers = W;
    module.ring = true;
    module.stage = Stage::kMerged;
  }
};

// --- merge_jobs -------------------------------------------------------------

class MergeJobsPass final : public Pass {
 public:
  std::string name() const override { return "merge_jobs"; }

  void Run(Module& module) const override {
    RequireStage(module, Stage::kLowered, "merge_jobs");
    const auto fail = [](const std::string& message) {
      throw std::invalid_argument("multijob: " + message);
    };
    const int S = module.jobs.front().config.num_ps;
    long long total = 0;
    for (const JobInfo& job : module.jobs) {
      if (job.config.num_ps != S) {
        fail("all jobs must share the PS fleet: got num_ps=" +
             std::to_string(job.config.num_ps) + " vs " + std::to_string(S));
      }
      total += job.config.num_workers;
    }
    if (total > (1 << 20)) {
      fail("total workers across jobs must be <= 1048576, got " +
           std::to_string(total));
    }
    const int T = static_cast<int>(total);

    int base_w = 0;
    for (std::size_t j = 0; j < module.jobs.size(); ++j) {
      const int W = module.jobs[j].config.num_workers;
      // Single-job resource index -> combined-fabric index. Identity when
      // this is the only job (base_w == 0, T == W).
      const auto remap_resource = [&](int r) {
        if (r < W) return base_w + r;  // worker computation
        if (r < W + W * S) {           // downlink channel (s -> w)
          const int w = (r - W) / S;
          const int s = (r - W) % S;
          return T + (base_w + w) * S + s;
        }
        if (r < W + 2 * W * S) {  // uplink channel (w -> s)
          const int w = (r - W - W * S) / S;
          const int s = (r - W - W * S) % S;
          return T + T * S + (base_w + w) * S + s;
        }
        return T + 2 * T * S + (r - W - 2 * W * S);  // shared PS CPU
      };
      const JobRange& r = module.ranges[j];
      for (NodeId n = r.first; n < r.last; ++n) {
        module.resource(n) = remap_resource(module.resource(n));
        // Hand-off counters are per (job, worker): renumbering by global
        // worker keeps every group disjoint across jobs.
        if (module.gate_group(n) >= 0) module.gate_group(n) += base_w;
        if (module.worker(n) >= 0) module.worker(n) += base_w;
      }
      module.ranges[j].first_worker = base_w;
      base_w += W;
    }
    module.num_resources = T + 2 * T * S + S;
    module.total_workers = T;
    module.stage = Stage::kMerged;
  }
};

// --- apply_arrival_offsets --------------------------------------------------

class ApplyArrivalOffsetsPass final : public Pass {
 public:
  std::string name() const override { return "apply_arrival_offsets"; }

  void Run(Module& module) const override {
    RequireStage(module, Stage::kMerged, "apply_arrival_offsets");
    if (module.iterations != 1) {
      throw std::invalid_argument(
          "ir.apply_arrival_offsets: must run before pipeline_iters "
          "(delays gate a job's first iteration only)");
    }
    bool any = false;
    for (const JobInfo& job : module.jobs) {
      if (job.start_offset < 0.0) {
        throw std::invalid_argument("multijob: start_offset must be >= 0, "
                                    "got " +
                                    std::to_string(job.start_offset));
      }
      any |= job.start_offset > 0.0;
    }
    if (!any) return;

    Module out;
    out.stage = Stage::kMerged;
    out.jobs = module.jobs;
    out.total_workers = module.total_workers;
    out.flow = module.flow;  // delay resources are appended past the
                             // fabric block, so the capacity graph holds

    out.Reserve(module.size() + module.jobs.size());

    std::vector<NodeId> buf;
    int delay_resources = 0;
    for (std::size_t j = 0; j < module.jobs.size(); ++j) {
      const JobRange& r = module.ranges[j];
      JobRange moved{0, 0, kNoNode, r.first_worker};
      if (module.jobs[j].start_offset > 0.0) {
        // Arrival offset: a delay task on its own resource, gating every
        // source task of the job below. Added *before* the job's range
        // so the job slice stays contiguous.
        const NodeId delay = out.AddNode();
        out.duration(delay) = module.jobs[j].start_offset;
        out.resource(delay) = module.num_resources + delay_resources;
        out.job(delay) = static_cast<int>(j);
        out.set_is_delay(delay, true);
        ++delay_resources;
        moved.delay = delay;
      }
      moved.first = out.AddNodes(static_cast<std::size_t>(r.last - r.first));
      const NodeId delta = moved.first - r.first;
      for (NodeId src = r.first; src < r.last; ++src) {
        const NodeId n = src + delta;
        out.CopyAttrs(n, module, src);
        buf.clear();
        for (const NodeId p : module.preds(src)) buf.push_back(p + delta);
        if (buf.empty() && moved.delay != kNoNode) buf.push_back(moved.delay);
        out.SetPreds(n, buf);
      }
      moved.last = static_cast<NodeId>(out.size());
      out.ranges.push_back(moved);
    }
    out.num_resources = module.num_resources + delay_resources;
    module = std::move(out);
  }
};

// --- lower_flow_nics --------------------------------------------------------

class LowerFlowNicsPass final : public Pass {
 public:
  // With `from_config` the fat-tree knobs come from the merged module's
  // job configs (which must agree); otherwise `options` wins.
  LowerFlowNicsPass() : from_config_(true) {}
  explicit LowerFlowNicsPass(models::FatTreeOptions options)
      : from_config_(false), options_(options) {}

  std::string name() const override {
    if (from_config_) return "lower_flow_nics";
    return "lower_flow_nics:pods=" + std::to_string(options_.pods) +
           ",over=" + FormatRatio(options_.oversubscription);
  }

  void Run(Module& module) const override {
    RequireStage(module, Stage::kMerged, "lower_flow_nics");
    if (module.flow != nullptr) {
      throw std::invalid_argument(
          "ir.lower_flow_nics: module already holds a flow network (the "
          "pass may run once)");
    }
    if (from_config_) {
      // The preset pipelines include this pass unconditionally; jobs that
      // never turn flow fairness on get no network and the static-split
      // lowering stays byte-identical.
      bool enabled = false;
      for (const JobInfo& job : module.jobs) {
        enabled |= job.config.sim.flow_fairness;
      }
      if (!enabled) return;
    }
    if (module.ring) {
      throw std::invalid_argument(
          "ir.lower_flow_nics: ring fabrics have no PS channel layout to "
          "attach a flow network to");
    }
    const JobInfo& first = module.jobs.front();
    models::FatTreeOptions options = options_;
    if (from_config_) {
      options.pods = first.config.fabric_pods;
      options.oversubscription = first.config.fabric_oversubscription;
      for (const JobInfo& job : module.jobs) {
        if (job.config.fabric_pods != options.pods ||
            job.config.fabric_oversubscription != options.oversubscription) {
          throw std::invalid_argument(
              "ir.lower_flow_nics: co-located jobs disagree on the fabric "
              "topology (pods=" +
              std::to_string(job.config.fabric_pods) + " vs " +
              std::to_string(options.pods) + ", over=" +
              FormatRatio(job.config.fabric_oversubscription) + " vs " +
              FormatRatio(options.oversubscription) +
              ") — one fabric, one topology");
        }
      }
    }
    const int T = module.total_workers;
    // Undo the W_j/T contention prescale (runtime/multijob.h) to recover
    // the fabric's line rate; exact for single jobs (W == T).
    models::FabricShape shape;
    shape.num_workers = T;
    shape.num_ps = first.config.num_ps;
    shape.bandwidth_bps =
        first.config.platform.bandwidth_bps * T / first.config.num_workers;
    shape.resource_base = 0;
    module.flow = std::make_shared<const sim::FlowNetwork>(
        models::BuildFatTreeFlowNetwork(shape, options));
  }

 private:
  static std::string FormatRatio(double value) {
    std::string s = std::to_string(value);
    while (s.size() > 1 && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
    return s;
  }

  bool from_config_;
  models::FatTreeOptions options_;
};

// --- pipeline_iters ---------------------------------------------------------

class PipelineItersPass final : public Pass {
 public:
  explicit PipelineItersPass(int iterations) : iterations_(iterations) {
    if (iterations_ < 1) {
      throw std::invalid_argument("iterations must be >= 1");
    }
  }

  std::string name() const override {
    return "pipeline_iters:" + std::to_string(iterations_);
  }

  void Run(Module& module) const override {
    RequireStage(module, Stage::kMerged, "pipeline_iters");
    if (module.iterations != 1) {
      throw std::invalid_argument(
          "ir.pipeline_iters: module already holds " +
          std::to_string(module.iterations) +
          " iterations (the pass may run once per pipeline)");
    }
    module.iterations = iterations_;
    if (iterations_ == 1) return;

    const auto n0 = static_cast<NodeId>(module.size());
    const int Wt = module.total_workers;

    // Iteration-0 stitches: per-(job, param) PS update and per-worker
    // final forward compute — the hooks consecutive iterations chain on.
    std::vector<std::vector<NodeId>> update_of(module.jobs.size());
    for (std::size_t j = 0; j < module.jobs.size(); ++j) {
      update_of[j].assign(module.jobs[j].ps_of_param.size(), kNoNode);
    }
    std::vector<NodeId> sink(static_cast<std::size_t>(Wt), kNoNode);
    for (NodeId t = 0; t < n0; ++t) {
      if (module.kind(t) == core::OpKind::kUpdate) {
        update_of[static_cast<std::size_t>(module.job(t))]
                 [static_cast<std::size_t>(module.param(t))] = t;
      }
      if (module.kind(t) == core::OpKind::kCompute && module.worker(t) >= 0 &&
          !module.is_delay(t)) {
        sink[static_cast<std::size_t>(module.worker(t))] = t;  // last wins
      }
    }

    // ids_prev[t] / ids_cur[t]: the iteration-(k-1) / k copy of
    // iteration-0 node t. Delay nodes are not replicated — later
    // iterations share the iteration-0 delay, so a staggered job's
    // arrival gates only its first iteration.
    std::vector<NodeId> ids_prev(static_cast<std::size_t>(n0));
    std::vector<NodeId> ids_cur(static_cast<std::size_t>(n0));
    for (NodeId t = 0; t < n0; ++t) {
      ids_prev[static_cast<std::size_t>(t)] = t;
    }

    NodeId delays = 0;
    for (NodeId t = 0; t < n0; ++t) delays += module.is_delay(t);
    const auto per_iteration = static_cast<std::size_t>(n0 - delays);
    module.Reserve(module.size() +
                   static_cast<std::size_t>(iterations_ - 1) * per_iteration);

    std::vector<NodeId> buf;
    for (int k = 1; k < iterations_; ++k) {
      // Ids first (chain edges may point forward in emission order).
      NodeId next = module.AddNodes(per_iteration);
      for (NodeId t = 0; t < n0; ++t) {
        ids_cur[static_cast<std::size_t>(t)] =
            module.is_delay(t) ? t : next++;
      }
      for (NodeId t = 0; t < n0; ++t) {
        if (module.is_delay(t)) continue;
        const NodeId n = ids_cur[static_cast<std::size_t>(t)];
        module.CopyAttrs(n, module, t);
        module.iteration(n) = k;
        // Enforcement counters reset each iteration (§5.1): distinct
        // gate group per (worker, iteration).
        if (module.gate_group(n) >= 0) module.gate_group(n) += k * Wt;

        // buf is complete before SetPreds, which may grow the pool the
        // source span points into.
        buf.clear();
        for (const NodeId p : module.preds(t)) {
          buf.push_back(ids_cur[static_cast<std::size_t>(p)]);
        }
        const core::OpKind kind = module.kind(t);
        const int worker = module.worker(t);
        const int job = module.job(t);
        const int param = module.param(t);
        if (kind == core::OpKind::kRecv && worker >= 0) {
          const auto& upd = update_of[static_cast<std::size_t>(job)];
          const NodeId stitched =
              static_cast<std::size_t>(param) < upd.size() &&
                      upd[static_cast<std::size_t>(param)] != kNoNode
                  // Training: pull k waits for update k-1 of the same
                  // parameter.
                  ? upd[static_cast<std::size_t>(param)]
                  // Inference serving loop: step k starts after forward
                  // k-1.
                  : sink[static_cast<std::size_t>(worker)];
          buf.push_back(ids_prev[static_cast<std::size_t>(stitched)]);
        }
        module.SetPreds(n, buf);
      }
      std::swap(ids_prev, ids_cur);
    }
  }

 private:
  int iterations_;
};

long long ParsePassArgInt(const std::string& name, const std::string& arg) {
  if (arg.empty()) {
    throw std::invalid_argument("ir: pass '" + name +
                                "' needs an argument, e.g. '" + name + ":4'");
  }
  try {
    std::size_t consumed = 0;
    const long long value = std::stoll(arg, &consumed);
    if (consumed == arg.size()) return value;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("ir: pass '" + name +
                              "' expects an integer argument, got '" + arg +
                              "'");
}

void RejectArg(const std::string& name, const std::string& arg) {
  if (!arg.empty()) {
    throw std::invalid_argument("ir: pass '" + name +
                                "' takes no argument, got ':" + arg + "'");
  }
}

}  // namespace

std::shared_ptr<const Pass> MakeChunkTransfersPass() {
  return std::make_shared<const ChunkTransfersPass>();
}
std::shared_ptr<const Pass> MakeShardParamsPass() {
  return std::make_shared<const ShardParamsPass>();
}
std::shared_ptr<const Pass> MakeComputeSchedulesPass() {
  return std::make_shared<const ComputeSchedulesPass>();
}
std::shared_ptr<const Pass> MakeExpandReplicasPass() {
  return std::make_shared<const ExpandReplicasPass>();
}
std::shared_ptr<const Pass> MakeLowerPsFabricPass() {
  return std::make_shared<const LowerPsFabricPass>();
}
std::shared_ptr<const Pass> MakeLowerAllreduceRingPass() {
  return std::make_shared<const LowerAllreduceRingPass>();
}
std::shared_ptr<const Pass> MakeMergeJobsPass() {
  return std::make_shared<const MergeJobsPass>();
}
std::shared_ptr<const Pass> MakeApplyArrivalOffsetsPass() {
  return std::make_shared<const ApplyArrivalOffsetsPass>();
}
std::shared_ptr<const Pass> MakePipelineItersPass(int iterations) {
  return std::make_shared<const PipelineItersPass>(iterations);
}
std::shared_ptr<const Pass> MakeLowerFlowNicsPass() {
  return std::make_shared<const LowerFlowNicsPass>();
}
std::shared_ptr<const Pass> MakeLowerFlowNicsPass(
    models::FatTreeOptions options) {
  return std::make_shared<const LowerFlowNicsPass>(options);
}

// Called once by PassRegistry::Global().
void RegisterBuiltinPasses(PassRegistry& registry) {
  using Factory = std::shared_ptr<const Pass> (*)();
  const std::pair<const char*, Factory> argless[] = {
      {"chunk_transfers", MakeChunkTransfersPass},
      {"shard_params", MakeShardParamsPass},
      {"compute_schedules", MakeComputeSchedulesPass},
      {"expand_replicas", MakeExpandReplicasPass},
      {"lower_ps_fabric", MakeLowerPsFabricPass},
      {"lower_allreduce_ring", MakeLowerAllreduceRingPass},
      {"merge_jobs", MakeMergeJobsPass},
      {"apply_arrival_offsets", MakeApplyArrivalOffsetsPass},
  };
  for (const auto& [name, make] : argless) {
    registry.Register(name, [name, make](const std::string& arg) {
      RejectArg(name, arg);
      return make();
    });
  }
  registry.Register("pipeline_iters", [](const std::string& arg) {
    const long long k = ParsePassArgInt("pipeline_iters", arg);
    if (k < 1 || k > std::numeric_limits<int>::max()) {
      throw std::invalid_argument("iterations must be >= 1");
    }
    return MakePipelineItersPass(static_cast<int>(k));
  });
  registry.Register("lower_flow_nics", [](const std::string& arg) {
    if (arg.empty()) return MakeLowerFlowNicsPass();
    models::FatTreeOptions options;
    std::size_t pos = 0;
    while (pos <= arg.size()) {
      std::size_t comma = arg.find(',', pos);
      if (comma == std::string::npos) comma = arg.size();
      const std::string kv = arg.substr(pos, comma - pos);
      const std::size_t eq = kv.find('=');
      const auto bad = [&](const std::string& why) {
        throw std::invalid_argument(
            "ir: pass 'lower_flow_nics' " + why + " in ':" + arg +
            "' — expected 'pods=<int>,over=<ratio>' (either key optional)");
      };
      if (eq == std::string::npos) bad("has a key without '='");
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      if (key != "pods" && key != "over") {
        bad("got unknown key '" + key + "'");
      }
      std::size_t consumed = 0;
      bool ok = false;
      try {
        if (key == "pods") {
          options.pods = std::stoi(value, &consumed);
        } else {
          options.oversubscription = std::stod(value, &consumed);
        }
        ok = consumed == value.size();
      } catch (const std::exception&) {
      }
      if (!ok) bad("got malformed value '" + value + "'");
      pos = comma + 1;
    }
    options.Validate();
    return MakeLowerFlowNicsPass(options);
  });
}

}  // namespace tictac::ir
