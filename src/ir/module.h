// Arena-interned task-graph IR (DESIGN.md §10).
//
// Every lowering in the runtime — cluster, pipeline, all-reduce,
// chunking, multi-job composition — is expressed as a sequence of small
// graph-rewrite passes over one shared representation, in the style of
// shady's passes/ + node.c: flat node storage with dense ids, an interned
// predecessor-list arena, and side-table attributes carrying provenance
// (job / worker / iteration / param) that the hot simulation path never
// touches.
//
// A Module moves through stages as passes lower it:
//
//   kLogical     one node per worker-graph op, per job (no resources);
//                the stage chunk_transfers / shard_params /
//                compute_schedules rewrite
//   kReplicated  ops cloned once per worker (expand_replicas)
//   kLowered     resources + durations assigned in each job's LOCAL
//                resource space (lower_ps_fabric); ring lowerings skip
//                straight to kMerged
//   kMerged      jobs remapped onto one shared fabric (merge_jobs);
//                the stage apply_arrival_offsets / pipeline_iters
//                rewrite and the sim/Lowering exporters consume
//
// Node ids are dense and stage-local: passes rebuild storage rather than
// mutate in place, so a NodeId is only meaningful against the module
// revision that produced it. Predecessor lists live in a content-interned
// arena — structurally identical lists (every transfer of an all-reduce
// round, every replica of a fan-in) share one span of the pool, which is
// both the memory win and what makes the flat storage cache-friendly to
// scan.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/graph.h"
#include "core/op.h"
#include "runtime/cluster.h"
#include "sim/task.h"

namespace tictac::ir {

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;
// Rank attribute of an unscheduled node (no normalized recv rank).
inline constexpr int kNoRank = -1;

// Content-interned predecessor-list arena: a CSR pool of NodeIds plus a
// dedupe index, so identical lists are stored once and a node holds only
// a ListId. The empty list is always id 0.
//
// The index is an open-addressing table of ListIds (linear probing,
// power-of-two size, load <= 1/2) over each list's cached content hash;
// a probe hit is confirmed by a full compare. Ids are handed out in
// first-intern order, so they — and the counters — do not depend on the
// table's size or probe order.
class PredArena {
 public:
  using ListId = std::int32_t;
  static constexpr ListId kEmptyList = 0;

  PredArena();

  // Presizes the index for `lists` distinct lists (a pass that knows its
  // node count passes it: no node interns more than one new list).
  void Reserve(std::size_t lists);

  // Returns the id of an existing identical list, or appends the list to
  // the pool and returns its fresh id.
  ListId Intern(std::span<const NodeId> list);

  std::span<const NodeId> list(ListId id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return {pool_.data() + s.offset, s.size};
  }

  // Distinct lists stored (including the empty list).
  std::size_t num_lists() const { return spans_.size(); }
  // Total NodeIds in the pool (what a non-interned layout would multiply).
  std::size_t pool_entries() const { return pool_.size(); }
  // Intern() calls answered by an existing list instead of new storage.
  std::size_t dedup_hits() const { return dedup_hits_; }

 private:
  struct Span {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t hash = 0;  // content hash; its low bits pick the slot
  };
  // Re-buckets every list into a table of `slots` (a power of two).
  void Rehash(std::size_t slots);

  std::vector<NodeId> pool_;
  std::vector<Span> spans_;
  // Open-addressing slots holding ListIds; kFreeSlot marks an empty one.
  // The empty list never enters the table (Intern answers it directly).
  std::vector<ListId> table_;
  std::size_t dedup_hits_ = 0;
};

enum class Stage { kLogical, kReplicated, kLowered, kMerged };
const char* ToString(Stage stage);

// Per-job lowering inputs carried alongside the nodes. The config's
// platform must already include any contention scaling (bandwidth · W/T
// for co-located jobs) — exactly the contract of runtime's lowering
// entry points.
struct JobInfo {
  runtime::ClusterConfig config;
  double start_offset = 0.0;
  // PolicyRegistry spec for the compute_schedules pass; empty when the
  // schedule was imported (or the job is unscheduled baseline).
  std::string policy;
  // Parameter sizes, for shard_params. May be empty when ps_of_param was
  // imported directly.
  std::vector<std::int64_t> param_bytes;
  // Parameter -> PS assignment (filled by shard_params or at import).
  std::vector<int> ps_of_param;
  // True when rank attributes cover every recv of the job (the §5.1
  // enforcement precondition — gates are only emitted when set).
  bool scheduled = false;
  // The job's logical worker graph, kept alongside the (equivalent)
  // kLogical nodes. The interned IR normalizes edge-list order away, but
  // core::ChunkTransfers' rewiring and the builder's edge insertion
  // order are observable in pred-list ordering downstream, so logical-
  // stage rewrites (chunk_transfers) both update the nodes and replace
  // this graph; expand_replicas and compute_schedules read it. Null once
  // the module leaves kLogical.
  std::shared_ptr<const core::Graph> graph;
};

// The contiguous node range of one job, maintained by every pass. The
// delay node (arrival offset) sits just before `first` and belongs to no
// range.
struct JobRange {
  NodeId first = 0;
  NodeId last = 0;  // [first, last)
  NodeId delay = kNoNode;
  int first_worker = 0;
};

class Module {
 public:
  // --- construction -------------------------------------------------------

  // Appends a default node (duration 0, no resource, no priority, empty
  // preds, provenance unset) and returns its id.
  NodeId AddNode() { return AddNodes(1); }
  // Appends `count` default nodes in one step per column and returns the
  // first new id.
  NodeId AddNodes(std::size_t count);
  // Presizes the columns and the arena index for `nodes` nodes in total.
  void Reserve(std::size_t nodes);
  std::size_t size() const { return hot_.size(); }

  // --- hot task fields (what the simulator consumes) ----------------------

  double& duration(NodeId n) { return hot_[idx(n)].duration; }
  double duration(NodeId n) const { return hot_[idx(n)].duration; }
  int& resource(NodeId n) { return hot_[idx(n)].resource; }
  int resource(NodeId n) const { return hot_[idx(n)].resource; }
  int& priority(NodeId n) { return hot_[idx(n)].priority; }
  int priority(NodeId n) const { return hot_[idx(n)].priority; }
  int& gate_group(NodeId n) { return hot_[idx(n)].gate_group; }
  int gate_group(NodeId n) const { return hot_[idx(n)].gate_group; }
  int& gate_rank(NodeId n) { return hot_[idx(n)].gate_rank; }
  int gate_rank(NodeId n) const { return hot_[idx(n)].gate_rank; }

  void SetPreds(NodeId n, std::span<const NodeId> preds) {
    hot_[idx(n)].preds = arena_.Intern(preds);
  }
  std::span<const NodeId> preds(NodeId n) const {
    return arena_.list(hot_[idx(n)].preds);
  }

  // --- side-table attributes (provenance; never read by the engine) -------

  core::OpKind& kind(NodeId n) { return attrs_[idx(n)].kind; }
  core::OpKind kind(NodeId n) const { return attrs_[idx(n)].kind; }
  core::OpId& op(NodeId n) { return attrs_[idx(n)].op; }
  core::OpId op(NodeId n) const { return attrs_[idx(n)].op; }
  int& worker(NodeId n) { return attrs_[idx(n)].worker; }
  int worker(NodeId n) const { return attrs_[idx(n)].worker; }
  int& job(NodeId n) { return attrs_[idx(n)].job; }
  int job(NodeId n) const { return attrs_[idx(n)].job; }
  int& iteration(NodeId n) { return attrs_[idx(n)].iteration; }
  int iteration(NodeId n) const { return attrs_[idx(n)].iteration; }
  int& param(NodeId n) { return attrs_[idx(n)].param; }
  int param(NodeId n) const { return attrs_[idx(n)].param; }
  std::int64_t& bytes(NodeId n) { return attrs_[idx(n)].bytes; }
  std::int64_t bytes(NodeId n) const { return attrs_[idx(n)].bytes; }
  double& cost(NodeId n) { return attrs_[idx(n)].cost; }
  double cost(NodeId n) const { return attrs_[idx(n)].cost; }
  // Normalized recv rank (§5.1 total order), kNoRank when unscheduled.
  int& rank(NodeId n) { return attrs_[idx(n)].rank; }
  int rank(NodeId n) const { return attrs_[idx(n)].rank; }
  // Raw schedule priority for best-effort send ordering.
  int& sched_priority(NodeId n) { return attrs_[idx(n)].sched_priority; }
  int sched_priority(NodeId n) const { return attrs_[idx(n)].sched_priority; }
  bool is_delay(NodeId n) const { return attrs_[idx(n)].delay; }
  void set_is_delay(NodeId n, bool value) { attrs_[idx(n)].delay = value; }

  // Copies every attribute of `src`'s node `from` except its preds onto
  // node `n` (preds are ids in `src`'s numbering; passes re-wire them).
  void CopyAttrs(NodeId n, const Module& src, NodeId from);

  // --- module-level state -------------------------------------------------

  Stage stage = Stage::kLogical;
  std::vector<JobInfo> jobs;
  std::vector<JobRange> ranges;  // aligned with jobs
  // Valid at kMerged: the shared-fabric resource count and ΣW workers.
  int num_resources = 0;
  int total_workers = 0;
  // Number of pipelined iterations represented (1 until pipeline_iters).
  int iterations = 1;
  // Set by lower_allreduce_ring: the fabric is a ring collective, so the
  // exported Lowering has no PS-side update/sink tables (the legacy
  // LowerAllReduce leaves them empty).
  bool ring = false;
  // Set by lower_flow_nics (valid at kMerged): the shared-fabric capacity
  // graph for SimOptions::flow_fairness — channel resources mapped to the
  // NIC / fat-tree core links they traverse (models/topology.h). Null =
  // static bandwidth/T split only. Shared, not copied, by the Lowering
  // exporters; passes that rebuild the module must carry it over.
  std::shared_ptr<const sim::FlowNetwork> flow;

  const PredArena& arena() const { return arena_; }

  // --- invariants ---------------------------------------------------------

  // Structural validation, run between passes when the pipeline's
  // check_invariants option is on: preds in range and acyclic, job
  // ranges partition the nodes in order, stage-consistent resources
  // (unassigned while logical/replicated, in [0, num_resources) once
  // merged), finite non-negative durations, and dense gate ranks per
  // group. Throws std::invalid_argument naming the violated invariant.
  void Validate() const;

  // One-line counts (nodes per kind, jobs, stage, arena dedup stats).
  std::string DebugSummary() const;
  // Per-node listing of the first `max_nodes` nodes, for dump hooks. At
  // kLogical each node also shows its op's name, read from its job's graph.
  std::string DebugDump(std::size_t max_nodes = 64) const;

 private:
  std::size_t idx(NodeId n) const { return static_cast<std::size_t>(n); }

  // Storage is two flat per-node record arrays: what the simulator
  // consumes, and the provenance side table. Passes write and copy a
  // node's fields together, so each record is stored together.
  struct Hot {
    double duration = 0.0;
    int resource = -1;
    int priority = sim::kNoPriority;
    int gate_group = -1;
    int gate_rank = -1;
    PredArena::ListId preds = PredArena::kEmptyList;
  };
  struct Attrs {
    std::int64_t bytes = 0;
    double cost = 0.0;
    core::OpId op = core::kInvalidOp;
    int worker = -1;
    int job = -1;
    int iteration = 0;
    int param = -1;
    int rank = kNoRank;
    int sched_priority = sim::kNoPriority;
    core::OpKind kind = core::OpKind::kCompute;
    bool delay = false;
  };
  std::vector<Hot> hot_;
  std::vector<Attrs> attrs_;

  PredArena arena_;
};

}  // namespace tictac::ir
