// FROZEN pre-IR lowering implementations, kept verbatim as the ground
// truth the pass-based pipeline is differentially pinned against
// (tests/ir_differential_test.cc) and as the "old layout" side of
// bench_lowering. Do not modify these: the public entry points in
// runtime/lowering.h, runtime/allreduce.h and runtime/multijob.h are now
// thin ir::PassPipeline presets, and every behavior change must happen
// in src/ir/ passes — these bodies exist precisely so a drift there is
// caught bit for bit.
//
// Built as the test-support library tictac_reference, outside libtictac;
// it puts tests/support on the include path, so users include
// "runtime/reference_lowering.h".
//
// Precedent: core/tac.h's TacFullRecompute, frozen in PR 2 for the same
// reason.
#pragma once

#include <vector>

#include "core/graph.h"
#include "core/schedule.h"
#include "runtime/cluster.h"
#include "runtime/lowering.h"
#include "runtime/multijob.h"

namespace tictac::runtime::reference {

// The pre-IR runtime::LowerCluster, verbatim.
Lowering LowerCluster(const core::Graph& worker_graph,
                      const core::Schedule& schedule,
                      const std::vector<int>& ps_of_param,
                      const ClusterConfig& config);

// The pre-IR runtime::LowerPipeline, verbatim.
PipelineLowering LowerPipeline(const core::Graph& worker_graph,
                               const core::Schedule& schedule,
                               const std::vector<int>& ps_of_param,
                               const ClusterConfig& config, int iterations);

// The pre-IR runtime::LowerAllReduce, verbatim.
Lowering LowerAllReduce(const core::Graph& worker_graph,
                        const ClusterConfig& config);

// The pre-IR runtime::LowerSharedCluster, verbatim (lowers each job with
// reference::LowerCluster).
MultiJobLowering LowerSharedCluster(const std::vector<JobLoweringInput>& jobs);

}  // namespace tictac::runtime::reference
