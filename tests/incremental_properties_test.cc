// Differential tests: IncrementalProperties against the full Algorithm-1
// recompute, and the incremental TAC against the O(R²·V) reference
// implementation. The incremental path is only correct if it is
// *bit-identical* — M and P are float sums, and a last-ulp difference
// could flip the TacBefore comparator on a near-tie.
#include "core/incremental_properties.h"

#include <gtest/gtest.h>

#include "core/chunking.h"
#include "core/tac.h"
#include "models/builder.h"
#include "models/random_dag.h"
#include "models/zoo.h"

namespace tictac::core {
namespace {

using models::MakeRandomDag;
using models::RandomDagOptions;

// Bitwise property comparison (EXPECT_EQ on double is exact equality;
// kInfinity compares equal to itself).
void ExpectSameProps(const std::vector<RecvProperties>& full,
                     const std::vector<RecvProperties>& inc,
                     std::uint64_t seed, std::size_t step) {
  ASSERT_EQ(full.size(), inc.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].op, inc[i].op)
        << "recv " << i << " seed " << seed << " step " << step;
    EXPECT_EQ(full[i].M, inc[i].M)
        << "recv " << i << " seed " << seed << " step " << step;
    EXPECT_EQ(full[i].P, inc[i].P)
        << "recv " << i << " seed " << seed << " step " << step;
    EXPECT_EQ(full[i].Mplus, inc[i].Mplus)
        << "recv " << i << " seed " << seed << " step " << step;
  }
}

void ExpectSameSchedules(const Graph& g, const Schedule& a,
                         const Schedule& b) {
  for (const OpId r : g.RecvOps()) {
    EXPECT_EQ(a.priority(r), b.priority(r)) << "recv op " << r;
  }
}

// Every step of a TAC run: the incremental state must match a
// from-scratch UpdateProperties on the same outstanding set.
void ExpectMatchesFullRecomputeStepByStep(const PropertyIndex& index,
                                          const TimeOracle& oracle,
                                          std::uint64_t seed) {
  IncrementalProperties state(index, oracle);
  std::vector<bool> outstanding(index.recvs().size(), true);
  for (std::size_t step = 0; step < index.recvs().size(); ++step) {
    const auto full = index.UpdateProperties(oracle, outstanding);
    ExpectSameProps(full, state.props(), seed, step);

    // Complete the recv TAC would pick, so the trajectory exercised is
    // exactly the scheduling trajectory.
    int best = -1;
    for (std::size_t i = 0; i < outstanding.size(); ++i) {
      if (!outstanding[i]) continue;
      if (best < 0 ||
          TacBefore(full[i], full[static_cast<std::size_t>(best)])) {
        best = static_cast<int>(i);
      }
    }
    ASSERT_GE(best, 0);
    outstanding[static_cast<std::size_t>(best)] = false;
    state.CompleteRecv(static_cast<std::size_t>(best));
  }
  EXPECT_EQ(state.remaining(), 0u);
}

TEST(IncrementalProperties, MatchesFullRecomputeStepByStepOnRandomDags) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    RandomDagOptions options;
    options.num_recvs = 3 + static_cast<int>(seed % 13);
    options.num_computes = 6 + static_cast<int>((seed * 7) % 25);
    options.num_layers = 1 + static_cast<int>(seed % 5);
    options.edge_probability = 0.1 + 0.05 * static_cast<double>(seed % 10);
    options.with_sends = seed % 2 == 0;  // sends depend on *every* recv
    const Graph g = MakeRandomDag(options, seed);
    ExpectMatchesFullRecomputeStepByStep(
        PropertyIndex(g), AnalyticalTimeOracle{PlatformModel{}}, seed);
  }
}

// Random DAGs rarely share dep sets; a chunked zoo graph puts many ops in
// one dep-set class, and whole classes reach a count of 1 together.
TEST(IncrementalProperties, MatchesFullRecomputeStepByStepOnChunkedZooModel) {
  const Graph g = ChunkTransfers(
      models::BuildWorkerGraph(models::FindModel("AlexNet v2"),
                               {.training = true}),
      {.max_chunk_bytes = 1 << 20});
  ExpectMatchesFullRecomputeStepByStep(
      PropertyIndex(g), AnalyticalTimeOracle{PlatformModel{}}, /*seed=*/0);
}

// Ops sharing a dep set share one M re-sum: k compute ops that each
// depend on the same n recvs cost one n-entry re-sum per completion, not
// k of them, and each later re-sum walks only the recvs still
// outstanding.
TEST(IncrementalProperties, SharedDepSetIsResummedOncePerCompletion) {
  constexpr int kRecvs = 12;
  constexpr int kComputes = 40;
  Graph g;
  std::vector<OpId> recvs;
  for (int r = 0; r < kRecvs; ++r) {
    recvs.push_back(g.AddRecv("r", 1000 * (r + 1)));
  }
  for (int c = 0; c < kComputes; ++c) {
    const OpId op = g.AddCompute("c", 1.0 + c);
    for (const OpId r : recvs) g.AddEdge(r, op);
  }
  const PropertyIndex index(g);
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  IncrementalProperties state(index, oracle);
  EXPECT_EQ(state.resum_visits(), 0u);

  state.CompleteRecv(static_cast<std::size_t>(state.BestRecv()));
  EXPECT_GT(state.resum_visits(), 0u);
  EXPECT_LE(state.resum_visits(), static_cast<std::uint64_t>(kRecvs));

  // Later completions walk the 11, 10, ..., 1 members still outstanding.
  while (state.remaining() > 0) {
    state.CompleteRecv(static_cast<std::size_t>(state.BestRecv()));
  }
  EXPECT_EQ(state.resum_visits(),
            static_cast<std::uint64_t>(kRecvs * (kRecvs + 1) / 2));
}

TEST(IncrementalProperties, TacSchedulesBitIdenticalOnRandomDags) {
  for (std::uint64_t seed = 100; seed < 150; ++seed) {
    RandomDagOptions options;
    options.num_recvs = 4 + static_cast<int>(seed % 17);
    options.num_computes = 8 + static_cast<int>(seed % 31);
    options.num_layers = 2 + static_cast<int>(seed % 4);
    options.with_sends = seed % 3 == 0;
    const Graph g = MakeRandomDag(options, seed);
    const PropertyIndex index(g);
    const AnalyticalTimeOracle oracle{PlatformModel{}};
    ExpectSameSchedules(g, Tac(index, oracle),
                        TacFullRecompute(index, oracle));
  }
}

// The structural oracle produces masses of exact ties, stressing the
// M+/op-id tie-break path rather than the float sums.
TEST(IncrementalProperties, TacSchedulesBitIdenticalUnderGeneralOracle) {
  for (std::uint64_t seed = 200; seed < 220; ++seed) {
    RandomDagOptions options;
    options.num_recvs = 5 + static_cast<int>(seed % 11);
    options.num_computes = 10 + static_cast<int>(seed % 21);
    const Graph g = MakeRandomDag(options, seed);
    const PropertyIndex index(g);
    const GeneralTimeOracle oracle;
    ExpectSameSchedules(g, Tac(index, oracle),
                        TacFullRecompute(index, oracle));
  }
}

// Graph::AddEdge permits edges into a recv, giving it a recv ancestor —
// outside the invariant the incremental state assumes (a recv's M would
// shrink as ancestors complete). Tac() must detect this and stay
// bit-identical by routing through the full recompute.
TEST(IncrementalProperties, RecvWithRecvAncestorFallsBackToReference) {
  Graph g;
  const OpId r0 = g.AddRecv("r0", 100);
  const OpId c0 = g.AddCompute("c0", 1.0);
  const OpId r1 = g.AddRecv("r1", 200);  // depends on r0 through c0
  const OpId c1 = g.AddCompute("c1", 2.0);
  g.AddEdge(r0, c0);
  g.AddEdge(c0, r1);
  g.AddEdge(r1, c1);
  const PropertyIndex index(g);
  EXPECT_FALSE(index.recvs_are_roots());
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  ExpectSameSchedules(g, Tac(index, oracle), TacFullRecompute(index, oracle));
}

TEST(IncrementalProperties, RootRecvsReportedAsRoots) {
  const Graph g = MakeRandomDag({}, 3);
  EXPECT_TRUE(PropertyIndex(g).recvs_are_roots());
}

TEST(IncrementalProperties, TacSchedulesBitIdenticalOnZooModels) {
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  std::vector<Graph> graphs;
  for (const auto& info : models::ModelZoo()) {
    for (const bool training : {false, true}) {
      graphs.push_back(
          models::BuildWorkerGraph(info, {.training = training}));
    }
  }
  // Chunked training graphs: hundreds of chunk recvs feeding few dep-set
  // classes with many members each.
  graphs.push_back(ChunkTransfers(
      models::BuildWorkerGraph(models::FindModel("AlexNet v2"),
                               {.training = true}),
      {.max_chunk_bytes = 1 << 20}));
  graphs.push_back(ChunkTransfers(
      models::BuildWorkerGraph(models::FindModel("VGG-16"),
                               {.training = true}),
      {.max_chunk_bytes = 4 << 20}));
  for (const Graph& g : graphs) {
    const PropertyIndex index(g);
    ExpectSameSchedules(g, Tac(index, oracle),
                        TacFullRecompute(index, oracle));
  }
}

}  // namespace
}  // namespace tictac::core
