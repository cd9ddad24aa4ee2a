#include "core/tac.h"

#include <gtest/gtest.h>

#include <numeric>

#include "models/builder.h"
#include "models/zoo.h"

namespace tictac::core {
namespace {

RecvProperties Props(OpId op, double M, double P, double Mplus) {
  RecvProperties p;
  p.op = op;
  p.M = M;
  p.P = P;
  p.Mplus = Mplus;
  return p;
}

TEST(TacComparator, LimitingCaseLargeComputeLoadGoesFirst) {
  // P_A huge, P_B = 0: completing A unblocks a large compute load while B
  // unblocks nothing, so A must precede B (the Eq. 6 sanity check that
  // exposes the sign typo in the printed Algorithm 3).
  const auto a = Props(0, /*M=*/1.0, /*P=*/1000.0, /*Mplus=*/5.0);
  const auto b = Props(1, /*M=*/1.0, /*P=*/0.0, /*Mplus=*/5.0);
  EXPECT_TRUE(TacBefore(a, b));
  EXPECT_FALSE(TacBefore(b, a));
}

TEST(TacComparator, Fig4aWorkedExample) {
  // Times: recvA=2, recvB=1, op1=3, op3=1 (P_A=4), op2=2 (P_B=2).
  // Makespan(A->B) = M_A + max{P_A, M_B} + P_B = 2 + 4 + 2 = 8.
  // Makespan(B->A) = M_B + max{P_B, M_A} + P_A = 1 + 2 + 4 = 7.
  // B first is better, and Eq. 6 agrees: min{P_B, M_A} = 2,
  // min{P_A, M_B} = 1, so NOT (A before B).
  const auto a = Props(0, 2.0, 4.0, kInfinity);
  const auto b = Props(1, 1.0, 2.0, kInfinity);
  EXPECT_FALSE(TacBefore(a, b));
  EXPECT_TRUE(TacBefore(b, a));
}

TEST(TacComparator, TieBreaksOnMplus) {
  // Case 2: all P = 0 makes Eq. 6 tie; smaller M+ goes first.
  const auto a = Props(0, 1.0, 0.0, 2.0);
  const auto c = Props(1, 3.0, 0.0, 4.0);
  EXPECT_TRUE(TacBefore(a, c));
  EXPECT_FALSE(TacBefore(c, a));
}

TEST(TacComparator, FinalTieBreaksOnOpId) {
  const auto a = Props(3, 1.0, 0.0, 2.0);
  const auto b = Props(5, 1.0, 0.0, 2.0);
  EXPECT_TRUE(TacBefore(a, b));
  EXPECT_FALSE(TacBefore(b, a));
}

TEST(TacComparator, Antisymmetric) {
  const auto a = Props(0, 2.0, 3.0, 4.0);
  const auto b = Props(1, 1.0, 5.0, 6.0);
  EXPECT_NE(TacBefore(a, b), TacBefore(b, a));
}

TEST(Tac, Fig1aPrefersComputeUnblockingRecv) {
  // recv1 unblocks op1 (10 time units); recv2 unblocks nothing by itself.
  Graph g;
  const OpId r1 = g.AddRecv("recv1", 0);
  const OpId r2 = g.AddRecv("recv2", 0);
  const OpId o1 = g.AddCompute("op1", 10.0);
  const OpId o2 = g.AddCompute("op2", 1.0);
  g.AddEdge(r1, o1);
  g.AddEdge(o1, o2);
  g.AddEdge(r2, o2);
  MapTimeOracle oracle({{r1, 1.0}, {r2, 1.0}, {o1, 10.0}, {o2, 1.0}});
  const Schedule s = Tac(g, oracle);
  EXPECT_EQ(s.priority(r1), 0);
  EXPECT_EQ(s.priority(r2), 1);
}

TEST(Tac, PrioritiesAreAPermutation) {
  const auto& info = models::FindModel("ResNet-50 v1");
  const Graph g = models::BuildWorkerGraph(info, {.training = true});
  PlatformModel hw;
  AnalyticalTimeOracle oracle(hw);
  const Schedule s = Tac(g, oracle);
  const auto recvs = g.RecvOps();
  std::vector<int> priorities;
  priorities.reserve(recvs.size());
  for (OpId r : recvs) priorities.push_back(s.priority(r));
  std::sort(priorities.begin(), priorities.end());
  std::vector<int> expected(recvs.size());
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(priorities, expected);
}

TEST(Tac, ChainModelFollowsLayerOrder) {
  Graph g;
  std::vector<OpId> recvs;
  MapTimeOracle oracle({});
  OpId prev = kInvalidOp;
  for (int k = 0; k < 5; ++k) {
    std::string recv_name = "r";
    recv_name += std::to_string(k);
    std::string compute_name = "c";
    compute_name += std::to_string(k);
    const OpId r = g.AddRecv(recv_name, 0);
    const OpId c = g.AddCompute(compute_name, 1);
    g.AddEdge(r, c);
    if (prev != kInvalidOp) g.AddEdge(prev, c);
    prev = c;
    recvs.push_back(r);
    oracle.Set(r, 2.0);
    oracle.Set(c, 1.0);
  }
  const Schedule s = Tac(g, oracle);
  for (std::size_t k = 1; k < recvs.size(); ++k) {
    EXPECT_LT(s.priority(recvs[k - 1]), s.priority(recvs[k]));
  }
}

TEST(Tac, DeterministicAcrossCalls) {
  const auto& info = models::FindModel("Inception v2");
  const Graph g = models::BuildWorkerGraph(info, {});
  PlatformModel hw;
  AnalyticalTimeOracle oracle(hw);
  const Schedule a = Tac(g, oracle);
  const Schedule b = Tac(g, oracle);
  for (OpId r : g.RecvOps()) EXPECT_EQ(a.priority(r), b.priority(r));
}

TEST(Tac, WorksWithGeneralOracle) {
  // TAC degenerates gracefully when fed the structural oracle.
  const auto& info = models::FindModel("AlexNet v2");
  const Graph g = models::BuildWorkerGraph(info, {});
  GeneralTimeOracle oracle;
  const Schedule s = Tac(g, oracle);
  EXPECT_TRUE(s.CoversAllRecvs(g));
}

}  // namespace
}  // namespace tictac::core
