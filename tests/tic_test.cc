#include "core/tic.h"

#include <gtest/gtest.h>

#include "models/builder.h"
#include "models/zoo.h"

namespace tictac::core {
namespace {

TEST(Tic, Fig1aBothRecvsTie) {
  // Both recvs of Figure 1a share the single multi-recv consumer op2, so
  // under the general oracle their M+ ties and TIC may not distinguish
  // them (the relative order is genuinely insignificant for TIC).
  Graph g;
  const OpId r1 = g.AddRecv("recv1", 0);
  const OpId r2 = g.AddRecv("recv2", 0);
  const OpId o1 = g.AddCompute("op1", 1);
  const OpId o2 = g.AddCompute("op2", 1);
  g.AddEdge(r1, o1);
  g.AddEdge(o1, o2);
  g.AddEdge(r2, o2);
  const Schedule s = Tic(g);
  EXPECT_EQ(s.priority(r1), s.priority(r2));
  EXPECT_TRUE(s.CoversAllRecvs(g));
  EXPECT_FALSE(s.HasPriority(o1));  // computes stay unprioritized
}

TEST(Tic, ChainModelFollowsLayerOrder) {
  // recv_k feeds layer k of a chain; the k-th layer's compute depends
  // transitively on recvs 0..k, so TIC must order transfers by layer.
  Graph g;
  std::vector<OpId> recvs;
  OpId prev = kInvalidOp;
  for (int k = 0; k < 6; ++k) {
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
  }
  const Schedule s = Tic(g);
  // Layers 0 and 1 tie (both are needed by the first multi-recv compute,
  // c1); from there on the order is strictly by layer.
  EXPECT_EQ(s.priority(recvs[0]), s.priority(recvs[1]));
  for (std::size_t k = 2; k < recvs.size(); ++k) {
    EXPECT_LT(s.priority(recvs[k - 1]), s.priority(recvs[k]))
        << "layer " << k;
  }
}

TEST(Tic, InfiniteMplusRanksLast) {
  // recvX's only consumer depends on recvX alone, so no multi-recv op
  // tightens its M+; it must rank after recvs with finite M+.
  Graph g;
  const OpId rx = g.AddRecv("rx", 0);
  const OpId ry = g.AddRecv("ry", 0);
  const OpId rz = g.AddRecv("rz", 0);
  const OpId lone = g.AddCompute("lone", 1);
  const OpId joint = g.AddCompute("joint", 1);
  g.AddEdge(rx, lone);
  g.AddEdge(ry, joint);
  g.AddEdge(rz, joint);
  const Schedule s = Tic(g);
  EXPECT_EQ(s.priority(ry), s.priority(rz));
  EXPECT_GT(s.priority(rx), s.priority(ry));
}

TEST(Tic, AllInfiniteSharesOneRank) {
  Graph g;
  const OpId ra = g.AddRecv("ra", 0);
  const OpId rb = g.AddRecv("rb", 0);
  const OpId ca = g.AddCompute("ca", 1);
  const OpId cb = g.AddCompute("cb", 1);
  g.AddEdge(ra, ca);
  g.AddEdge(rb, cb);
  const Schedule s = Tic(g);
  EXPECT_EQ(s.priority(ra), s.priority(rb));
}

TEST(Tic, RankCompressionIsDense) {
  // Three distinct finite M+ levels -> priorities {0, 1, 2}.
  Graph g;
  const OpId a = g.AddRecv("A", 0);
  const OpId b = g.AddRecv("B", 0);
  const OpId c = g.AddRecv("C", 0);
  const OpId d = g.AddRecv("D", 0);
  const OpId opX = g.AddCompute("opX", 1);
  const OpId opY = g.AddCompute("opY", 1);
  const OpId opZ = g.AddCompute("opZ", 1);
  g.AddEdge(a, opX);
  g.AddEdge(b, opX);            // M+(A) = M+(B) = 2
  g.AddEdge(a, opY);
  g.AddEdge(b, opY);
  g.AddEdge(c, opY);            // M+(C) = 3
  g.AddEdge(a, opZ);
  g.AddEdge(b, opZ);
  g.AddEdge(c, opZ);
  g.AddEdge(d, opZ);            // M+(D) = 4
  const Schedule s = Tic(g);
  EXPECT_EQ(s.priority(a), 0);
  EXPECT_EQ(s.priority(b), 0);
  EXPECT_EQ(s.priority(c), 1);
  EXPECT_EQ(s.priority(d), 2);
}

TEST(Tic, DeterministicAcrossCalls) {
  const auto& info = models::FindModel("Inception v1");
  const Graph g = models::BuildWorkerGraph(info, {.training = true});
  const Schedule a = Tic(g);
  const Schedule b = Tic(g);
  for (OpId r : g.RecvOps()) EXPECT_EQ(a.priority(r), b.priority(r));
}

TEST(Tic, CoversAllRecvsOnEveryModel) {
  for (const auto& info : models::ModelZoo()) {
    for (bool training : {false, true}) {
      const Graph g =
          models::BuildWorkerGraph(info, {.training = training});
      const Schedule s = Tic(g);
      EXPECT_TRUE(s.CoversAllRecvs(g)) << info.name;
    }
  }
}

}  // namespace
}  // namespace tictac::core
