#include "models/random_dag.h"

#include <cassert>
#include <string>
#include <vector>

#include "util/rng.h"

namespace tictac::models {
namespace {

// "<prefix><index>", e.g. "r3". Built by appending: GCC 12 reports a
// false -Wrestrict on `"r" + std::to_string(r)` (GCC bug 105329).
std::string IndexedName(char prefix, int index) {
  std::string name(1, prefix);
  name += std::to_string(index);
  return name;
}

}  // namespace

core::Graph MakeRandomDag(const RandomDagOptions& options,
                          std::uint64_t seed) {
  assert(options.num_recvs >= 1);
  assert(options.num_computes >= 2);
  assert(options.num_layers >= 1);
  util::Rng rng(seed);
  core::Graph g;

  std::vector<core::OpId> recvs;
  recvs.reserve(static_cast<std::size_t>(options.num_recvs));
  for (int r = 0; r < options.num_recvs; ++r) {
    const auto bytes = static_cast<std::int64_t>(
        rng.UniformInt(1024, options.max_bytes));
    recvs.push_back(g.AddRecv(IndexedName('r', r), bytes, r));
  }

  // Computes spread across layers; the final compute is the common sink.
  const int body = options.num_computes - 1;
  std::vector<std::vector<core::OpId>> layer(
      static_cast<std::size_t>(options.num_layers));
  std::vector<core::OpId> computes;
  for (int c = 0; c < body; ++c) {
    // The first compute anchors layer 0 so the body always has a root
    // layer; every compute belongs to exactly one layer (acyclicity by
    // construction).
    const int l = c == 0 ? 0
                         : static_cast<int>(rng.Index(
                               static_cast<std::size_t>(options.num_layers)));
    const core::OpId id =
        g.AddCompute(IndexedName('c', c), rng.Uniform(0.1, options.max_cost));
    layer[static_cast<std::size_t>(l)].push_back(id);
    computes.push_back(id);
  }

  // Each compute gets at least one predecessor: layer-0 computes read a
  // random recv; deeper computes read something from an earlier layer
  // (and maybe a recv too).
  for (std::size_t l = 0; l < layer.size(); ++l) {
    for (const core::OpId id : layer[l]) {
      if (l == 0) {
        g.AddEdge(recvs[rng.Index(recvs.size())], id);
      } else {
        // Predecessor from a random earlier layer with members.
        for (int attempts = 0; attempts < 16; ++attempts) {
          const auto& earlier = layer[rng.Index(l)];
          if (!earlier.empty()) {
            g.AddEdge(earlier[rng.Index(earlier.size())], id);
            break;
          }
        }
        if (g.preds(id).empty()) {
          g.AddEdge(recvs[rng.Index(recvs.size())], id);
        }
        if (rng.Chance(0.5)) {
          g.AddEdge(recvs[rng.Index(recvs.size())], id);
        }
      }
      // Extra intra-body edges for density (always earlier layer -> later,
      // so acyclicity holds by construction).
      if (l > 0 && rng.Chance(options.edge_probability)) {
        const auto& earlier = layer[rng.Index(l)];
        if (!earlier.empty()) {
          g.AddEdge(earlier[rng.Index(earlier.size())], id);
        }
      }
    }
  }

  // Every recv must have a consumer.
  for (const core::OpId r : recvs) {
    if (g.succs(r).empty()) {
      g.AddEdge(r, computes[rng.Index(computes.size())]);
    }
  }

  // Common sink: consumes every compute without successors (and thus,
  // transitively, every recv).
  const core::OpId sink =
      g.AddCompute("sink", rng.Uniform(0.1, options.max_cost));
  for (const core::OpId id : computes) {
    if (g.succs(id).empty()) g.AddEdge(id, sink);
  }

  if (options.with_sends) {
    for (int r = 0; r < options.num_recvs; ++r) {
      const auto bytes = g.op(recvs[static_cast<std::size_t>(r)]).bytes;
      const core::OpId send = g.AddSend(IndexedName('s', r), bytes, r);
      g.AddEdge(sink, send);
    }
  }
  assert(g.IsAcyclic());
  return g;
}

}  // namespace tictac::models
