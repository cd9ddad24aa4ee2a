#include "ir/module.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace tictac::ir {
namespace {

[[noreturn]] void Fail(const std::string& what) {
  throw std::invalid_argument("ir: " + what);
}

constexpr PredArena::ListId kFreeSlot = -1;

// FNV-1a over the raw ids, folded to 32 bits: FNV's low bits depend only
// on the ids' low bits, so the fold keeps lists that differ above the
// table size out of one slot. Collisions are resolved by content compare.
std::uint32_t HashList(std::span<const NodeId> list) {
  std::uint64_t h = 1469598103934665603ull;
  for (NodeId n : list) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(n));
    h *= 1099511628211ull;
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

const char* KindName(core::OpKind kind) {
  static constexpr const char* kNames[] = {"compute",   "recv", "send",
                                           "aggregate", "read", "update"};
  return kNames[static_cast<std::size_t>(kind)];
}

// The op name of a kLogical node, from its job's graph; null otherwise.
const std::string* LogicalName(const Module& m, NodeId n) {
  const auto j = static_cast<std::size_t>(m.job(n));
  if (m.stage != Stage::kLogical || j >= m.jobs.size() || !m.jobs[j].graph ||
      static_cast<std::size_t>(m.op(n)) >= m.jobs[j].graph->size()) {
    return nullptr;
  }
  return &m.jobs[j].graph->op(m.op(n)).name;
}

}  // namespace

const char* ToString(Stage stage) {
  static constexpr const char* kNames[] = {"logical", "replicated", "lowered",
                                           "merged"};
  return kNames[static_cast<std::size_t>(stage)];
}

PredArena::PredArena() {
  // Reserve id 0 for the empty list so default nodes need no index probe.
  spans_.push_back(Span{});
}

void PredArena::Reserve(std::size_t lists) {
  const std::size_t slots = std::bit_ceil(2 * lists);
  if (slots > table_.size()) Rehash(slots);
}

void PredArena::Rehash(std::size_t slots) {
  table_.assign(slots, kFreeSlot);
  const std::size_t mask = slots - 1;
  for (std::size_t id = 1; id < spans_.size(); ++id) {
    std::size_t slot = spans_[id].hash & mask;
    while (table_[slot] != kFreeSlot) slot = (slot + 1) & mask;
    table_[slot] = static_cast<ListId>(id);
  }
}

PredArena::ListId PredArena::Intern(std::span<const NodeId> list) {
  if (list.empty()) {
    ++dedup_hits_;
    return kEmptyList;
  }
  // Load <= 1/2 once this list is in (id 0 is never in the table).
  if (2 * spans_.size() > table_.size()) {
    Rehash(std::max<std::size_t>(16, 2 * table_.size()));
  }
  const std::uint32_t h = HashList(list);
  const std::size_t mask = table_.size() - 1;
  std::size_t slot = h & mask;
  for (; table_[slot] != kFreeSlot; slot = (slot + 1) & mask) {
    const ListId candidate = table_[slot];
    const Span& s = spans_[static_cast<std::size_t>(candidate)];
    if (s.hash == h && s.size == list.size() &&
        std::equal(list.begin(), list.end(), pool_.begin() + s.offset)) {
      ++dedup_hits_;
      return candidate;
    }
  }
  const ListId id = static_cast<ListId>(spans_.size());
  spans_.push_back(Span{static_cast<std::uint32_t>(pool_.size()),
                        static_cast<std::uint32_t>(list.size()), h});
  pool_.insert(pool_.end(), list.begin(), list.end());
  table_[slot] = id;
  return id;
}

NodeId Module::AddNodes(std::size_t count) {
  const NodeId first = static_cast<NodeId>(size());
  hot_.resize(size() + count);
  attrs_.resize(size());
  return first;
}

void Module::Reserve(std::size_t nodes) {
  hot_.reserve(nodes);
  attrs_.reserve(nodes);
  arena_.Reserve(nodes);
}

void Module::CopyAttrs(NodeId n, const Module& src, NodeId from) {
  const PredArena::ListId preds = hot_[idx(n)].preds;
  hot_[idx(n)] = src.hot_[idx(from)];
  hot_[idx(n)].preds = preds;
  attrs_[idx(n)] = src.attrs_[idx(from)];
}

void Module::Validate() const {
  const NodeId n = static_cast<NodeId>(size());
  if (jobs.size() != ranges.size()) {
    Fail("jobs and ranges must be aligned: " + std::to_string(jobs.size()) +
         " jobs vs " + std::to_string(ranges.size()) + " ranges");
  }
  // Ranges partition [0, n) in order, with delay nodes in the gaps.
  NodeId cursor = 0;
  for (std::size_t j = 0; j < ranges.size(); ++j) {
    const JobRange& r = ranges[j];
    if (r.first > r.last || r.first < 0 || r.last > n) {
      Fail("job " + std::to_string(j) + " range [" + std::to_string(r.first) +
           ", " + std::to_string(r.last) + ") is malformed");
    }
    if (r.delay != kNoNode) {
      if (r.delay != cursor || r.delay + 1 != r.first) {
        Fail("job " + std::to_string(j) +
             " delay node must immediately precede its range");
      }
      if (!is_delay(r.delay)) {
        Fail("job " + std::to_string(j) +
             " delay node lacks the is_delay attribute");
      }
      cursor = r.delay + 1;
    }
    if (r.first != cursor) {
      Fail("job ranges must tile the module: job " + std::to_string(j) +
           " starts at " + std::to_string(r.first) + ", expected " +
           std::to_string(cursor));
    }
    cursor = r.last;
  }
  if (iterations == 1 && cursor != n) {
    Fail("job ranges must tile the module: " + std::to_string(n - cursor) +
         " trailing nodes are unowned");
  }
  const bool lowered = stage == Stage::kLowered || stage == Stage::kMerged;
  for (NodeId t = 0; t < n; ++t) {
    if (!(duration(t) >= 0.0) || duration(t) != duration(t)) {
      Fail("node " + std::to_string(t) + " has a negative or NaN duration");
    }
    if (lowered) {
      if (resource(t) < 0) {
        Fail("node " + std::to_string(t) + " has no resource at stage " +
             std::string(ToString(stage)));
      }
      if (stage == Stage::kMerged && resource(t) >= num_resources) {
        Fail("node " + std::to_string(t) + " resource " +
             std::to_string(resource(t)) + " is outside [0, " +
             std::to_string(num_resources) + ")");
      }
    } else if (resource(t) != -1) {
      Fail("node " + std::to_string(t) + " has a resource at stage " +
           std::string(ToString(stage)) + " (passes assign resources when "
           "lowering)");
    }
    for (NodeId p : preds(t)) {
      if (p < 0 || p >= n) {
        Fail("node " + std::to_string(t) + " pred " + std::to_string(p) +
             " is out of range");
      }
      if (p == t) {
        Fail("node " + std::to_string(t) + " depends on itself");
      }
    }
    if ((gate_group(t) >= 0) != (gate_rank(t) >= 0)) {
      Fail("node " + std::to_string(t) +
           " sets only one of gate_group/gate_rank");
    }
  }
  // Acyclicity (Kahn). Ids are mostly emission-ordered, but §5.1 chain
  // edges follow rank order and may point forward, so a topological
  // check — not an ordering check — is the real invariant.
  {
    std::vector<int> indegree(static_cast<std::size_t>(n), 0);
    std::vector<std::vector<NodeId>> succs(static_cast<std::size_t>(n));
    for (NodeId t = 0; t < n; ++t) {
      for (NodeId p : preds(t)) {
        succs[static_cast<std::size_t>(p)].push_back(t);
        ++indegree[static_cast<std::size_t>(t)];
      }
    }
    std::vector<NodeId> ready;
    for (NodeId t = 0; t < n; ++t) {
      if (indegree[static_cast<std::size_t>(t)] == 0) ready.push_back(t);
    }
    std::size_t visited = 0;
    while (!ready.empty()) {
      const NodeId t = ready.back();
      ready.pop_back();
      ++visited;
      for (NodeId s : succs[static_cast<std::size_t>(t)]) {
        if (--indegree[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
      }
    }
    if (visited != static_cast<std::size_t>(n)) {
      Fail("dependency cycle through " +
           std::to_string(static_cast<std::size_t>(n) - visited) + " nodes");
    }
  }
}

std::string Module::DebugSummary() const {
  std::size_t per_kind[6] = {};
  for (std::size_t i = 0; i < size(); ++i) {
    per_kind[static_cast<std::size_t>(attrs_[i].kind)]++;
  }
  std::ostringstream out;
  out << "ir::Module{stage=" << ToString(stage) << ", nodes=" << size()
      << ", jobs=" << jobs.size();
  if (stage == Stage::kMerged) {
    out << ", resources=" << num_resources << ", workers=" << total_workers
        << ", iterations=" << iterations;
  }
  out << ", kinds=[";
  const char* sep = "";
  for (int k = 0; k < 6; ++k) {
    if (per_kind[k] == 0) continue;
    out << sep << KindName(static_cast<core::OpKind>(k)) << ":" << per_kind[k];
    sep = " ";
  }
  out << "], arena={lists=" << arena_.num_lists()
      << ", entries=" << arena_.pool_entries()
      << ", dedup_hits=" << arena_.dedup_hits() << "}}";
  return out.str();
}

std::string Module::DebugDump(std::size_t max_nodes) const {
  std::ostringstream out;
  out << DebugSummary() << "\n";
  const std::size_t shown = std::min(max_nodes, size());
  for (std::size_t i = 0; i < shown; ++i) {
    const NodeId t = static_cast<NodeId>(i);
    out << "  %" << t << " " << KindName(kind(t));
    const std::string* name = LogicalName(*this, t);
    if (name && !name->empty()) out << " \"" << *name << "\"";
    out << " job=" << job(t);
    if (worker(t) >= 0) out << " w=" << worker(t);
    if (param(t) >= 0) out << " p=" << param(t);
    if (iteration(t) > 0) out << " iter=" << iteration(t);
    if (resource(t) >= 0) out << " r=" << resource(t);
    out << " d=" << duration(t);
    if (priority(t) != sim::kNoPriority) out << " prio=" << priority(t);
    if (gate_group(t) >= 0) {
      out << " gate=" << gate_group(t) << ":" << gate_rank(t);
    }
    if (is_delay(t)) out << " delay";
    out << " preds=[";
    const char* sep = "";
    for (NodeId p : preds(t)) {
      out << sep << "%" << p;
      sep = " ";
    }
    out << "]\n";
  }
  if (shown < size()) {
    out << "  … " << (size() - shown) << " more nodes\n";
  }
  return out.str();
}

}  // namespace tictac::ir
