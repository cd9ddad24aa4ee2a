#include "core/incremental_properties.h"

#include <algorithm>
#include <cassert>

#include "core/tac.h"

namespace tictac::core {

IncrementalProperties::IncrementalProperties(const PropertyIndex& index,
                                             const TimeOracle& oracle) {
  // Precondition: recvs have no recv ancestors, so a recv's own M is its
  // transfer time (constant while outstanding) and completed recvs never
  // contribute to P or M+. Tac() routes graphs violating this to the
  // full-recompute reference instead of constructing this state.
  assert(index.recvs_are_roots());
  const Graph& g = index.graph();
  const auto& recvs = index.recvs();

  time_.resize(g.size());
  for (std::size_t id = 0; id < g.size(); ++id) {
    time_[id] = oracle.Time(g, static_cast<OpId>(id));
  }
  recv_time_.resize(recvs.size());
  for (std::size_t i = 0; i < recvs.size(); ++i) {
    recv_time_[i] = time_[static_cast<std::size_t>(recvs[i])];
  }

  outstanding_.assign(recvs.size(), 1);
  remaining_ = recvs.size();
  dirty_flag_.assign(recvs.size(), 0);
  dirty_.reserve(recvs.size());

  // Intern every non-recv op's dep list into a dep-set class. The list
  // is appended to cls_recvs_ as a candidate class, hashed on the way,
  // and looked up in an open-addressing table of class ids, comparing
  // full lists; a duplicate candidate is dropped again. Recv ops never join the G−R scan and ops with an
  // empty dep set never join a consumer list, so neither gets a class.
  constexpr std::uint32_t kNoClass = ~std::uint32_t{0};
  cls_of_op_.assign(g.size(), kNoClass);
  cls_begin_.assign(1, 0);
  int table_bits = 1;
  while ((std::size_t{1} << table_bits) < 2 * g.size()) ++table_bits;
  std::vector<std::uint32_t> table(std::size_t{1} << table_bits, kNoClass);
  const std::size_t mask = table.size() - 1;
  for (std::size_t id = 0; id < g.size(); ++id) {
    const auto op = static_cast<OpId>(id);
    if (index.recv_index(op) >= 0) continue;
    const auto begin = static_cast<std::ptrdiff_t>(cls_recvs_.size());
    std::uint64_t h = 14695981039346656037ULL;  // FNV-1a over the indices
    index.dep(op).ForEach([&](std::size_t ri) {
      cls_recvs_.push_back(static_cast<std::uint32_t>(ri));
      h = (h ^ ri) * 1099511628211ULL;
    });
    if (cls_recvs_.size() == static_cast<std::size_t>(begin)) continue;
    const auto list = cls_recvs_.begin() + begin;
    for (std::size_t slot = (h * 0x9E3779B97F4A7C15ULL) >> (64 - table_bits);;
         slot = (slot + 1) & mask) {
      const std::uint32_t c = table[slot];
      if (c == kNoClass) {
        table[slot] = static_cast<std::uint32_t>(cls_begin_.size() - 1);
        cls_of_op_[id] = table[slot];
        cls_begin_.push_back(static_cast<std::uint32_t>(cls_recvs_.size()));
        break;
      }
      if (std::equal(cls_recvs_.begin() + cls_begin_[c],
                     cls_recvs_.begin() + cls_begin_[c + 1], list,
                     cls_recvs_.end())) {
        cls_of_op_[id] = c;
        cls_recvs_.erase(list, cls_recvs_.end());
        break;
      }
    }
  }

  // Per-class state with every recv outstanding (M summed in list order,
  // as UpdateProperties sums it), and the recv -> classes transpose.
  const std::size_t classes = cls_begin_.size() - 1;
  cls_end_.assign(cls_begin_.begin() + 1, cls_begin_.end());
  cls_begin_.pop_back();
  cls_M_.assign(classes, 0.0);
  recv_cls_begin_.assign(recvs.size() + 1, 0);
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::uint32_t k = cls_begin_[c]; k < cls_end_[c]; ++k) {
      const std::uint32_t ri = cls_recvs_[k];
      cls_M_[c] += recv_time_[ri];
      ++recv_cls_begin_[ri + 1];
    }
  }
  for (std::size_t ri = 0; ri < recvs.size(); ++ri) {
    recv_cls_begin_[ri + 1] += recv_cls_begin_[ri];
  }
  recv_cls_.resize(cls_recvs_.size());
  std::vector<std::uint32_t> fill(recv_cls_begin_.begin(),
                                  recv_cls_begin_.end() - 1);
  for (std::size_t c = 0; c < classes; ++c) {
    for (std::uint32_t k = cls_begin_[c]; k < cls_end_[c]; ++k) {
      recv_cls_[fill[cls_recvs_[k]]++] = static_cast<std::uint32_t>(c);
    }
  }

  // Consumer lists, in the op-id order the bitset ForEach visits.
  consumer_ops_.resize(recvs.size());
  for (std::size_t ri = 0; ri < recvs.size(); ++ri) {
    const RecvSet& consumers = index.consumers(ri);
    consumer_ops_[ri].reserve(consumers.Count());
    consumers.ForEach([&](std::size_t id) {
      consumer_ops_[ri].push_back(static_cast<std::uint32_t>(id));
    });
  }

  const std::size_t blocks =
      (recvs.size() + (std::size_t{1} << kBlockShift) - 1) >> kBlockShift;
  blk_dirty_.assign(blocks, 1);  // refreshed lazily on the first BestRecv
  blk_count_.resize(blocks);
  blk_max_p_.resize(blocks);
  blk_min_mplus_.resize(blocks);
  blk_min_u_.resize(blocks);
  blk_max_m_.resize(blocks);
  blk_any_m_eq_p_.resize(blocks);

  // Initial properties: every recv outstanding, so a recv's M is its
  // own transfer time, and P / M+ come from the same rebuild CompleteRecv
  // uses — the full pass's G−R scan restricted to the recv's consumers.
  props_.resize(recvs.size());
  for (std::size_t ri = 0; ri < recvs.size(); ++ri) {
    props_[ri].op = recvs[ri];
    props_[ri].M = recv_time_[ri];
    RecomputeRecv(ri);
  }

  m_sorted_.reserve(recvs.size());
  for (std::size_t i = 0; i < recvs.size(); ++i) {
    m_sorted_.emplace_back(recv_time_[i], static_cast<std::uint32_t>(i));
  }
  std::sort(m_sorted_.begin(), m_sorted_.end());
}

void IncrementalProperties::CompleteRecv(std::size_t ri) {
  assert(ri < outstanding_.size() && outstanding_[ri] != 0);
  outstanding_[ri] = 0;
  props_[ri] = RecvProperties{};
  MarkBlockDirty(ri);
  --remaining_;
  dirty_.clear();

  for (std::uint32_t k = recv_cls_begin_[ri]; k < recv_cls_begin_[ri + 1];
       ++k) {
    // The class's list holds exactly its outstanding members, `ri`
    // included. Drop `ri` in place (compaction keeps the increasing recv
    // order, the full pass's order) and re-sum M over the rest on the way,
    // so the sum is bit-identical to the full pass's.
    const std::uint32_t c = recv_cls_[k];
    std::uint32_t* const first = cls_recvs_.data() + cls_begin_[c];
    const std::uint32_t* const last = cls_recvs_.data() + cls_end_[c];
    resum_visits_ += static_cast<std::uint64_t>(last - first);
    double m = 0.0;
    std::uint32_t* end = first;
    for (const std::uint32_t* r = first; r != last; ++r) {
      if (*r == ri) continue;
      m += recv_time_[*r];
      *end++ = *r;
    }
    assert(last - end == 1);
    cls_end_[c] = static_cast<std::uint32_t>(end - cls_recvs_.data());
    const std::ptrdiff_t d = end - first;
    if (d == 0) continue;  // its whole P contribution went to `ri` itself
    if (d == 1) {
      // The class's ops leave the M+ pool and join the P pool of their one
      // surviving recv; both of that recv's properties need a rebuild.
      const std::size_t q = *first;
      if (dirty_flag_[q] == 0) {
        dirty_flag_[q] = 1;
        dirty_.push_back(q);
      }
      continue;
    }
    // d >= 2: still an M+ contributor, but its outstanding communication
    // time shrank. Fold the new value into the M+ of every recv the class
    // still depends on: a pure min() update, exact because contributions
    // only ever decrease.
    cls_M_[c] = m;
    for (const std::uint32_t* r = first; r != end; ++r) {
      if (m < props_[*r].Mplus) {
        props_[*r].Mplus = m;
        // Lowering a member's M+ moves the block's min to
        // min(old min, m) exactly, so the aggregate is maintained in
        // O(1) instead of dirtying the block — this fold touches most
        // outstanding recvs every round, and re-scanning every touched
        // block would cost more than the pruning saves.
        if (m < blk_min_mplus_[*r >> kBlockShift]) {
          blk_min_mplus_[*r >> kBlockShift] = m;
        }
      }
    }
  }

  // Rebuilds run after every count/M update so they see the final state.
  for (const std::size_t q : dirty_) {
    dirty_flag_[q] = 0;
    RecomputeRecv(q);
  }
}

void IncrementalProperties::RecomputeRecv(std::size_t q) {
  assert(outstanding_[q] != 0);
  double p = 0.0;
  double mplus = kInfinity;
  for (const std::uint32_t id : consumer_ops_[q]) {
    const std::uint32_t c = cls_of_op_[id];
    const std::uint32_t d = cls_end_[c] - cls_begin_[c];
    if (d == 1) {
      p += time_[id];  // q is its only outstanding dependency
    } else if (d >= 2) {
      mplus = std::min(mplus, cls_M_[c]);
    }
  }
  props_[q].P = p;
  props_[q].Mplus = mplus;
  MarkBlockDirty(q);
}

void IncrementalProperties::RefreshBlock(std::size_t blk) {
  const std::size_t lo = blk << kBlockShift;
  const std::size_t hi =
      std::min(props_.size(), lo + (std::size_t{1} << kBlockShift));
  int count = 0;
  double max_p = -kInfinity;
  double min_mplus = kInfinity;
  double min_u = kInfinity;
  double max_m = -kInfinity;
  char any_m_eq_p = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    if (outstanding_[i] == 0) continue;
    ++count;
    max_m = std::max(max_m, props_[i].M);
    max_p = std::max(max_p, props_[i].P);
    min_mplus = std::min(min_mplus, props_[i].Mplus);
    if (props_[i].M < props_[i].P) min_u = std::min(min_u, props_[i].M);
    if (props_[i].M == props_[i].P) any_m_eq_p = 1;
  }
  blk_count_[blk] = count;
  blk_max_p_[blk] = max_p;
  blk_min_mplus_[blk] = min_mplus;
  blk_min_u_[blk] = min_u;
  blk_max_m_[blk] = max_m;
  blk_any_m_eq_p_[blk] = any_m_eq_p;
  blk_dirty_[blk] = 0;
}

namespace {
// Heterogeneous comparator for equal_range over (M, idx) pairs keyed
// by M alone.
struct MKeyLess {
  bool operator()(const std::pair<double, std::uint32_t>& a, double b) const {
    return a.first < b;
  }
  bool operator()(double a, const std::pair<double, std::uint32_t>& b) const {
    return a < b.first;
  }
};
}  // namespace

int IncrementalProperties::BestRecv() {
  const std::size_t n = props_.size();
  int best = -1;
  // Cached equal-M range for the current best's M (recomputed whenever
  // the best — and hence b.M — changes mid-fold).
  double eq_key = kInfinity;
  auto eq_lo = m_sorted_.cend();
  auto eq_hi = m_sorted_.cend();
  for (std::size_t blk = 0; blk < blk_dirty_.size(); ++blk) {
    if (blk_dirty_[blk] != 0) RefreshBlock(blk);
    if (blk_count_[blk] == 0) continue;
    const std::size_t lo = blk << kBlockShift;
    const std::size_t hi = std::min(n, lo + (std::size_t{1} << kBlockShift));
    if (best >= 0) {
      // Skip when no member can beat the best via any TacBefore path
      // (the exact case split in the BestRecv declaration comment).
      const RecvProperties& b = props_[static_cast<std::size_t>(best)];
      const bool no_m_path = blk_min_u_[blk] >= b.M;
      const bool no_p_path = b.P >= b.M || blk_max_p_[blk] <= b.P;
      if (no_m_path && no_p_path) {
        // Strict paths are closed; a tie needs exact lhs == rhs with a
        // strictly smaller M+ — check the four equality combos.
        bool tie = false;
        if (blk_min_mplus_[blk] < b.Mplus) {
          tie = b.P == b.M ||
                (b.P <= b.M && blk_max_p_[blk] >= b.P &&
                 blk_max_m_[blk] >= b.P) ||
                blk_any_m_eq_p_[blk] != 0;
          if (!tie && b.M <= b.P) {
            // M_i == b.M combo: exact lookup in the static M table.
            if (b.M != eq_key) {
              const auto range = std::equal_range(
                  m_sorted_.cbegin(), m_sorted_.cend(), b.M, MKeyLess{});
              eq_key = b.M;
              eq_lo = range.first;
              eq_hi = range.second;
            }
            for (auto it = eq_lo; it != eq_hi; ++it) {
              const std::size_t idx = it->second;
              if (idx >= lo && idx < hi && outstanding_[idx] != 0) {
                tie = true;
                break;
              }
            }
          }
        }
        if (!tie) continue;
      }
    }
    for (std::size_t i = lo; i < hi; ++i) {
      if (outstanding_[i] == 0) continue;
      if (best < 0 ||
          TacBefore(props_[i], props_[static_cast<std::size_t>(best)])) {
        best = static_cast<int>(i);
      }
    }
  }
  return best;
}

}  // namespace tictac::core
