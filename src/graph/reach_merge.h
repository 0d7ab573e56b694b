#ifndef OLITE_GRAPH_REACH_MERGE_H_
#define OLITE_GRAPH_REACH_MERGE_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <ranges>
#include <span>
#include <vector>

#include "graph/digraph.h"

namespace olite::graph {

/// The reach-merge kernel of the SCC closure engine.
///
/// Over a condensation DAG numbered in reverse topological order (every
/// successor of component `c` has a smaller id), the downstream set of `c`
/// is
///
///     reach(c) = ∪ { {s} ∪ reach(s) : s ∈ succ(c) }
///
/// where each successor `s` is named by one id (the engine uses the
/// successor component's representative node). Every set is a sorted
/// vector of ids below `universe`.
///
/// Instead of concatenating every successor's list and sorting the lot:
///   1. The successor `h` with the longest reach (on a tie, the larger id)
///      contributes `reach(h)`, the head, which is never copied into
///      scratch space: every other survivor's new ids are stamped, copied
///      and sorted, so the longest list is the one most worth leaving out.
///      Reach lengths are read from `size()`, so choosing the head scans no
///      list. With one successor the answer is the head plus that
///      successor: no stamps.
///   2. The other successors are visited back to front, in descending
///      component id. A successor reachable from another successor has the
///      smaller id, so it is visited later and its id is stamped by then,
///      as is every id of the head: it is skipped without reading its reach
///      list (on-the-fly transitive reduction, as in Goralčíková & Koubek
///      1979). The head and the order only decide how much is skipped and
///      copied; any choice gives the same set.
///   3. The survivors' ids are deduplicated against a stamp array (stamp
///      `c + 1`, so the array is never cleared within one build); only these
///      distinct ids, `added()`, are sorted. `CopyTo` merges them with the
///      head straight into the caller's storage, in one pass.
///
/// One merger serves one thread: the level-parallel build keeps one per pool
/// shard. Each component is merged at most once per merger.
class ReachMerger {
 public:
  explicit ReachMerger(NodeId universe) : stamp_(universe, 0) {}

  /// Computes reach(c) and returns its size; `CopyTo` then writes it.
  /// `succs` names c's successors in ascending component id: any sized
  /// bidirectional range of ids, such as a view that maps a condensation row
  /// to representatives. `reach_of(s)` returns the sorted reach of successor
  /// `s` as a contiguous sized range, which must stay valid until `CopyTo`.
  /// Then reach(c) = reach_of(head()) ∪ added().
  template <typename ReachOf, typename Succs = std::span<const NodeId>>
  size_t Merge(NodeId c, const Succs& succs, ReachOf&& reach_of) {
    head_ = {};
    added_.clear();
    if (std::ranges::empty(succs)) return 0;
    const auto rbegin = std::ranges::rbegin(succs);
    const auto rend = std::ranges::rend(succs);
    head_id_ = *rbegin;
    size_t longest = std::ranges::size(reach_of(head_id_));
    for (auto s = std::next(rbegin); s != rend; ++s) {
      const size_t length = std::ranges::size(reach_of(*s));
      if (length > longest) {  // strict: a tie keeps the larger id
        longest = length;
        head_id_ = *s;
      }
    }
    const auto& head = reach_of(head_id_);
    head_ = {head.begin(), head.end()};
    added_.push_back(head_id_);
    if (std::ranges::size(succs) > 1) {
      const uint32_t tag = c + 1;
      stamp_[head_id_] = tag;
      for (NodeId x : head_) stamp_[x] = tag;
      for (auto s = rbegin; s != rend; ++s) {
        const NodeId id = *s;
        if (stamp_[id] == tag) continue;  // the head, or in a merged reach
        stamp_[id] = tag;
        added_.push_back(id);
        for (NodeId x : reach_of(id)) {
          if (stamp_[x] != tag) {
            stamp_[x] = tag;
            added_.push_back(x);
          }
        }
      }
      std::sort(added_.begin(), added_.end());
    }
    return head_.size() + added_.size();
  }

  /// The successor whose reach is the head of the last result.
  NodeId head() const { return head_id_; }

  /// The ids of the last result that are not in its head's reach,
  /// ascending; `head()` itself is one of them.
  std::span<const NodeId> added() const { return added_; }

  /// Writes the last result, ascending, to `out[0, size)`.
  void CopyTo(NodeId* out) const {
    std::merge(head_.begin(), head_.end(), added_.begin(), added_.end(), out);
  }

 private:
  std::vector<uint32_t> stamp_;
  NodeId head_id_ = 0;
  std::span<const NodeId> head_;
  std::vector<NodeId> added_;
};

}  // namespace olite::graph

#endif  // OLITE_GRAPH_REACH_MERGE_H_
