#ifndef OLITE_GRAPH_REACH_MERGE_H_
#define OLITE_GRAPH_REACH_MERGE_H_

#include <algorithm>
#include <cstdint>
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
///   1. The last successor `s0` (the largest component id) contributes
///      `reach(s0)`, the head, which is never copied into scratch space.
///      With one successor the answer is the head plus `s0`: no stamps.
///   2. The other successors are visited back to front, in descending
///      component id. A successor reachable from another successor has the
///      smaller id, so it is visited later and its id is stamped by then:
///      it is skipped without reading its reach list (on-the-fly
///      transitive reduction, as in Goralčíková & Koubek 1979). The order
///      only decides how much is skipped; any order gives the same set.
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
  /// `s`, which must stay valid until `CopyTo`. Then
  /// reach(c) = reach_of(succs.back()) ∪ added().
  template <typename ReachOf, typename Succs = std::span<const NodeId>>
  size_t Merge(NodeId c, const Succs& succs, ReachOf&& reach_of) {
    head_ = {};
    added_.clear();
    if (std::ranges::empty(succs)) return 0;
    auto s = std::ranges::rbegin(succs);
    const auto rend = std::ranges::rend(succs);
    const NodeId last = *s;
    const auto& head = reach_of(last);
    head_ = {head.begin(), head.end()};
    added_.push_back(last);
    if (std::ranges::size(succs) > 1) {
      const uint32_t tag = c + 1;
      stamp_[last] = tag;
      for (NodeId x : head_) stamp_[x] = tag;
      for (++s; s != rend; ++s) {
        const NodeId id = *s;
        if (stamp_[id] == tag) continue;  // covered by a survivor
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

  /// The ids of the last result that are not in its head, ascending.
  std::span<const NodeId> added() const { return added_; }

  /// Writes the last result, ascending, to `out[0, size)`.
  void CopyTo(NodeId* out) const {
    std::merge(head_.begin(), head_.end(), added_.begin(), added_.end(), out);
  }

 private:
  std::vector<uint32_t> stamp_;
  std::span<const NodeId> head_;
  std::vector<NodeId> added_;
};

}  // namespace olite::graph

#endif  // OLITE_GRAPH_REACH_MERGE_H_
