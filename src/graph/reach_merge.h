#ifndef OLITE_GRAPH_REACH_MERGE_H_
#define OLITE_GRAPH_REACH_MERGE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/digraph.h"

namespace olite::graph {

/// The reach-merge kernel shared by the SCC closure engines.
///
/// Over a condensation DAG numbered in reverse topological order (every
/// successor of component `c` has a smaller id), the downstream set of `c`
/// is
///
///     reach(c) = ∪ { own(d) ∪ reach(d) : d ∈ succ(c) }
///
/// where `own(d)` is what `d` contributes itself: `{d}` in component-id
/// space (`scc_merge`), `d`'s members in node-id space (`dynamic`). Every
/// set is a sorted vector of ids below `universe`; `own(d)` is sorted and,
/// like every reach set, a union of whole components.
///
/// Instead of concatenating every successor's list and sorting the lot:
///   1. The largest successor `d0` contributes `reach(d0)` merged with
///      `own(d0)`, two sorted lists. With one successor that is the answer:
///      no stamps, no sort.
///   2. The other successors are visited in descending id. A successor
///      reachable from another successor has the smaller id, so it is
///      visited later and its ids are stamped by then: it is skipped without
///      reading its reach list (on-the-fly transitive reduction, as in
///      Goralčíková & Koubek 1979).
///   3. The survivors' ids are deduplicated against a stamp array (stamp
///      `c + 1`, so the array is never cleared within one build); only these
///      distinct ids are sorted, then merged into the sorted head.
///
/// One merger serves one thread: the level-parallel build keeps one per pool
/// shard. Each component is merged at most once per merger.
class ReachMerger {
 public:
  explicit ReachMerger(NodeId universe) : stamp_(universe, 0) {}

  /// Writes reach(c) to `out`. `succs` are c's successors, ascending;
  /// `reach_of(d)` and `own_of(d)` return sorted id ranges for a successor.
  template <typename ReachOf, typename OwnOf>
  void Merge(NodeId c, const std::vector<NodeId>& succs, ReachOf&& reach_of,
             OwnOf&& own_of, std::vector<NodeId>* out) {
    out->clear();
    if (succs.empty()) return;
    auto d = succs.rbegin();
    AssignSorted(reach_of(*d), own_of(*d), out);
    if (succs.size() == 1) return;

    const uint32_t tag = c + 1;
    for (NodeId x : *out) stamp_[x] = tag;
    tail_.clear();
    for (++d; d != succs.rend(); ++d) {
      const auto& own = own_of(*d);
      if (stamp_[own.front()] == tag) continue;  // covered by a survivor
      for (NodeId v : own) {
        stamp_[v] = tag;
        tail_.push_back(v);
      }
      for (NodeId x : reach_of(*d)) {
        if (stamp_[x] != tag) {
          stamp_[x] = tag;
          tail_.push_back(x);
        }
      }
    }
    if (tail_.empty()) return;
    std::sort(tail_.begin(), tail_.end());
    // Merge the tail in from the back: the two runs are disjoint.
    size_t i = out->size();
    size_t j = tail_.size();
    out->reserve(i + j);  // exact: reach sets are kept for the closure's life
    out->resize(i + j);
    for (size_t k = i + j; j > 0;) {
      if (i > 0 && (*out)[i - 1] > tail_[j - 1]) {
        (*out)[--k] = (*out)[--i];
      } else {
        (*out)[--k] = tail_[--j];
      }
    }
  }

 private:
  // `out` = the sorted union of the disjoint sorted ranges `a` and `b`.
  template <typename A, typename B>
  static void AssignSorted(const A& a, const B& b, std::vector<NodeId>* out) {
    out->reserve(a.size() + b.size());
    if (a.empty() || b.empty() || a.back() < b.front()) {
      out->assign(a.begin(), a.end());
      out->insert(out->end(), b.begin(), b.end());
    } else {
      out->resize(a.size() + b.size());
      std::merge(a.begin(), a.end(), b.begin(), b.end(), out->begin());
    }
  }

  std::vector<uint32_t> stamp_;
  std::vector<NodeId> tail_;
};

}  // namespace olite::graph

#endif  // OLITE_GRAPH_REACH_MERGE_H_
