#ifndef OLITE_GRAPH_DYNAMIC_CLOSURE_H_
#define OLITE_GRAPH_DYNAMIC_CLOSURE_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/closure.h"
#include "graph/digraph.h"
#include "graph/reach_merge.h"
#include "graph/scc.h"

namespace olite::graph {

/// Transitive closure that supports *incremental maintenance* under arc
/// additions and removals, in the over-delete/re-derive (DRed) style over
/// the SCC condensation.
///
/// Representation: Tarjan SCCs of the stored graph plus, per component, the
/// set of nodes *strictly downstream* of it (successor components'
/// members), kept in **node-id space** as an immutable shared vector. Node
/// ids are stable across patches even though component ids are not, so a
/// patched closure shares the reach vectors of every component whose
/// answer set provably did not change — zero copying for the untouched
/// bulk of the graph.
///
/// `Patched(next)` builds the closure of `next` from this one:
///   1. fresh Tarjan over `next` (linear — the condensation is cheap; the
///      quadratic-ish part worth preserving is the reach sets);
///   2. seed *dirty* components: membership changed vs. the old SCCs, or
///      the sorted successor list of any member differs between the two
///      graphs (this covers both added and removed arcs — the DRed
///      over-deletion frontier);
///   3. propagate dirtiness upstream in one ascending-id sweep (component
///      ids are reverse-topological: successors have smaller ids);
///   4. clean components alias the old reach vector; dirty ones re-merge
///      from their successors (the re-derivation step).
/// If the dirty fraction exceeds `PatchOptions::fallback_fraction` the
/// patch degenerates to a from-scratch merge over the fresh condensation
/// (still one Tarjan — nothing is wasted).
///
/// Soundness of sharing: on any path that uses a changed arc, the *first*
/// changed arc is preceded only by arcs present in both graphs, so the
/// path's source reaches that arc's tail in *both* graphs and is marked
/// dirty by step 3. Hence a clean component's reachable set is identical
/// in the old and new graphs, in both directions of the delta.
class DynamicClosure : public TransitiveClosure {
 public:
  struct PatchOptions {
    /// Fall back to a from-scratch merge when dirty components cover more
    /// than this fraction of the nodes. 0 forces scratch, 1 never falls
    /// back.
    double fallback_fraction = 0.25;
  };

  /// Patch telemetry, fed into `snapshot.delta_*` instruments upstream.
  struct PatchStats {
    bool fell_back = false;        ///< dirty fraction forced a full merge
    uint64_t patched_nodes = 0;    ///< nodes inside re-derived components
    uint64_t reused_components = 0;  ///< components whose reach was aliased
    uint64_t dirty_components = 0;
  };

  /// From-scratch construction (copies and finalizes `g`).
  explicit DynamicClosure(const Digraph& g);

  // -- TransitiveClosure ----------------------------------------------------
  bool Reaches(NodeId from, NodeId to) const override;
  std::vector<NodeId> ReachableFrom(NodeId from) const override;
  uint64_t NumClosureArcs() const override;
  std::string EngineName() const override { return "dynamic"; }

  /// Closure of `next`, reusing every provably-unchanged reach vector of
  /// this closure. `next` may grow or shrink the node set; existing node
  /// ids must keep their meaning (callers with id-shifting vocabularies
  /// must rebuild from scratch instead).
  std::unique_ptr<DynamicClosure> Patched(const Digraph& next,
                                          const PatchOptions& options,
                                          PatchStats* stats = nullptr) const;
  std::unique_ptr<DynamicClosure> Patched(const Digraph& next) const {
    return Patched(next, PatchOptions());
  }

  const Digraph& graph() const { return graph_; }
  const SccResult& scc() const { return scc_; }

 private:
  DynamicClosure() = default;

  /// Re-merges component `c`'s downstream reach from its successors.
  void MergeComponent(NodeId c, ReachMerger* merger);
  void FinalizeArcCount();

  Digraph graph_;  ///< finalized copy of the underlying graph
  SccResult scc_;
  Digraph dag_;  ///< condensation of graph_ under scc_
  /// Per component: node ids strictly downstream (members of all reachable
  /// successor components), sorted ascending, excluding the component's
  /// own members. Shared by aliasing across patched generations.
  std::vector<std::shared_ptr<const std::vector<NodeId>>> reach_;
  uint64_t num_arcs_ = 0;
};

}  // namespace olite::graph

#endif  // OLITE_GRAPH_DYNAMIC_CLOSURE_H_
