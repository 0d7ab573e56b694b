#ifndef OLITE_GRAPH_DYNAMIC_CLOSURE_H_
#define OLITE_GRAPH_DYNAMIC_CLOSURE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/exec_budget.h"
#include "graph/closure.h"
#include "graph/digraph.h"
#include "graph/reach_merge.h"
#include "graph/scc.h"

namespace olite {
class ThreadPool;
}

namespace olite::graph {

/// The SCC closure engine (`ClosureEngine::kSccMerge`): Tarjan
/// condensation plus one sorted reach vector per component, built by the
/// shared merge kernel (graph/reach_merge.h), and patchable under arc
/// deltas in the over-delete/re-derive (DRed) style.
///
/// Representation: Tarjan SCCs of the stored graph plus, per component, the
/// sorted **representatives** of the components strictly downstream of it,
/// where a component's representative is its smallest member. A
/// representative is a node id, and node ids are stable across patches
/// even though component ids are not: a component that keeps its exact
/// member set keeps its representative. So a patched closure shares the
/// reach vector of every component whose answer set provably did not
/// change, with zero copying for the untouched bulk of the graph.
///
/// Storage: each reach vector is a slice of a shared chunk, held by a
/// `shared_ptr` made with the aliasing constructor, so it owns its chunk
/// jointly with every other slice of it. A chunk lives exactly as long as
/// some generation still holds a slice of it: aliasing a clean component's
/// vector into a patched closure keeps that chunk alive, whichever
/// generation is destroyed first. Each build carves its chunks from one
/// stream per thread, sized by what the stream has handed out so far
/// (`kMinChunkIds` up to `kMaxChunkIds`, or one longer vector): a patch
/// that re-derives a few components pins a few small chunks, a scratch
/// build a few dozen large ones.
///
/// Construction is serial, or level-parallel on a pool: the components of
/// one longest-path level of the condensation cannot reach each other, so
/// they merge concurrently, each pool shard with its own `ReachMerger` and
/// chunk stream. The result is identical at every width. The build polls its
/// budget once per component.
///
/// `Patched(next)` builds the closure of `next` from this one:
///   1. fresh Tarjan over `next` (linear — the condensation is cheap; the
///      quadratic-ish part worth preserving is the reach sets);
///   2. seed *dirty* components: the successor row of some member differs
///      between the two graphs, or some member is a new node (this covers
///      both added and removed arcs — the DRed over-deletion frontier);
///   3. propagate dirtiness upstream in one ascending-id sweep (component
///      ids are reverse-topological: successors have smaller ids);
///   4. clean components alias the reach vector of the old component that
///      holds their representative (a clean component is exactly that old
///      component, see `Patched`); dirty ones re-merge from their
///      successors (the re-derivation step).
/// If the dirty fraction exceeds `PatchOptions::fallback_fraction` the
/// patch degenerates to a from-scratch merge over the fresh condensation
/// (still one Tarjan — nothing is wasted).
///
/// Soundness of sharing: on any path that uses a changed arc, the *first*
/// changed arc is preceded only by arcs present in both graphs, so the
/// path's source reaches that arc's tail in *both* graphs and is marked
/// dirty by step 3. Hence a clean component's reachable set is identical
/// in the old and new graphs, in both directions of the delta, and every
/// component downstream of it is clean, so the representatives in its
/// aliased vector name components of the new closure.
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

  /// From-scratch construction (copies `g`'s arcs for later patches).
  /// Level-parallel when `pool` is wider than one thread. Stops early, with
  /// `aborted()` set, once `budget` is exhausted; the caller must then
  /// discard the half-built closure.
  explicit DynamicClosure(const Digraph& g, ThreadPool* pool = nullptr,
                          const ExecBudget* budget = nullptr);

  /// True when the budget stopped construction.
  bool aborted() const { return aborted_; }

  // -- TransitiveClosure ----------------------------------------------------
  bool Reaches(NodeId from, NodeId to) const override;
  std::vector<NodeId> ReachableFrom(NodeId from) const override;
  uint64_t NumClosureArcs() const override { return num_arcs_; }
  std::string EngineName() const override { return "scc_merge"; }

  /// Closure of `next`, reusing every provably-unchanged reach vector of
  /// this closure. Serial. `next` may grow or shrink the node set; existing
  /// node ids must keep their meaning (callers with id-shifting
  /// vocabularies must rebuild from scratch instead).
  std::unique_ptr<DynamicClosure> Patched(const Digraph& next,
                                          const PatchOptions& options,
                                          PatchStats* stats = nullptr) const;
  std::unique_ptr<DynamicClosure> Patched(const Digraph& next) const {
    return Patched(next, PatchOptions());
  }

 private:
  /// Sorted representatives of the components strictly downstream of one
  /// component, and the number of nodes those components hold. Immutable
  /// once built; aliased by every later generation in which the component
  /// stays clean.
  struct Reach {
    std::shared_ptr<const NodeId[]> ids;  ///< a chunk slice; null when empty
    NodeId num_ids = 0;
    uint64_t num_nodes = 0;

    const NodeId* begin() const { return ids.get(); }
    const NodeId* end() const { return ids.get() + num_ids; }
    size_t size() const { return num_ids; }
  };

  /// One thread's build state: the merge kernel, and the chunk stream its
  /// merged reach vectors are carved from.
  class Shard {
   public:
    explicit Shard(NodeId universe) : merger(universe) {}

    /// Storage for `n` ids, carved from the current chunk; a chunk that
    /// cannot hold them is left to its slices and a new one started.
    std::shared_ptr<NodeId[]> Carve(NodeId n);

    ReachMerger merger;

   private:
    static constexpr uint64_t kMinChunkIds = 256;
    static constexpr uint64_t kMaxChunkIds = 16 * 1024;

    std::shared_ptr<NodeId[]> chunk_;
    NodeId used_ = 0;
    NodeId capacity_ = 0;
    uint64_t handed_out_ = 0;  ///< ids carved over the stream's life
  };

  DynamicClosure() = default;

  /// Copies `g`'s arcs into this fresh closure and computes its SCCs;
  /// returns the condensation DAG over component ids. Its rows ascend by
  /// component id, which is the kernel's visiting order.
  Digraph Condense(const Digraph& g);
  NodeId RepOf(NodeId c) const {
    return scc_.member_ids[scc_.member_offsets[c]];
  }
  /// Groups components by longest-path depth in the condensation `dag`.
  /// All of a component's successors sit in strictly earlier levels, so
  /// the components of one level can merge concurrently once every earlier
  /// level is final. Levels (and each level) ascend by id.
  std::vector<std::vector<NodeId>> Levels(const Digraph& dag) const;
  /// Merges component `c`'s downstream reach from its successors.
  void MergeComponent(NodeId c, const Digraph& dag, Shard* shard);
  void FinalizeArcCount();

  Digraph arcs_;  ///< the underlying graph, as given
  SccResult scc_;
  std::vector<Reach> reach_;  ///< per component
  uint64_t num_arcs_ = 0;
  bool aborted_ = false;
};

}  // namespace olite::graph

#endif  // OLITE_GRAPH_DYNAMIC_CLOSURE_H_
