#ifndef OLITE_GRAPH_DIGRAPH_H_
#define OLITE_GRAPH_DIGRAPH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace olite::graph {

/// Node id type; nodes are dense integers from 0.
using NodeId = uint32_t;

/// A directed graph over dense node ids, stored as compressed sparse rows:
/// one offsets array and one ids array, the successors of `u` being
/// `ids[offsets[u], offsets[u + 1])`.
///
/// This is the substrate for the paper's TBox digraph representation
/// (Definition 1): each basic concept/role is a node, each positive
/// inclusion an arc. It is the one adjacency layout of the classification
/// spine: the TBox build, Tarjan, the SCC closure engine's stored arcs and
/// the predecessor rule of `computeUnsat` all read it.
///
/// `AddArc` appends to a flat pending list; `Finalize()` folds the pending
/// arcs into the rows (counting sort by source, then each row sorted and
/// deduplicated). Reading the arcs of a graph with pending arcs aborts in
/// every build type: no reader ever sees stale rows. A span returned by
/// `Successors` stays valid while the graph lives and is not modified.
class Digraph {
 public:
  Digraph() = default;

  /// Creates a graph with `n` isolated nodes.
  explicit Digraph(NodeId n) : offsets_(size_t{n} + 1, 0) {}

  /// Ensures node ids `[0, n)` exist.
  void EnsureNodes(NodeId n) {
    if (offsets_.empty()) offsets_.push_back(0);  // moved-from
    if (NumNodes() < n) offsets_.resize(size_t{n} + 1, offsets_.back());
  }

  /// Adds arc `from → to`, pending until Finalize(). Duplicates collapse
  /// there.
  void AddArc(NodeId from, NodeId to) {
    EnsureNodes(std::max(from, to) + 1);
    pending_.push_back({from, to});
  }

  /// Reserves room for `n` pending arcs; a capacity hint for builders
  /// that know their arc count.
  void ReserveArcs(size_t n) { pending_.reserve(n); }

  /// Folds the pending arcs into the rows: every row ends up ascending and
  /// duplicate-free. A no-op when nothing is pending.
  void Finalize();

  /// True if the arc `from → to` exists (binary search in `from`'s row).
  bool HasArc(NodeId from, NodeId to) const;

  NodeId NumNodes() const {
    return offsets_.empty() ? 0 : static_cast<NodeId>(offsets_.size() - 1);
  }
  uint64_t NumArcs() const {
    CheckFinalized();
    return ids_.size();
  }

  /// The successors of `u`, ascending and duplicate-free.
  std::span<const NodeId> Successors(NodeId u) const {
    CheckFinalized();
    return Row(u);
  }

  /// Graph with every arc reversed: one counting transposition, linear in
  /// the graph. Sources are scanned in ascending order, so its rows come
  /// out sorted.
  Digraph Reversed() const;

  /// Graphviz DOT rendering; `name_of` maps node ids to labels.
  std::string ToDot(const std::vector<std::string>& name_of) const;

 private:
  struct Arc {
    NodeId from;
    NodeId to;
  };

  std::span<const NodeId> Row(NodeId u) const {
    return {ids_.data() + offsets_[u], ids_.data() + offsets_[u + 1]};
  }
  void CheckFinalized() const {
    if (!pending_.empty()) DieOnPendingArcs();
  }
  [[noreturn]] static void DieOnPendingArcs();  // cold path, out of line

  std::vector<size_t> offsets_{0};  ///< NumNodes() + 1 row boundaries
  std::vector<NodeId> ids_;         ///< row-major successor ids
  std::vector<Arc> pending_;        ///< arcs added since the last Finalize
};

}  // namespace olite::graph

#endif  // OLITE_GRAPH_DIGRAPH_H_
