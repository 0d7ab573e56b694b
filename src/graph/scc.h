#ifndef OLITE_GRAPH_SCC_H_
#define OLITE_GRAPH_SCC_H_

#include <span>
#include <vector>

#include "graph/digraph.h"

namespace olite::graph {

/// Strongly connected components of a digraph.
///
/// Components are numbered in *reverse topological order* of the
/// condensation: every component reachable from component `c` has an id
/// smaller than `c`. This is the order Tarjan's algorithm emits them in and
/// the order the closure engines consume them in.
struct SccResult {
  /// Component id of each node.
  std::vector<NodeId> component_of;
  /// Members of every component as one CSR: component `c` holds
  /// `member_ids[member_offsets[c], member_offsets[c + 1])`, ascending.
  std::vector<NodeId> member_offsets{0};
  std::vector<NodeId> member_ids;
  /// True if the component contains a cycle (size > 1, or a self-loop).
  std::vector<bool> cyclic;

  NodeId NumComponents() const {
    return static_cast<NodeId>(member_offsets.size() - 1);
  }
  /// Members of component `c`, ascending.
  std::span<const NodeId> Members(NodeId c) const {
    return {member_ids.data() + member_offsets[c],
            member_ids.data() + member_offsets[c + 1]};
  }
};

/// Computes SCCs with an iterative Tarjan traversal over the CSR rows (safe
/// for the 100k-node taxonomies the benchmarks generate). Its scratch is a
/// handful of flat arrays allocated once; no per-component storage.
SccResult ComputeScc(const Digraph& g);

}  // namespace olite::graph

#endif  // OLITE_GRAPH_SCC_H_
