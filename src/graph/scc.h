#ifndef OLITE_GRAPH_SCC_H_
#define OLITE_GRAPH_SCC_H_

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
  /// Members of each component, ascending.
  std::vector<std::vector<NodeId>> members;
  /// True if the component contains a cycle (size > 1, or a self-loop).
  std::vector<bool> cyclic;

  NodeId NumComponents() const {
    return static_cast<NodeId>(members.size());
  }
};

/// Computes SCCs with an iterative Tarjan traversal (safe for the
/// 100k-node taxonomies the benchmarks generate).
SccResult ComputeScc(const Digraph& g);

}  // namespace olite::graph

#endif  // OLITE_GRAPH_SCC_H_
