#include "graph/scc.h"

#include <algorithm>

namespace olite::graph {

namespace {
constexpr NodeId kUnvisited = static_cast<NodeId>(-1);
}  // namespace

SccResult ComputeScc(const Digraph& g) {
  const NodeId n = g.NumNodes();
  SccResult result;
  result.component_of.assign(n, kUnvisited);
  result.member_offsets.reserve(size_t{n} + 1);
  result.member_ids.reserve(n);
  result.cyclic.reserve(n);

  // A visited node is on the Tarjan stack until its component is emitted,
  // i.e. while its `component_of` is still unassigned.
  std::vector<NodeId> index(n, kUnvisited);
  std::vector<NodeId> lowlink(n, 0);
  std::vector<NodeId> stack;
  NodeId next_index = 0;

  // Explicit DFS frame: node plus the unread rest of its successor row.
  struct Frame {
    NodeId node;
    const NodeId* next;
    const NodeId* end;
  };
  std::vector<Frame> frames;
  auto visit = [&](NodeId v) {
    index[v] = lowlink[v] = next_index++;
    stack.push_back(v);
    const std::span<const NodeId> succ = g.Successors(v);
    frames.push_back({v, succ.data(), succ.data() + succ.size()});
  };

  for (NodeId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    visit(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next != f.end) {
        const NodeId w = *f.next++;
        if (index[w] == kUnvisited) {
          visit(w);  // invalidates f
        } else if (result.component_of[w] == kUnvisited) {
          lowlink[f.node] = std::min(lowlink[f.node], index[w]);
        }
        continue;
      }
      const NodeId v = f.node;
      frames.pop_back();
      if (!frames.empty()) {
        const NodeId parent = frames.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
      if (lowlink[v] != index[v]) continue;
      // v is the root of a component: its members are the Tarjan stack
      // from v up, appended to the member CSR and sorted there.
      const NodeId c = result.NumComponents();
      const size_t first = result.member_ids.size();
      NodeId w;
      do {
        w = stack.back();
        stack.pop_back();
        result.component_of[w] = c;
        result.member_ids.push_back(w);
      } while (w != v);
      const bool single = result.member_ids.size() - first == 1;
      if (!single) {
        std::sort(result.member_ids.begin() + first, result.member_ids.end());
      }
      result.member_offsets.push_back(
          static_cast<NodeId>(result.member_ids.size()));
      result.cyclic.push_back(!single || g.HasArc(v, v));
    }
  }
  return result;
}

}  // namespace olite::graph
