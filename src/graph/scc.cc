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

  std::vector<NodeId> index(n, kUnvisited);
  std::vector<NodeId> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<NodeId> stack;
  NodeId next_index = 0;

  // Explicit DFS frame: node plus position in its successor list.
  struct Frame {
    NodeId node;
    size_t edge;
  };
  std::vector<Frame> frames;

  for (NodeId root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    frames.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto& succ = g.Successors(f.node);
      if (f.edge < succ.size()) {
        NodeId w = succ[f.edge++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[f.node] = std::min(lowlink[f.node], index[w]);
        }
      } else {
        NodeId v = f.node;
        frames.pop_back();
        if (!frames.empty()) {
          NodeId parent = frames.back().node;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          // v is the root of a component; pop it off the Tarjan stack.
          std::vector<NodeId> comp;
          NodeId w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            result.component_of[w] =
                static_cast<NodeId>(result.members.size());
            comp.push_back(w);
          } while (w != v);
          bool cyc = comp.size() > 1;
          if (cyc) {
            std::sort(comp.begin(), comp.end());
          } else {
            cyc = g.HasArc(v, v);
          }
          result.members.push_back(std::move(comp));
          result.cyclic.push_back(cyc);
        }
      }
    }
  }
  return result;
}

}  // namespace olite::graph
