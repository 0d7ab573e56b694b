#include "graph/dynamic_closure.h"

#include <algorithm>
#include <utility>

namespace olite::graph {

DynamicClosure::DynamicClosure(const Digraph& g) : graph_(g) {
  graph_.Finalize();
  scc_ = ComputeScc(graph_);
  dag_ = BuildCondensation(graph_, scc_);
  const NodeId nc = scc_.NumComponents();
  reach_.resize(nc);
  ReachMerger merger(graph_.NumNodes());
  // Component ids ascend in reverse topological order, so every successor
  // component's reach set is final when we merge c.
  for (NodeId c = 0; c < nc; ++c) MergeComponent(c, &merger);
  FinalizeArcCount();
}

void DynamicClosure::MergeComponent(NodeId c, ReachMerger* merger) {
  // Node-id space: a successor d contributes its members and its reach.
  std::vector<NodeId> reach;
  merger->Merge(
      c, dag_.Successors(c),
      [this](NodeId d) -> const std::vector<NodeId>& { return *reach_[d]; },
      [this](NodeId d) -> const std::vector<NodeId>& {
        return scc_.members[d];
      },
      &reach);
  reach_[c] = std::make_shared<const std::vector<NodeId>>(std::move(reach));
}

void DynamicClosure::FinalizeArcCount() {
  num_arcs_ = 0;
  for (NodeId c = 0; c < scc_.NumComponents(); ++c) {
    uint64_t targets = reach_[c]->size();
    if (scc_.cyclic[c]) targets += scc_.members[c].size();
    num_arcs_ += targets * scc_.members[c].size();
  }
}

bool DynamicClosure::Reaches(NodeId from, NodeId to) const {
  NodeId cf = scc_.component_of[from];
  if (cf == scc_.component_of[to]) return scc_.cyclic[cf];
  const auto& r = *reach_[cf];
  return std::binary_search(r.begin(), r.end(), to);
}

std::vector<NodeId> DynamicClosure::ReachableFrom(NodeId from) const {
  NodeId cf = scc_.component_of[from];
  std::vector<NodeId> out = *reach_[cf];
  if (scc_.cyclic[cf]) {
    const auto& m = scc_.members[cf];
    out.insert(out.end(), m.begin(), m.end());
    std::sort(out.begin(), out.end());
  }
  return out;
}

uint64_t DynamicClosure::NumClosureArcs() const { return num_arcs_; }

std::unique_ptr<DynamicClosure> DynamicClosure::Patched(
    const Digraph& next, const PatchOptions& options,
    PatchStats* stats) const {
  auto out = std::unique_ptr<DynamicClosure>(new DynamicClosure());
  out->graph_ = next;
  out->graph_.Finalize();
  out->scc_ = ComputeScc(out->graph_);
  out->dag_ = BuildCondensation(out->graph_, out->scc_);

  const NodeId old_n = graph_.NumNodes();
  const NodeId new_n = out->graph_.NumNodes();
  const NodeId nc = out->scc_.NumComponents();
  const NodeId shared_n = std::min(old_n, new_n);

  // Per-node arc diff: the sorted, deduplicated successor lists must match
  // exactly, else the node's component is a dirty seed (a changed arc's
  // tail — the DRed over-deletion/insertion frontier).
  std::vector<bool> dirty(nc, false);
  for (NodeId u = 0; u < shared_n; ++u) {
    if (graph_.Successors(u) != out->graph_.Successors(u)) {
      dirty[out->scc_.component_of[u]] = true;
    }
  }
  for (NodeId u = shared_n; u < new_n; ++u) {
    dirty[out->scc_.component_of[u]] = true;
  }

  // Membership diff: a component may only alias an old reach vector when
  // it is *the same node set* as some old component (same-size check plus
  // same old component id for every member implies set equality).
  std::vector<NodeId> old_comp_of(nc, 0);
  for (NodeId c = 0; c < nc; ++c) {
    if (dirty[c]) continue;
    const auto& m = out->scc_.members[c];
    bool preserved = m[0] < old_n;
    NodeId oc = preserved ? scc_.component_of[m[0]] : 0;
    if (preserved && scc_.members[oc].size() != m.size()) preserved = false;
    if (preserved) {
      for (NodeId v : m) {
        if (v >= old_n || scc_.component_of[v] != oc) {
          preserved = false;
          break;
        }
      }
    }
    if (!preserved) {
      dirty[c] = true;
    } else {
      old_comp_of[c] = oc;
    }
  }

  // Upstream propagation: successors have smaller ids, so one ascending
  // sweep settles transitive dirtiness.
  for (NodeId c = 0; c < nc; ++c) {
    if (dirty[c]) continue;
    for (NodeId d : out->dag_.Successors(c)) {
      if (dirty[d]) {
        dirty[c] = true;
        break;
      }
    }
  }

  uint64_t dirty_nodes = 0;
  uint64_t dirty_comps = 0;
  for (NodeId c = 0; c < nc; ++c) {
    if (dirty[c]) {
      dirty_nodes += out->scc_.members[c].size();
      ++dirty_comps;
    }
  }

  const bool fall_back =
      new_n > 0 && static_cast<double>(dirty_nodes) >
                       options.fallback_fraction * static_cast<double>(new_n);
  if (stats != nullptr) {
    stats->fell_back = fall_back;
    stats->patched_nodes = fall_back ? new_n : dirty_nodes;
    stats->dirty_components = fall_back ? nc : dirty_comps;
    stats->reused_components = fall_back ? 0 : nc - dirty_comps;
  }

  out->reach_.resize(nc);
  ReachMerger merger(new_n);
  for (NodeId c = 0; c < nc; ++c) {
    if (!fall_back && !dirty[c]) {
      out->reach_[c] = reach_[old_comp_of[c]];  // alias, no copy
    } else {
      out->MergeComponent(c, &merger);  // re-derive
    }
  }
  out->FinalizeArcCount();
  return out;
}

}  // namespace olite::graph
