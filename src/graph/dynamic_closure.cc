#include "graph/dynamic_closure.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"

namespace olite::graph {

DynamicClosure::DynamicClosure(const Digraph& g, ThreadPool* pool,
                               const ExecBudget* budget) {
  const Csr dag = Condense(g);
  const NodeId nc = scc_.NumComponents();
  reach_.resize(nc);
  BudgetLatch latch(budget);  // polled once per component
  if (pool == nullptr || pool->num_threads() <= 1) {
    // Component ids ascend in reverse topological order, so every
    // successor component's reach set is final when we merge c.
    ReachMerger merger(arcs_.NumRows());
    for (NodeId c = 0; c < nc && !latch.Poll(); ++c) {
      MergeComponent(c, dag, &merger);
    }
  } else {
    // Level-synchronous propagation: within a level no component can
    // reach another, so their merges only read finalised earlier levels.
    std::vector<ReachMerger> mergers(pool->num_threads(),
                                     ReachMerger(arcs_.NumRows()));
    for (const auto& level : Levels(dag)) {
      pool->ParallelForShard(0, level.size(), /*grain=*/16,
                             [&](unsigned shard, size_t i) {
                               if (latch.Poll()) return;
                               MergeComponent(level[i], dag, &mergers[shard]);
                             });
    }
  }
  aborted_ = latch.tripped();
  FinalizeArcCount();
}

DynamicClosure::Csr DynamicClosure::Condense(const Digraph& g) {
  arcs_.offsets.reserve(g.NumNodes() + 1);
  arcs_.ids.reserve(g.NumArcs());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const auto& succ = g.Successors(u);
    arcs_.ids.insert(arcs_.ids.end(), succ.begin(), succ.end());
    arcs_.offsets.push_back(arcs_.ids.size());
  }
  scc_ = ComputeScc(g);
  const NodeId nc = scc_.NumComponents();
  Csr dag;
  dag.offsets.reserve(nc + 1);
  std::vector<NodeId> seen(nc, 0);  // c + 1 once d is a successor of c
  for (NodeId c = 0; c < nc; ++c) {
    const size_t row = dag.ids.size();
    for (NodeId u : scc_.members[c]) {
      for (NodeId v : arcs_.Row(u)) {
        const NodeId d = scc_.component_of[v];
        if (d != c && seen[d] != c + 1) {
          seen[d] = c + 1;
          dag.ids.push_back(d);
        }
      }
    }
    std::sort(dag.ids.begin() + row, dag.ids.end());
    for (size_t i = row; i < dag.ids.size(); ++i) dag.ids[i] = RepOf(dag.ids[i]);
    dag.offsets.push_back(dag.ids.size());
  }
  return dag;
}

std::vector<std::vector<NodeId>> DynamicClosure::Levels(const Csr& dag) const {
  const NodeId nc = scc_.NumComponents();
  std::vector<uint32_t> level(nc, 0);
  uint32_t max_level = 0;
  for (NodeId c = 0; c < nc; ++c) {
    uint32_t l = 0;
    // Successor components have smaller ids: already levelled.
    for (NodeId s : dag.Row(c)) {
      l = std::max(l, level[scc_.component_of[s]] + 1);
    }
    level[c] = l;
    max_level = std::max(max_level, l);
  }
  std::vector<std::vector<NodeId>> levels(max_level + 1);
  for (NodeId c = 0; c < nc; ++c) levels[level[c]].push_back(c);
  return levels;
}

void DynamicClosure::MergeComponent(NodeId c, const Csr& dag,
                                    ReachMerger* merger) {
  auto reach_of = [this](NodeId s) -> const Reach& {
    return reach_[scc_.component_of[s]];
  };
  const std::span<const NodeId> succs = dag.Row(c);
  const size_t size = merger->Merge(c, succs, reach_of);
  if (size == 0) return;
  Reach& r = reach_[c];
  r.num_ids = static_cast<NodeId>(size);
  r.num_nodes = reach_of(succs.back()).num_nodes;
  for (NodeId s : merger->added()) {
    r.num_nodes += scc_.members[scc_.component_of[s]].size();
  }
  auto ids = std::make_shared_for_overwrite<NodeId[]>(size);
  merger->CopyTo(ids.get());
  r.ids = std::move(ids);
}

void DynamicClosure::FinalizeArcCount() {
  num_arcs_ = 0;
  for (NodeId c = 0; c < scc_.NumComponents(); ++c) {
    const uint64_t size = scc_.members[c].size();
    const uint64_t targets = reach_[c].num_nodes + (scc_.cyclic[c] ? size : 0);
    num_arcs_ += targets * size;
  }
}

bool DynamicClosure::Reaches(NodeId from, NodeId to) const {
  const NodeId cf = scc_.component_of[from];
  const NodeId ct = scc_.component_of[to];
  if (cf == ct) return scc_.cyclic[cf];
  const Reach& r = reach_[cf];
  return std::binary_search(r.begin(), r.end(), RepOf(ct));
}

std::vector<NodeId> DynamicClosure::ReachableFrom(NodeId from) const {
  const NodeId cf = scc_.component_of[from];
  std::vector<NodeId> out;
  out.reserve(reach_[cf].num_nodes);
  auto add_component = [&](NodeId c) {
    const auto& m = scc_.members[c];
    out.insert(out.end(), m.begin(), m.end());
  };
  if (scc_.cyclic[cf]) add_component(cf);
  for (NodeId s : reach_[cf]) add_component(scc_.component_of[s]);
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<DynamicClosure> DynamicClosure::Patched(
    const Digraph& next, const PatchOptions& options,
    PatchStats* stats) const {
  auto out = std::unique_ptr<DynamicClosure>(new DynamicClosure());
  const Csr dag = out->Condense(next);
  const SccResult& scc = out->scc_;

  const NodeId old_n = arcs_.NumRows();
  const NodeId new_n = out->arcs_.NumRows();
  const NodeId nc = scc.NumComponents();
  const NodeId shared_n = std::min(old_n, new_n);

  // Per-node arc diff: the successor lists must match exactly, else the
  // node's component is a dirty seed (a changed arc's tail — the DRed
  // over-deletion/insertion frontier). Lists are compared as stored, so a
  // reordered list only over-marks, which is safe.
  std::vector<bool> dirty(nc, false);
  for (NodeId u = 0; u < shared_n; ++u) {
    if (!std::ranges::equal(arcs_.Row(u), out->arcs_.Row(u))) {
      dirty[scc.component_of[u]] = true;
    }
  }
  for (NodeId u = shared_n; u < new_n; ++u) {
    dirty[scc.component_of[u]] = true;
  }

  // Membership diff: a component may only alias an old reach vector when
  // it is *the same node set* as some old component (same-size check plus
  // same old component id for every member implies set equality).
  std::vector<NodeId> old_comp_of(nc, 0);
  for (NodeId c = 0; c < nc; ++c) {
    if (dirty[c]) continue;
    const auto& m = scc.members[c];
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
    for (NodeId s : dag.Row(c)) {
      if (dirty[scc.component_of[s]]) {
        dirty[c] = true;
        break;
      }
    }
  }

  uint64_t dirty_nodes = 0;
  uint64_t dirty_comps = 0;
  for (NodeId c = 0; c < nc; ++c) {
    if (dirty[c]) {
      dirty_nodes += scc.members[c].size();
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
      out->MergeComponent(c, dag, &merger);  // re-derive
    }
  }
  out->FinalizeArcCount();
  return out;
}

}  // namespace olite::graph
