#include "graph/dynamic_closure.h"

#include <algorithm>
#include <ranges>
#include <span>
#include <utility>

#include "common/thread_pool.h"

namespace olite::graph {

DynamicClosure::DynamicClosure(const Digraph& g, ThreadPool* pool,
                               const ExecBudget* budget) {
  const Digraph dag = Condense(g);
  const NodeId nc = scc_.NumComponents();
  reach_.resize(nc);
  BudgetLatch latch(budget);  // polled once per component
  if (pool == nullptr || pool->num_threads() <= 1) {
    // Component ids ascend in reverse topological order, so every
    // successor component's reach set is final when we merge c.
    Shard shard(arcs_.NumNodes());
    for (NodeId c = 0; c < nc && !latch.Poll(); ++c) {
      MergeComponent(c, dag, &shard);
    }
  } else {
    // Level-synchronous propagation: within a level no component can
    // reach another, so their merges only read finalised earlier levels.
    std::vector<Shard> shards(pool->num_threads(), Shard(arcs_.NumNodes()));
    for (const auto& level : Levels(dag)) {
      pool->ParallelForShard(0, level.size(), /*grain=*/16,
                             [&](unsigned shard, size_t i) {
                               if (latch.Poll()) return;
                               MergeComponent(level[i], dag, &shards[shard]);
                             });
    }
  }
  aborted_ = latch.tripped();
  FinalizeArcCount();
}

Digraph DynamicClosure::Condense(const Digraph& g) {
  arcs_ = g;
  scc_ = ComputeScc(g);
  Digraph dag(scc_.NumComponents());
  dag.ReserveArcs(g.NumArcs());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const NodeId c = scc_.component_of[u];
    for (NodeId v : g.Successors(u)) {
      const NodeId d = scc_.component_of[v];
      if (d != c) dag.AddArc(c, d);
    }
  }
  dag.Finalize();
  return dag;
}

std::vector<std::vector<NodeId>> DynamicClosure::Levels(
    const Digraph& dag) const {
  const NodeId nc = scc_.NumComponents();
  std::vector<uint32_t> level(nc, 0);
  uint32_t max_level = 0;
  for (NodeId c = 0; c < nc; ++c) {
    uint32_t l = 0;
    // Successor components have smaller ids: already levelled.
    for (NodeId d : dag.Successors(c)) l = std::max(l, level[d] + 1);
    level[c] = l;
    max_level = std::max(max_level, l);
  }
  std::vector<std::vector<NodeId>> levels(max_level + 1);
  for (NodeId c = 0; c < nc; ++c) levels[level[c]].push_back(c);
  return levels;
}

std::shared_ptr<NodeId[]> DynamicClosure::Shard::Carve(NodeId n) {
  if (capacity_ - used_ < n) {
    capacity_ = static_cast<NodeId>(std::max<uint64_t>(
        n, std::clamp(handed_out_, kMinChunkIds, kMaxChunkIds)));
    chunk_ = std::make_shared_for_overwrite<NodeId[]>(capacity_);
    used_ = 0;
  }
  std::shared_ptr<NodeId[]> slice(chunk_, chunk_.get() + used_);  // aliasing
  used_ += n;
  handed_out_ += n;
  return slice;
}

void DynamicClosure::MergeComponent(NodeId c, const Digraph& dag,
                                    Shard* shard) {
  // The kernel names components by representative, a stable node id.
  auto reach_of = [this](NodeId s) -> const Reach& {
    return reach_[scc_.component_of[s]];
  };
  ReachMerger& merger = shard->merger;
  const size_t size = merger.Merge(
      c,
      dag.Successors(c) |
          std::views::transform([this](NodeId d) { return RepOf(d); }),
      reach_of);
  if (size == 0) return;
  Reach& r = reach_[c];
  r.num_ids = static_cast<NodeId>(size);
  r.num_nodes = reach_of(merger.head()).num_nodes;
  for (NodeId s : merger.added()) {
    r.num_nodes += scc_.Members(scc_.component_of[s]).size();
  }
  std::shared_ptr<NodeId[]> ids = shard->Carve(r.num_ids);
  merger.CopyTo(ids.get());
  r.ids = std::move(ids);
}

void DynamicClosure::FinalizeArcCount() {
  num_arcs_ = 0;
  for (NodeId c = 0; c < scc_.NumComponents(); ++c) {
    const uint64_t size = scc_.Members(c).size();
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
    const std::span<const NodeId> m = scc_.Members(c);
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
  const Digraph dag = out->Condense(next);
  const SccResult& scc = out->scc_;

  const NodeId old_n = arcs_.NumNodes();
  const NodeId new_n = out->arcs_.NumNodes();
  const NodeId nc = scc.NumComponents();
  const NodeId shared_n = std::min(old_n, new_n);

  // Per-node arc diff: a node whose (sorted, duplicate-free) successor row
  // differs, or a new node, makes its component a dirty seed (a changed
  // arc's tail — the DRed over-deletion/insertion frontier).
  std::vector<bool> dirty(nc, false);
  for (NodeId u = 0; u < shared_n; ++u) {
    if (!std::ranges::equal(arcs_.Successors(u), out->arcs_.Successors(u))) {
      dirty[scc.component_of[u]] = true;
    }
  }
  for (NodeId u = shared_n; u < new_n; ++u) {
    dirty[scc.component_of[u]] = true;
  }

  // Upstream propagation: successors have smaller ids, so one ascending
  // sweep settles transitive dirtiness.
  for (NodeId c = 0; c < nc; ++c) {
    if (dirty[c]) continue;
    for (NodeId d : dag.Successors(c)) {
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
      dirty_nodes += scc.Members(c).size();
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

  // A clean component is exactly one old component, so it aliases that
  // component's reach and no member set needs comparing. Take a clean
  // member u: every node u reaches lies in a clean component, so it is an
  // old node with an unchanged row. By induction along paths u reaches the
  // same nodes in both graphs, and so does every node u reaches; mutual
  // reachability with u, i.e. u's component, is the same in both graphs.
  // So a merge, which needs an added arc with its tail inside the merged
  // component, and a split, which leaves a changed arc's tail reachable
  // from every member of each part, both leave the component dirty.
  out->reach_.resize(nc);
  Shard shard(new_n);
  for (NodeId c = 0; c < nc; ++c) {
    if (!fall_back && !dirty[c]) {
      out->reach_[c] = reach_[scc_.component_of[out->RepOf(c)]];  // alias
    } else {
      out->MergeComponent(c, dag, &shard);  // re-derive
    }
  }
  out->FinalizeArcCount();
  return out;
}

}  // namespace olite::graph
