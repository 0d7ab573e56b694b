#include "graph/closure.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <utility>

#include "common/thread_pool.h"
#include "graph/bitset.h"
#include "graph/dynamic_closure.h"
#include "graph/reach_merge.h"
#include "graph/scc.h"

namespace olite::graph {

namespace {

bool UsePool(const ThreadPool* pool) {
  return pool != nullptr && pool->num_threads() > 1;
}

// Cooperative-abort bookkeeping shared by the engine constructors: polls
// the budget once per work unit (a source node or an SCC component — each
// amortises the clock read over real traversal work) and latches. Workers
// that observe the latch skip their remaining units, so a cancelled build
// converges quickly; the half-built closure is discarded by the caller.
struct BuildAbort {
  const ExecBudget* budget = nullptr;
  std::atomic<bool> aborted{false};

  // True when the caller should skip this work unit.
  bool Poll() {
    if (aborted.load(std::memory_order_relaxed)) return true;
    if (budget != nullptr && budget->Exhausted()) {
      aborted.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// BFS engine: one breadth-first traversal per source node. Sources are
// independent, so construction parallelises with per-shard scratch.
// ---------------------------------------------------------------------------
class BfsClosure : public TransitiveClosure {
 public:
  explicit BfsClosure(const Digraph& g, ThreadPool* pool,
                      const ExecBudget* budget = nullptr) {
    abort_.budget = budget;
    const NodeId n = g.NumNodes();
    reach_.resize(n);
    if (!UsePool(pool)) {
      Scratch scratch;
      scratch.visited.assign(n, 0);
      for (NodeId src = 0; src < n; ++src) {
        if (abort_.Poll()) break;
        Traverse(g, src, &scratch);
      }
    } else {
      std::vector<Scratch> scratch(pool->num_threads());
      pool->ParallelForShard(0, n, /*grain=*/16, [&](unsigned shard,
                                                     size_t src) {
        if (abort_.Poll()) return;
        Scratch& s = scratch[shard];
        if (s.visited.size() < n) s.visited.assign(n, 0);
        Traverse(g, static_cast<NodeId>(src), &s);
      });
    }
    for (const auto& r : reach_) num_arcs_ += r.size();
  }

  bool aborted() const { return abort_.aborted.load(std::memory_order_relaxed); }

  bool Reaches(NodeId from, NodeId to) const override {
    const auto& r = reach_[from];
    return std::binary_search(r.begin(), r.end(), to);
  }

  std::vector<NodeId> ReachableFrom(NodeId from) const override {
    return reach_[from];
  }

  uint64_t NumClosureArcs() const override { return num_arcs_; }
  std::string EngineName() const override { return "bfs"; }

 private:
  struct Scratch {
    std::vector<uint32_t> visited;
    uint32_t stamp = 0;
    std::vector<NodeId> queue;
  };

  void Traverse(const Digraph& g, NodeId src, Scratch* s) {
    ++s->stamp;
    s->queue.clear();
    // Seed with the successors of src (paths of length >= 1).
    for (NodeId v : g.Successors(src)) {
      if (s->visited[v] != s->stamp) {
        s->visited[v] = s->stamp;
        s->queue.push_back(v);
      }
    }
    for (size_t head = 0; head < s->queue.size(); ++head) {
      for (NodeId w : g.Successors(s->queue[head])) {
        if (s->visited[w] != s->stamp) {
          s->visited[w] = s->stamp;
          s->queue.push_back(w);
        }
      }
    }
    std::sort(s->queue.begin(), s->queue.end());
    reach_[src] = s->queue;
  }

  std::vector<std::vector<NodeId>> reach_;
  uint64_t num_arcs_ = 0;
  BuildAbort abort_;
};

// ---------------------------------------------------------------------------
// Shared SCC scaffolding: node-level queries on top of per-component
// reachability, exploiting that Tarjan emits components in reverse
// topological order (successor components have smaller ids).
//
// CRTP instead of virtual hooks: the per-component visitor is a template
// on the concrete engine, so enumerating a reach set costs no indirect
// call per reachable component (the hot loop of `ReachableFrom`).
// Derived classes provide:
//   bool ComponentReaches(NodeId cf, NodeId ct) const;
//   template <typename Fn> void ForEachReachableComponent(NodeId c, Fn&&);
//   uint64_t ReachableNodeCount(NodeId c) const;
// ---------------------------------------------------------------------------
template <typename Derived>
class SccClosureBase : public TransitiveClosure {
 public:
  explicit SccClosureBase(const Digraph& g)
      : scc_(ComputeScc(g)), dag_(BuildCondensation(g, scc_)) {}

  bool Reaches(NodeId from, NodeId to) const final {
    NodeId cf = scc_.component_of[from];
    NodeId ct = scc_.component_of[to];
    if (cf == ct) return scc_.cyclic[cf];
    return derived().ComponentReaches(cf, ct);
  }

  std::vector<NodeId> ReachableFrom(NodeId from) const final {
    NodeId cf = scc_.component_of[from];
    std::vector<NodeId> out;
    auto add_component = [&](NodeId c) {
      for (NodeId v : scc_.members[c]) out.push_back(v);
    };
    if (scc_.cyclic[cf]) add_component(cf);
    derived().ForEachReachableComponent(cf, add_component);
    std::sort(out.begin(), out.end());
    return out;
  }

  uint64_t NumClosureArcs() const final { return num_arcs_; }

 protected:
  /// Sums the closure-arc count; called once at the end of construction
  /// (per-component terms are independent, so this parallelises too).
  void FinalizeArcCount(ThreadPool* pool) {
    const NodeId nc = scc_.NumComponents();
    auto term = [this](NodeId c) {
      uint64_t targets = derived().ReachableNodeCount(c);
      if (scc_.cyclic[c]) targets += scc_.members[c].size();
      return targets * scc_.members[c].size();
    };
    if (!UsePool(pool)) {
      for (NodeId c = 0; c < nc; ++c) num_arcs_ += term(c);
      return;
    }
    std::vector<uint64_t> partial(pool->num_threads(), 0);
    pool->ParallelForShard(0, nc, /*grain=*/64, [&](unsigned shard, size_t c) {
      partial[shard] += term(static_cast<NodeId>(c));
    });
    for (uint64_t p : partial) num_arcs_ += p;
  }

  /// Groups components by longest-path depth in the condensation DAG.
  /// All of a component's successors sit in strictly earlier levels, so
  /// the components of one level can be processed concurrently once every
  /// earlier level is final. Levels (and each level) ascend by id.
  std::vector<std::vector<NodeId>> TopologicalLevels() const {
    const NodeId nc = dag_.NumNodes();
    std::vector<uint32_t> level(nc, 0);
    uint32_t max_level = 0;
    for (NodeId c = 0; c < nc; ++c) {
      uint32_t l = 0;
      // Successor components have smaller ids: already levelled.
      for (NodeId d : dag_.Successors(c)) l = std::max(l, level[d] + 1);
      level[c] = l;
      max_level = std::max(max_level, l);
    }
    std::vector<std::vector<NodeId>> levels(max_level + 1);
    for (NodeId c = 0; c < nc; ++c) levels[level[c]].push_back(c);
    return levels;
  }

  const Derived& derived() const { return static_cast<const Derived&>(*this); }

  SccResult scc_;
  Digraph dag_;
  uint64_t num_arcs_ = 0;
};

// ---------------------------------------------------------------------------
// SCC + sorted-vector merge engine (production default).
// ---------------------------------------------------------------------------
class SccMergeClosure : public SccClosureBase<SccMergeClosure> {
 public:
  explicit SccMergeClosure(const Digraph& g, ThreadPool* pool,
                           const ExecBudget* budget = nullptr)
      : SccClosureBase(g) {
    abort_.budget = budget;
    const NodeId nc = scc_.NumComponents();
    comp_reach_.resize(nc);
    if (!UsePool(pool)) {
      // Component ids ascend in reverse topological order, so every
      // successor component's reach set is already final when we process c.
      ReachMerger merger(nc);
      for (NodeId c = 0; c < nc; ++c) {
        if (abort_.Poll()) break;
        MergeOne(c, &merger);
      }
    } else {
      // Level-synchronous propagation: within a level no component can
      // reach another, so their merges only read finalised earlier levels.
      std::vector<ReachMerger> mergers(pool->num_threads(), ReachMerger(nc));
      for (const auto& level : TopologicalLevels()) {
        pool->ParallelForShard(0, level.size(), /*grain=*/16,
                               [&](unsigned shard, size_t i) {
                                 if (abort_.Poll()) return;
                                 MergeOne(level[i], &mergers[shard]);
                               });
      }
    }
    FinalizeArcCount(pool);
  }

  bool aborted() const { return abort_.aborted.load(std::memory_order_relaxed); }

  std::string EngineName() const override { return "scc_merge"; }

  bool ComponentReaches(NodeId cf, NodeId ct) const {
    const auto& r = comp_reach_[cf];
    return std::binary_search(r.begin(), r.end(), ct);
  }

  template <typename Fn>
  void ForEachReachableComponent(NodeId c, Fn&& fn) const {
    for (NodeId d : comp_reach_[c]) fn(d);
  }

  uint64_t ReachableNodeCount(NodeId c) const {
    uint64_t total = 0;
    for (NodeId d : comp_reach_[c]) total += scc_.members[d].size();
    return total;
  }

 private:
  // Component-id space: a successor d contributes itself and its reach.
  void MergeOne(NodeId c, ReachMerger* merger) {
    merger->Merge(
        c, dag_.Successors(c),
        [this](NodeId d) -> const std::vector<NodeId>& {
          return comp_reach_[d];
        },
        [](NodeId d) { return std::array<NodeId, 1>{d}; }, &comp_reach_[c]);
  }

  std::vector<std::vector<NodeId>> comp_reach_;
  BuildAbort abort_;
};

// ---------------------------------------------------------------------------
// SCC + bitset engine.
// ---------------------------------------------------------------------------
class SccBitsetClosure : public SccClosureBase<SccBitsetClosure> {
 public:
  explicit SccBitsetClosure(const Digraph& g, ThreadPool* pool,
                            const ExecBudget* budget = nullptr)
      : SccClosureBase(g) {
    abort_.budget = budget;
    const NodeId nc = scc_.NumComponents();
    comp_reach_.resize(nc);
    if (!UsePool(pool)) {
      for (NodeId c = 0; c < nc; ++c) {
        if (abort_.Poll()) break;
        UnionOne(nc, c);
      }
    } else {
      for (const auto& level : TopologicalLevels()) {
        pool->ParallelFor(0, level.size(), /*grain=*/16, [&](size_t i) {
          if (abort_.Poll()) return;
          UnionOne(nc, level[i]);
        });
      }
    }
    FinalizeArcCount(pool);
  }

  bool aborted() const { return abort_.aborted.load(std::memory_order_relaxed); }

  std::string EngineName() const override { return "scc_bitset"; }

  bool ComponentReaches(NodeId cf, NodeId ct) const {
    return comp_reach_[cf].Test(ct);
  }

  template <typename Fn>
  void ForEachReachableComponent(NodeId c, Fn&& fn) const {
    comp_reach_[c].ForEachSet([&](size_t d) { fn(static_cast<NodeId>(d)); });
  }

  uint64_t ReachableNodeCount(NodeId c) const {
    uint64_t total = 0;
    comp_reach_[c].ForEachSet(
        [&](size_t d) { total += scc_.members[d].size(); });
    return total;
  }

 private:
  void UnionOne(NodeId nc, NodeId c) {
    DynamicBitset bits(nc);
    for (NodeId d : dag_.Successors(c)) {
      bits.Set(d);
      bits.OrWith(comp_reach_[d]);
    }
    comp_reach_[c] = std::move(bits);
  }

  std::vector<DynamicBitset> comp_reach_;
  BuildAbort abort_;
};

// ---------------------------------------------------------------------------
// On-demand view: one BFS per query over the owned digraph.
// ---------------------------------------------------------------------------
class OnDemandBfsClosure : public TransitiveClosure {
 public:
  explicit OnDemandBfsClosure(Digraph g) : g_(std::move(g)) {}

  bool Reaches(NodeId from, NodeId to) const override {
    bool found = false;
    Visit(from, [&](NodeId v) {
      found = v == to;
      return !found;
    });
    return found;
  }

  std::vector<NodeId> ReachableFrom(NodeId from) const override {
    std::vector<NodeId> out = Visit(from, [](NodeId) { return true; });
    std::sort(out.begin(), out.end());
    return out;
  }

  uint64_t NumClosureArcs() const override { return 0; }
  std::string EngineName() const override { return "on_demand_bfs"; }

 private:
  // Breadth-first over paths of length >= 1 from `from`, returning the
  // nodes reached in visit order. `keep_going(v)` sees each node once and
  // stops the search by returning false.
  template <typename Fn>
  std::vector<NodeId> Visit(NodeId from, Fn&& keep_going) const {
    std::vector<bool> visited(g_.NumNodes(), false);
    std::vector<NodeId> queue;
    auto reach = [&](NodeId v) {
      if (visited[v]) return true;
      visited[v] = true;
      queue.push_back(v);
      return keep_going(v);
    };
    for (NodeId v : g_.Successors(from)) {
      if (!reach(v)) return queue;
    }
    for (size_t head = 0; head < queue.size(); ++head) {
      for (NodeId w : g_.Successors(queue[head])) {
        if (!reach(w)) return queue;
      }
    }
    return queue;
  }

  Digraph g_;
};

}  // namespace

const char* ClosureEngineName(ClosureEngine engine) {
  switch (engine) {
    case ClosureEngine::kBfs: return "bfs";
    case ClosureEngine::kSccMerge: return "scc_merge";
    case ClosureEngine::kSccBitset: return "scc_bitset";
    case ClosureEngine::kDynamic: return "dynamic";
  }
  return "unknown";
}

std::unique_ptr<TransitiveClosure> ComputeClosure(const Digraph& g,
                                                  ClosureEngine engine,
                                                  ThreadPool* pool) {
  switch (engine) {
    case ClosureEngine::kBfs:
      return std::make_unique<BfsClosure>(g, pool);
    case ClosureEngine::kSccMerge:
      return std::make_unique<SccMergeClosure>(g, pool);
    case ClosureEngine::kSccBitset:
      return std::make_unique<SccBitsetClosure>(g, pool);
    case ClosureEngine::kDynamic:
      return std::make_unique<DynamicClosure>(g);
  }
  return nullptr;
}

Result<std::unique_ptr<TransitiveClosure>> ComputeClosureBudgeted(
    const Digraph& g, ClosureEngine engine, ThreadPool* pool,
    const ExecBudget* budget) {
  auto finish = [&](auto closure) -> Result<std::unique_ptr<TransitiveClosure>> {
    if (closure->aborted()) {
      Status s = budget->Check("closure");
      if (s.ok()) s = Status::ResourceExhausted("closure: budget exhausted");
      return s;
    }
    return std::unique_ptr<TransitiveClosure>(std::move(closure));
  };
  switch (engine) {
    case ClosureEngine::kBfs:
      return finish(std::make_unique<BfsClosure>(g, pool, budget));
    case ClosureEngine::kSccMerge:
      return finish(std::make_unique<SccMergeClosure>(g, pool, budget));
    case ClosureEngine::kSccBitset:
      return finish(std::make_unique<SccBitsetClosure>(g, pool, budget));
    case ClosureEngine::kDynamic: {
      // The dynamic engine is built for patch reuse, not budget ablation:
      // a single post-build budget check suffices for the fallback ladder.
      auto closure = std::make_unique<DynamicClosure>(g);
      if (budget != nullptr && budget->Exhausted()) {
        Status s = budget->Check("closure");
        if (s.ok()) s = Status::ResourceExhausted("closure: budget exhausted");
        return s;
      }
      return std::unique_ptr<TransitiveClosure>(std::move(closure));
    }
  }
  return Status::InvalidArgument("unknown closure engine");
}

std::unique_ptr<TransitiveClosure> OnDemandClosure(Digraph g) {
  return std::make_unique<OnDemandBfsClosure>(std::move(g));
}

}  // namespace olite::graph
