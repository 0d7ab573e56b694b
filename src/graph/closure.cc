#include "graph/closure.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"
#include "graph/dynamic_closure.h"

namespace olite::graph {

namespace {

bool UsePool(const ThreadPool* pool) {
  return pool != nullptr && pool->num_threads() > 1;
}

// ---------------------------------------------------------------------------
// BFS engine: one breadth-first traversal per source node. Sources are
// independent, so construction parallelises with per-shard scratch.
// ---------------------------------------------------------------------------
class BfsClosure : public TransitiveClosure {
 public:
  explicit BfsClosure(const Digraph& g, ThreadPool* pool,
                      const ExecBudget* budget = nullptr)
      : abort_(budget) {
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

  bool aborted() const { return abort_.tripped(); }

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
  BudgetLatch abort_;
};

// ---------------------------------------------------------------------------
// On-demand view: one BFS per query over the shared digraph.
// ---------------------------------------------------------------------------
class OnDemandBfsClosure : public TransitiveClosure {
 public:
  explicit OnDemandBfsClosure(std::shared_ptr<const Digraph> g)
      : g_(std::move(g)) {}

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
    const Digraph& g = *g_;
    std::vector<bool> visited(g.NumNodes(), false);
    std::vector<NodeId> queue;
    auto reach = [&](NodeId v) {
      if (visited[v]) return true;
      visited[v] = true;
      queue.push_back(v);
      return keep_going(v);
    };
    for (NodeId v : g.Successors(from)) {
      if (!reach(v)) return queue;
    }
    for (size_t head = 0; head < queue.size(); ++head) {
      for (NodeId w : g.Successors(queue[head])) {
        if (!reach(w)) return queue;
      }
    }
    return queue;
  }

  std::shared_ptr<const Digraph> g_;
};

}  // namespace

const char* ClosureEngineName(ClosureEngine engine) {
  switch (engine) {
    case ClosureEngine::kBfs: return "bfs";
    case ClosureEngine::kSccMerge: return "scc_merge";
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
      return std::make_unique<DynamicClosure>(g, pool);
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
      return finish(std::make_unique<DynamicClosure>(g, pool, budget));
  }
  return Status::InvalidArgument("unknown closure engine");
}

std::unique_ptr<TransitiveClosure> OnDemandClosure(
    std::shared_ptr<const Digraph> g) {
  return std::make_unique<OnDemandBfsClosure>(std::move(g));
}

}  // namespace olite::graph
