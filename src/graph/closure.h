#ifndef OLITE_GRAPH_CLOSURE_H_
#define OLITE_GRAPH_CLOSURE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/exec_budget.h"
#include "common/result.h"
#include "graph/digraph.h"

namespace olite {
class ThreadPool;
}

namespace olite::graph {

/// Query interface over the transitive closure of a digraph.
///
/// `Reaches(u, v)` is true iff there is a path of length >= 1 from `u` to
/// `v`; in particular a node reaches itself only when it lies on a cycle.
/// The reflexive closure, where callers need it (e.g. the `computeUnsat`
/// predecessor sets), is obtained by unioning the node itself.
class TransitiveClosure {
 public:
  virtual ~TransitiveClosure() = default;

  /// True iff a path of length >= 1 leads from `from` to `to`.
  virtual bool Reaches(NodeId from, NodeId to) const = 0;

  /// All nodes reachable from `from` by a path of length >= 1, ascending.
  virtual std::vector<NodeId> ReachableFrom(NodeId from) const = 0;

  /// Number of arcs `(u, v)` in the transitive closure.
  virtual uint64_t NumClosureArcs() const = 0;

  /// Human-readable engine name (for benchmark reports).
  virtual std::string EngineName() const = 0;
};

/// Closure algorithm selector, used by benchmarks to ablate the choice.
enum class ClosureEngine {
  /// One BFS per source node over the raw adjacency lists. Simple baseline
  /// and the tests' oracle: it shares no code with the SCC engine.
  kBfs,
  /// The production engine (graph::DynamicClosure): Tarjan SCC condensation
  /// + reverse-topological merge of sorted per-component reach vectors by
  /// the kernel in graph/reach_merge.h, which skips successors already
  /// covered by another. Memory proportional to the condensed closure. The
  /// result is patchable: `DynamicClosure::Patched` re-derives only what an
  /// arc delta can change.
  kSccMerge,
  /// Alias of `kSccMerge`, kept for callers that ask for a patchable
  /// closure by name: every SCC closure is patchable.
  kDynamic = kSccMerge,
};

/// Returns the canonical name of `engine` ("bfs", "scc_merge").
const char* ClosureEngineName(ClosureEngine engine);

/// Computes the transitive closure of `g` with the chosen engine.
/// `g` must be Finalize()d first: reading pending arcs aborts.
///
/// When `pool` is non-null and wider than one thread, construction is
/// parallelised: per-source BFS for the `bfs` engine, level-synchronous
/// propagation over the condensation DAG for `scc_merge`. The result is
/// bit-identical to the serial computation at every pool width.
std::unique_ptr<TransitiveClosure> ComputeClosure(const Digraph& g,
                                                  ClosureEngine engine,
                                                  ThreadPool* pool = nullptr);

/// Budget-aware closure computation: the engines poll `budget`
/// cooperatively (per source node / per SCC component, from every pool
/// worker) and abandon construction once it is cancelled or past its
/// deadline, returning kResourceExhausted instead of a partially-built
/// closure. A null budget behaves exactly like `ComputeClosure`.
Result<std::unique_ptr<TransitiveClosure>> ComputeClosureBudgeted(
    const Digraph& g, ClosureEngine engine, ThreadPool* pool,
    const ExecBudget* budget);

/// A closure view that materialises nothing: it shares `g` and answers
/// every query with a fresh BFS over its raw arcs, linear in the size of
/// `g`. Same semantics as the engines (path length >= 1, ascending output).
/// Classification wraps the transposed TBox digraph in one to answer
/// "what is below x" without a second closure, and hands the same digraph
/// to computeUnsat's predecessor rule.
std::unique_ptr<TransitiveClosure> OnDemandClosure(
    std::shared_ptr<const Digraph> g);

}  // namespace olite::graph

#endif  // OLITE_GRAPH_CLOSURE_H_
