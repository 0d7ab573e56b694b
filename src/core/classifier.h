#ifndef OLITE_CORE_CLASSIFIER_H_
#define OLITE_CORE_CLASSIFIER_H_

#include <memory>
#include <vector>

#include "common/exec_budget.h"
#include "common/result.h"
#include "core/tbox_graph.h"
#include "dllite/tbox.h"
#include "graph/closure.h"

namespace olite {
class ThreadPool;
}

namespace olite::core {

/// Tuning knobs for `Classify`.
struct ClassificationOptions {
  /// Transitive-closure algorithm (see graph/closure.h). The ablation
  /// benchmark sweeps this.
  graph::ClosureEngine engine = graph::ClosureEngine::kSccMerge;
  /// If false, skip the `computeUnsat` step (Ω_T); the result is then only
  /// complete for TBoxes without unsatisfiable predicates. Used to measure
  /// the cost of the second phase in isolation.
  bool compute_unsat = true;
  /// Execution width of the one closure build: the engine parallelises
  /// internally (common/thread_pool.h).
  /// `1` = exact serial path (the default, and the pre-parallel behaviour);
  /// `0` = hardware_concurrency. Results are identical at every width.
  unsigned threads = 1;
};

/// Timing/volume counters filled in by `Classify`.
struct ClassificationStats {
  double build_graph_ms = 0;
  double closure_ms = 0;
  double unsat_ms = 0;
  uint64_t num_nodes = 0;
  uint64_t num_graph_arcs = 0;
  uint64_t num_closure_arcs = 0;
  uint64_t num_unsat_nodes = 0;

  double TotalMillis() const { return build_graph_ms + closure_ms + unsat_ms; }
};

/// The classification of a DL-Lite_R TBox: Φ_T (subsumptions entailed by the
/// positive inclusions, materialised as the transitive closure of the
/// digraph representation — Theorem 1) together with Ω_T (subsumptions
/// entailed by unsatisfiable predicates, computed by `computeUnsat`).
/// `reverse_closure()` answers "what is below x"; `Classify` makes it an
/// on-demand BFS view over the transposed digraph, not a second closure.
///
/// All query methods implement entailment of *basic* subsumptions:
/// `Subsumes(S2, S1)` answers `T ⊨ S1 ⊑ S2` for S1, S2 of the same sort.
class Classification {
 public:
  Classification(TBoxGraph graph,
                 std::unique_ptr<graph::TransitiveClosure> forward,
                 std::unique_ptr<graph::TransitiveClosure> reverse,
                 std::vector<bool> unsat, ClassificationStats stats)
      : graph_(std::move(graph)),
        forward_(std::move(forward)),
        reverse_(std::move(reverse)),
        unsat_(std::move(unsat)),
        stats_(stats) {}

  // -- node-level queries ---------------------------------------------------

  /// True iff node `to` is reachable from node `from` (path length >= 1).
  bool Reaches(graph::NodeId from, graph::NodeId to) const {
    return forward_->Reaches(from, to);
  }

  /// True iff the predicate of node `n` is unsatisfiable w.r.t. T.
  bool IsUnsatNode(graph::NodeId n) const { return unsat_[n]; }

  /// Entailed subsumption at node level: reflexivity ∪ Φ_T ∪ Ω_T.
  bool SubsumptionHolds(graph::NodeId sub, graph::NodeId sup) const {
    return sub == sup || unsat_[sub] || forward_->Reaches(sub, sup);
  }

  // -- expression-level queries ---------------------------------------------

  /// `T ⊨ b1 ⊑ b2` for basic concepts.
  bool Entails(const dllite::BasicConcept& b1,
               const dllite::BasicConcept& b2) const {
    return SubsumptionHolds(graph_.nodes.OfBasicConcept(b1),
                            graph_.nodes.OfBasicConcept(b2));
  }

  /// `T ⊨ q1 ⊑ q2` for basic roles.
  bool Entails(dllite::BasicRole q1, dllite::BasicRole q2) const {
    return SubsumptionHolds(graph_.nodes.OfRole(q1), graph_.nodes.OfRole(q2));
  }

  /// `T ⊨ u1 ⊑ u2` for attributes.
  bool EntailsAttribute(dllite::AttributeId u1, dllite::AttributeId u2) const {
    return SubsumptionHolds(graph_.nodes.OfAttribute(u1),
                            graph_.nodes.OfAttribute(u2));
  }

  bool IsUnsatisfiable(const dllite::BasicConcept& b) const {
    return unsat_[graph_.nodes.OfBasicConcept(b)];
  }
  bool IsUnsatisfiable(dllite::BasicRole q) const {
    return unsat_[graph_.nodes.OfRole(q)];
  }

  // -- listings ---------------------------------------------------------

  /// Named superclasses of atomic concept `a` (excluding `a`), ascending.
  /// For an unsatisfiable `a` this is every named concept, per Ω_T.
  std::vector<dllite::ConceptId> SuperConcepts(dllite::ConceptId a) const;

  /// Named subclasses of atomic concept `a` (excluding `a`), ascending,
  /// including all unsatisfiable concepts.
  std::vector<dllite::ConceptId> SubConcepts(dllite::ConceptId a) const;

  /// Named super-roles of atomic role `p` (excluding `p`).
  std::vector<dllite::RoleId> SuperRoles(dllite::RoleId p) const;

  /// Named super-attributes of `u` (excluding `u`).
  std::vector<dllite::AttributeId> SuperAttributes(dllite::AttributeId u) const;

  std::vector<dllite::ConceptId> UnsatisfiableConcepts() const;
  std::vector<dllite::RoleId> UnsatisfiableRoles() const;
  std::vector<dllite::AttributeId> UnsatisfiableAttributes() const;

  /// Total number of entailed non-reflexive subsumptions between *named*
  /// predicates (the size of the classification output). With a non-null
  /// `pool`, the per-predicate counts are summed in parallel; the result
  /// is exact and identical at every pool width.
  uint64_t CountNamedSubsumptions(ThreadPool* pool = nullptr) const;

  const TBoxGraph& tbox_graph() const { return graph_; }
  const graph::TransitiveClosure& closure() const { return *forward_; }
  const graph::TransitiveClosure& reverse_closure() const { return *reverse_; }
  const ClassificationStats& stats() const { return stats_; }

 private:
  TBoxGraph graph_;
  std::unique_ptr<graph::TransitiveClosure> forward_;
  std::unique_ptr<graph::TransitiveClosure> reverse_;
  std::vector<bool> unsat_;
  ClassificationStats stats_;
};

/// Classifies `tbox`: builds the digraph representation (Definition 1),
/// computes its transitive closure (Φ_T, Theorem 1) and runs `computeUnsat`
/// (Ω_T), returning a queryable `Classification`.
Classification Classify(const dllite::TBox& tbox,
                        const dllite::Vocabulary& vocab,
                        const ClassificationOptions& options = {});

/// Budget-aware classification: the closure engines poll `budget`
/// cooperatively (including from pool workers) and `computeUnsat` checks
/// it per fixpoint step, so an adversarial TBox cannot pin a serving
/// thread past its deadline. Returns kResourceExhausted once the budget
/// is cancelled or expired; a null budget behaves exactly like
/// `Classify`.
Result<Classification> ClassifyBudgeted(const dllite::TBox& tbox,
                                        const dllite::Vocabulary& vocab,
                                        const ClassificationOptions& options,
                                        const ExecBudget* budget);

/// Telemetry from `RefreshClassification`, fed into `snapshot.delta_*`.
struct RefreshStats {
  /// True when the refresh degenerated to a from-scratch classification —
  /// node-id layout changed (vocabulary grew), the base closure was built
  /// by the `kBfs` engine, or the delta exceeded the fallback fraction.
  bool fell_back_scratch = false;
  /// Nodes inside re-derived components of the patched closure; every
  /// node when the refresh fell back to scratch.
  uint64_t patched_nodes = 0;
  /// Components whose reach vectors were aliased from the base closure.
  uint64_t reused_components = 0;
};

/// Classification of `tbox` maintained *incrementally* from `base`:
/// rebuilds the (linear-size) TBox digraph, patches the one closure via
/// `graph::DynamicClosure::Patched` — additions by re-deriving from the
/// changed arcs' frontiers, removals DRed-style over the SCC condensation —
/// re-wraps the transposed digraph in an on-demand view, and re-runs
/// `computeUnsat`. Every base built with the SCC engine (the default) is
/// patchable. Falls back to a default `Classify` when node ids shifted, the
/// base was built with the `kBfs` engine, or the delta is too large (dirty
/// nodes past `graph::DynamicClosure::PatchOptions`' default fallback
/// fraction). The result is always identical to a from-scratch `Classify`
/// of `tbox`.
Classification RefreshClassification(const Classification& base,
                                     const dllite::TBox& tbox,
                                     const dllite::Vocabulary& vocab,
                                     RefreshStats* stats = nullptr);

/// The paper's `computeUnsat` algorithm: returns the per-node
/// unsatisfiability flags for the TBox underlying `g`, given forward and
/// reverse reachability over its digraph (`reverse` may be the on-demand
/// view `Classify` uses). Only `reverse` is read, for the
/// negative-inclusion seeds and the qualified-existential successor test;
/// the predecessor rule walks the raw arcs of `g.digraph`, transposed only
/// when some node is unsatisfiable. `forward` is unused and kept so that
/// existing callers need no change.
std::vector<bool> ComputeUnsat(const TBoxGraph& g,
                               const graph::TransitiveClosure& forward,
                               const graph::TransitiveClosure& reverse);

/// Budget-aware computeUnsat for callers that already hold the transposed
/// digraph: `predecessors` is `g.digraph.Reversed()` (typically the very
/// digraph the on-demand `reverse` view walks), so one transposition
/// serves both. Polls `budget` per seed axiom and per fixpoint pop;
/// kResourceExhausted on exhaustion (a null budget never exhausts).
Result<std::vector<bool>> ComputeUnsatBudgeted(
    const TBoxGraph& g, const graph::TransitiveClosure& reverse,
    const graph::Digraph& predecessors, const ExecBudget* budget);

}  // namespace olite::core

#endif  // OLITE_CORE_CLASSIFIER_H_
