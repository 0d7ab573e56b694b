#ifndef OLITE_TESTKIT_DIFFERENTIAL_H_
#define OLITE_TESTKIT_DIFFERENTIAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "benchgen/workload.h"
#include "common/exec_budget.h"
#include "dllite/ontology.h"
#include "obda/answer.h"
#include "query/rewriter.h"

namespace olite::testkit {

/// Test-only corruption of one engine's *reported* result, applied between
/// classification and comparison. It lets the differential + shrinking
/// machinery be exercised end-to-end on demand (a discrepancy is observed,
/// shrunk and replayed) without planting a bug in a shipping engine.
/// Default-constructed = disabled.
struct EngineMutation {
  /// Drop every subsumer the graph classifier reports for this named
  /// concept (by name; empty = no mutation). Concepts that genuinely have
  /// subsumers then disagree with the other engines.
  std::string drop_concept_supers_of;

  bool enabled() const { return !drop_concept_supers_of.empty(); }
};

/// Options for `CompareClassifiers`.
struct ClassifierDiffOptions {
  /// The tableau is worst-case exponential; large or adversarial
  /// signatures can skip it (graph/completion/oracle still triangulate).
  bool run_tableau = true;
  double tableau_budget_ms = 60000;
  EngineMutation mutation;
};

/// Differential classification: graph (core::Classify), completion
/// (consequence-based), optionally tableau (through the OWL translation),
/// all refereed by the brute-force `SubsumptionOracle` — subsumer sets and
/// unsatisfiable-predicate sets must agree exactly. Returns human-readable
/// discrepancy descriptions; empty = full agreement.
std::vector<std::string> CompareClassifiers(
    const dllite::Ontology& onto, const ClassifierDiffOptions& options = {});

/// Options for `CheckAnswerPaths`. Each flag selects a family of answer
/// paths; every path is one `obda::QueryEngine` over the workload's one
/// compiled snapshot (classified rewriting), differing from the served
/// default only in its cache or plan-shaping options.
struct AnswerPathOptions {
  /// Null-generation cutoff of the chase oracle; must exceed the largest
  /// query component's atom count (see testkit/chase_oracle.h).
  uint32_t chase_depth = 8;
  /// Plan-cache paths: a caching engine answers each query cold and then
  /// replays it (a stored plan must be hit, and a hit rewrites nothing);
  /// an engine with no cache answers it again.
  bool cache_paths = true;
  /// Evaluator paths: a columnar engine answers cold (its stats must name
  /// `columnar`) and then from its cache; a nested-loop engine answers
  /// cold.
  bool evaluator_paths = false;
  /// One columnar path per seed, each randomising the join order of every
  /// block: physical join order must not change any answer.
  std::vector<uint64_t> join_order_seeds;
  /// Pruning paths: the constraint-pruned cold compile and an engine with
  /// pruning off must agree, the pruned union must never have more
  /// disjuncts, and the unpruned path must report no pruning.
  bool pruning_paths = false;
  /// When set (with `pruning_paths`), accumulates the pruning work
  /// observed (suppressed disjuncts plus dropped unfoldings) across every
  /// query checked. Sweeps assert it is non-zero at the end — a "pruning
  /// sweep" whose constraint-rich workloads never pruned anything tests
  /// nothing.
  uint64_t* pruned_accumulator = nullptr;
};

/// The answer referee, over every query of `w`: compiles the workload
/// once, runs the chase oracle and direct evaluation (PerfectRef rewrite →
/// materialised ABox) once per query, then answers through every selected
/// path. All of them must produce the chase oracle's certain-answer set,
/// and each path's structural assertions must hold. Returns discrepancy
/// descriptions; empty = agreement. Shrinkable: wrap a failing (config,
/// seed) in a ConformanceCase and ddmin with this checker as the
/// predicate.
std::vector<std::string> CheckAnswerPaths(
    const benchgen::Workload& w, const AnswerPathOptions& options = {});

// -- metamorphic properties -------------------------------------------------

/// Adding one random *positive* inclusion (concept or role) must never
/// shrink any subsumer set or the unsatisfiable sets. `seed` drives the
/// choice of added axiom.
std::vector<std::string> CheckPiMonotonicity(const dllite::Ontology& onto,
                                             uint64_t seed);

/// Consistently renaming and re-ordering every predicate name must yield an
/// isomorphic classification (same subsumptions modulo the renaming).
std::vector<std::string> CheckRenamingInvariance(const dllite::Ontology& onto,
                                                 uint64_t seed);

/// Degraded answering under `options` (which should set `allow_degraded`)
/// must return a subset of the unbudgeted answers, row by row, for every
/// query of `w`. Errors (budget exhausted without degradation, or injected
/// faults surfacing as failures) are accepted; *wrong rows* are not.
/// `between_passes`, if set, runs after the unbudgeted baseline pass and
/// before the budgeted pass — the fault-injection tests use it to arm the
/// injector so only the degraded pass sees faults.
std::vector<std::string> CheckBudgetMonotonicity(
    const benchgen::Workload& w, const obda::AnswerOptions& options,
    const std::function<void()>& between_passes = {});

/// Options for `CheckSwapLinearizability`.
struct SwapLinearizabilityOptions {
  /// Concurrent answer threads (keep tiny: conformance sweeps run
  /// hundreds of seeds on small machines).
  size_t threads = 2;
  /// Answers each thread issues, round-robin over the workload's queries.
  size_t answers_per_thread = 8;
  /// Hot swaps performed while the answer threads run (alternating
  /// between the original and the perturbed snapshot).
  size_t swaps = 3;
  /// Fraction of database rows dropped (deterministically, by seed) to
  /// build the perturbed snapshot — a data-only refresh, the scenario the
  /// hot-swap layer exists for.
  double drop_fraction = 0.4;
};

/// Swap linearizability of the serving layer: while a `ServingEngine` is
/// hot-swapped back and forth between the workload's snapshot (A, odd
/// epochs) and a deterministically perturbed copy with rows dropped (B,
/// even epochs), every observed answer must equal the quiescent oracle
/// answer of the snapshot whose epoch the call reports — in particular,
/// always exactly the old-snapshot or the new-snapshot answer, never a
/// blend of the two. After the churn, the final epoch must serve its
/// oracle answers exactly. Returns discrepancy descriptions; empty =
/// linearizable. Shrinkable: wrap a failing (workload, seed) in a
/// testkit::ConformanceCase and ddmin with this checker as the predicate.
std::vector<std::string> CheckSwapLinearizability(
    const benchgen::Workload& w, uint64_t seed,
    const SwapLinearizabilityOptions& options = {});

/// Semantic approximation (src/approx) of the OWL translation of `w`'s
/// ontology must yield *sound* answers: every certain answer over the
/// approximated TBox is a certain answer over the original. Skipped (empty
/// result) for ontologies with attributes — the OWL round trip renames
/// attributes to `attr:` roles, which the workload ABox cannot follow.
std::vector<std::string> CheckApproxSoundness(const benchgen::Workload& w);

/// Options for `CheckDeltaCompile`.
struct DeltaCompileOptions {
  /// Shape of the seeded delta sequence chained over the workload.
  benchgen::DeltaSequenceConfig sequence;
  /// Rewrite mode both compile paths run under.
  query::RewriteMode mode = query::RewriteMode::kClassified;
};

/// Differential *delta compilation*: chains `CompiledOntology::Refresh`
/// over a seeded delta sequence (each refresh building on the previous
/// refreshed snapshot, exactly as a long-lived server would) and compares
/// every refreshed snapshot against a from-scratch `Compile` of the
/// identically edited specification — the TBox text, the mapping
/// assertions in order, each table's row and distinct counts, the
/// classification closure (subsumer sets and unsatisfiable sets of every
/// named predicate), the constraint summary with its per-view facts, and
/// the answers of every workload query must all match exactly. Also
/// checks the selective-invalidation contract: a query touching none of
/// `RefreshInfo::changed_preds` must answer identically on the base and
/// the refreshed snapshot. Returns discrepancy descriptions; empty =
/// agreement. Shrinkable: wrap a failing (workload, config) in a
/// ConformanceCase and ddmin with this checker over
/// `ToWorkload(candidate)` as the predicate.
std::vector<std::string> CheckDeltaCompile(
    const benchgen::Workload& w, const DeltaCompileOptions& options = {});

}  // namespace olite::testkit

#endif  // OLITE_TESTKIT_DIFFERENTIAL_H_
