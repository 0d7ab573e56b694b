#ifndef OLITE_QUERY_REWRITER_H_
#define OLITE_QUERY_REWRITER_H_

#include <memory>

#include "common/exec_budget.h"
#include "common/result.h"
#include "core/classifier.h"
#include "dllite/tbox.h"
#include "query/cq.h"

namespace olite::query {

class ConstraintOracle;  // containment.h

/// Rewriting strategy.
enum class RewriteMode {
  /// Textbook PerfectRef: applicable axioms are the *asserted* positive
  /// inclusions; chains of subsumptions need one iteration per step.
  kPerfectRef,
  /// Classification-aided rewriting (Presto-inspired, §5 of the paper):
  /// atoms are expanded against the *transitive closure* of the TBox
  /// digraph, so each subsumption chain is applied in a single step.
  kClassified,
};

const char* RewriteModeName(RewriteMode mode);

/// Counters for a rewriting run.
struct RewriteStats {
  size_t iterations = 0;       ///< CQs popped from the work queue
  size_t generated = 0;        ///< candidate CQs produced (pre-dedup)
  size_t final_disjuncts = 0;  ///< CQs in the output UCQ
  uint64_t prune_checks = 0;   ///< containment tests run by prune_subsumed
  uint64_t prune_skipped = 0;  ///< pair checks skipped (quota/deadline ran out)
  uint64_t pruned = 0;         ///< disjuncts removed by prune_subsumed
  // -- constraint-aware pruning (RewriterOptions::constraints) ---------------
  /// Source-constraint oracle consultations (rewrite stage; the obda layer
  /// adds the unfolder's consultations before surfacing the struct).
  uint64_t constraint_checks = 0;
  /// Disjuncts suppressed from the output because a source constraint
  /// proves their source evaluation covered by a retained disjunct (or
  /// empty). They are still *expanded* — their descendants can contribute.
  uint64_t pruned_disjuncts = 0;
  /// Of `pruned`, how many removals needed the constraint oracle.
  uint64_t constraint_pruned = 0;
  /// Mapping choices / disjunct unfoldings dropped by the unfolder under
  /// source constraints. Lives here so one struct travels through
  /// `AnswerStats` and the plan cache; filled by the obda layer.
  uint64_t pruned_unfoldings = 0;
  /// Self-join table instances merged via inferred keys (obda layer).
  uint64_t constraint_key_joins = 0;
  /// False when the expansion stopped early under a budget (the output is
  /// still a sound — subset-complete — UCQ).
  bool expansion_complete = true;
  /// False when the minimisation sweep was cut short (output is complete
  /// but possibly redundant).
  bool prune_complete = true;
  /// False when the constraint-check quota stopped pruning mid-run (the
  /// remaining candidates were kept unpruned — sound, just larger).
  bool constraint_prune_complete = true;
  /// Wall-clock of the expansion loop (everything before minimisation),
  /// in microseconds.
  double expand_us = 0;
  /// Wall-clock of the prune_subsumed minimisation sweep, in microseconds
  /// (0 when pruning is disabled).
  double minimize_us = 0;
};

/// Component-local quota for the O(n²) prune_subsumed sweep: past this
/// many homomorphism tests the remaining pairs are skipped (sound, the
/// union just stays larger).
inline constexpr uint64_t kMaxPruneChecks = 250000;

/// Options for `Rewriter::Rewrite`.
struct RewriterOptions {
  RewriteMode mode = RewriteMode::kPerfectRef;
  /// Abort with kResourceExhausted beyond this many distinct disjuncts.
  size_t max_disjuncts = 100000;
  /// Drop output disjuncts contained in another disjunct (UCQ
  /// minimisation via the homomorphism criterion — see containment.h).
  bool prune_subsumed = true;
  /// Source-constraint oracle (see obda/constraints.h) enabling
  /// constraint-aware pruning: hierarchy rewriting steps whose child
  /// disjunct is covered at the source are suppressed from the output (but
  /// still expanded), disjuncts over source-empty predicates are dropped,
  /// and the minimisation sweep collapses cross-predicate subsumptions.
  /// Not owned; must outlive the rewriter. Null disables the layer.
  const ConstraintOracle* constraints = nullptr;
  /// Local cap on oracle consultations per Rewrite call; past it the rest
  /// of the call runs unpruned (sound). 0 = unlimited.
  uint64_t max_constraint_checks = 1000000;
  /// Prebuilt classification of (tbox, vocab) to use for `kClassified`
  /// instead of classifying from scratch inside the constructor. The delta
  /// compile path injects its incrementally-patched classification here so
  /// a refresh never re-runs the closure. Ignored for `kPerfectRef`; must
  /// actually classify the same TBox when set.
  std::shared_ptr<const core::Classification> classification;
};

/// Per-call budget controls for `Rewriter::Rewrite`.
struct RewriteRequest {
  /// Shared budget: per-iteration deadline/cancellation checks, the
  /// kRewriteIterations quota on the expansion loop, and the
  /// kContainmentChecks quota on pruning. May be null.
  const ExecBudget* budget = nullptr;
  /// On budget exhaustion mid-expansion, return the disjuncts generated so
  /// far (a *sound* under-approximation — every disjunct is an entailed
  /// specialisation, so evaluating the partial union yields a subset of
  /// the certain answers) instead of kResourceExhausted.
  bool allow_partial = false;
  /// Records what was cut (expansion truncation, skipped pruning).
  Degradation* degradation = nullptr;
  /// Per-call off-switch for the constraint-aware pruning layer
  /// (RewriterOptions::constraints): the differential harness compares the
  /// pruned and unpruned paths on the same compiled rewriter.
  bool disable_constraint_pruning = false;
};

/// UCQ rewriting of conjunctive queries under a DL-Lite_R TBox: the output
/// UCQ evaluated over the (virtual) ABox alone yields the certain answers
/// of the input CQ w.r.t. TBox ∪ ABox. This is the core OBDA service
/// (paper §1/§3: "query rewriting").
class Rewriter {
 public:
  Rewriter(const dllite::TBox& tbox, const dllite::Vocabulary& vocab,
           RewriterOptions options = {});

  /// Rewrites `cq` into a union of CQs. `stats` is optional.
  Result<UnionQuery> Rewrite(const ConjunctiveQuery& cq,
                             RewriteStats* stats = nullptr) const;

  /// Budget-aware rewriting (see RewriteRequest). With a default request
  /// this is identical to the two-argument overload.
  Result<UnionQuery> Rewrite(const ConjunctiveQuery& cq,
                             const RewriteRequest& request,
                             RewriteStats* stats) const;

 private:
  class Impl;
  std::shared_ptr<const Impl> impl_;
};

}  // namespace olite::query

#endif  // OLITE_QUERY_REWRITER_H_
