#ifndef OLITE_OBDA_UNFOLDER_H_
#define OLITE_OBDA_UNFOLDER_H_

#include "common/exec_budget.h"
#include "common/result.h"
#include "mapping/mapping.h"
#include "query/cq.h"
#include "rdb/query.h"

namespace olite::obda {

class SourceConstraints;  // obda/constraints.h

/// Counters of the unfolder's constraint-aware pruning (all zero when no
/// oracle was supplied).
struct UnfoldStats {
  /// Mapping views dropped from choice lists (empty or dominated) plus
  /// disjuncts/blocks skipped as provably empty.
  uint64_t pruned_unfoldings = 0;
  /// Same-table instances merged through an inferred key column.
  uint64_t key_joins = 0;
  /// Constraint-oracle consultations.
  uint64_t constraint_checks = 0;
  /// False when the constraint-check quota stopped pruning mid-run (the
  /// remaining blocks were emitted unpruned — sound, just larger).
  bool constraint_prune_complete = true;
};

/// Budget controls for `Unfold`.
struct UnfoldOptions {
  /// Shared budget: deadline/cancellation checks per disjunct, and the
  /// kSqlBlocks quota on generated select blocks (the mapping cartesian
  /// product can explode combinatorially). May be null.
  const ExecBudget* budget = nullptr;
  /// On exhaustion, return the blocks generated so far (sound: dropping
  /// union blocks can only lose answers, never invent them) instead of
  /// kResourceExhausted.
  bool allow_partial = false;
  /// Records a truncation event when blocks were dropped.
  Degradation* degradation = nullptr;
  /// Source-constraint oracle (see obda/constraints.h). When set, the
  /// unfolder skips provably-empty disjuncts, drops empty/dominated
  /// mapping views from choice lists, merges key-joined self-joins, and
  /// discards blocks with contradictory constant filters — all without
  /// changing the union's evaluation over the frozen snapshot. Null
  /// disables the layer.
  const SourceConstraints* constraints = nullptr;
  /// Local cap on oracle consultations (0 = unlimited); the shared
  /// budget's kConstraintChecks quota applies on top.
  uint64_t max_constraint_checks = 0;
  /// Filled with the pruning counters when non-null.
  UnfoldStats* stats = nullptr;
};

/// Unfolds a (rewritten) UCQ over the ontology signature into a UCQ over
/// the relational sources: each ontology atom is replaced by one of its
/// mapping views (cartesian product over choices), shared query variables
/// become equi-joins, constants become filters, and head variables become
/// the projected columns. A constant filters on the value of the column's
/// type whose `Value::ToName` is the constant's name, so constants and
/// source values match as the ABox individuals they name; a block whose
/// constant names no value of its column's type is dropped. A disjunct
/// with an unmapped atom contributes nothing (its certain answers are
/// necessarily empty).
Result<rdb::SqlQuery> Unfold(const query::UnionQuery& ucq,
                             const mapping::MappingSet& mappings,
                             const rdb::Database& db,
                             const UnfoldOptions& options = {});

}  // namespace olite::obda

#endif  // OLITE_OBDA_UNFOLDER_H_
