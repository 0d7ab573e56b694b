#ifndef OLITE_OBDA_COMPILED_ONTOLOGY_H_
#define OLITE_OBDA_COMPILED_ONTOLOGY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "core/classifier.h"
#include "dllite/ontology.h"
#include "mapping/mapping.h"
#include "obda/constraints.h"
#include "obda/delta.h"
#include "query/rewriter.h"
#include "rdb/stats.h"
#include "rdb/table.h"

namespace olite::obda {

/// How a snapshot produced by `CompiledOntology::Refresh` relates to its
/// base — the delta-compilation telemetry surfaced through
/// `ServingEngine`'s `snapshot.delta_*` instruments.
struct RefreshInfo {
  /// The incremental closure patch degenerated to scratch classification
  /// (unpatchable base, or delta past the fallback fraction).
  bool fell_back_scratch = false;
  uint64_t patched_nodes = 0;  ///< closure nodes re-derived
  uint64_t reused_views = 0;   ///< constraint view evaluations skipped
  /// Of the four stages a delta can leave untouched (mappings,
  /// schema+stats, closure, constraints), how many were shared wholesale
  /// from the base.
  uint32_t reused_stages = 0;
  /// Predicates (as `(Atom::Kind << 32) | id` tokens, sorted) whose
  /// rewrite, unfolding or constraint pruning may differ from the base
  /// snapshot's. Any cached plan touching none of them is still exact.
  /// The bound is always exact: a refresh keeps its base's vocabulary
  /// (so TBox node ids stay comparable) and its database and statistics
  /// (so the inferred key columns are unchanged).
  std::vector<uint64_t> changed_preds;
};

/// The offline phase of the serving stack (the Mastro architecture's
/// compile-once artifact): everything `Answer` needs that depends only on
/// the OBDA specification — the TBox with its classified closure and
/// applicable-axiom index (inside the rewriter), the mapping→predicate
/// view index, the source constraints, and the schema-validated database
/// with its statistics — built once and frozen.
///
/// Compilation is staged, and each stage artifact is held by
/// `shared_ptr<const>` so `Refresh` can build a *delta* snapshot that
/// shares every stage the delta does not touch: the database and its
/// statistics always, the ontology and its classification when the TBox
/// is untouched (otherwise the closure is patched incrementally via
/// `core::RefreshClassification`), and the mapping program and source
/// constraints when the mappings are untouched (otherwise only the added
/// assertions are validated and only the changed views re-evaluated).
/// Which stages the delta touches is read off the delta itself.
///
/// Immutable after `Compile`/`Refresh` and therefore freely shareable:
/// any number of `QueryEngine`s (and threads inside each) may answer
/// against one snapshot concurrently. Held by
/// `shared_ptr<const CompiledOntology>` so a snapshot outlives every
/// engine still serving from it.
class CompiledOntology {
 public:
  /// Validates the mappings against the database schema, checks the
  /// DL-Lite_A functionality restriction, and builds the rewriter —
  /// including the TBox classification closure when `mode` is
  /// kClassified.
  static Result<std::shared_ptr<const CompiledOntology>> Compile(
      dllite::Ontology ontology, mapping::MappingSet mappings,
      rdb::Database database,
      query::RewriteMode mode = query::RewriteMode::kPerfectRef);

  /// Compiles `base` ⊕ `delta` as a *delta refresh*: stages whose inputs
  /// the delta does not touch are shared with `base` (zero copies), the
  /// classification closure is patched incrementally (DRed-style over the
  /// SCC condensation; scratch fallback past `fallback_fraction` dirty
  /// nodes), and constraint inference re-evaluates only views whose
  /// mapping changed. The result answers every query identically to
  /// `Compile` of the edited specification; `refresh_info()` reports what
  /// was reused and which predicates' plans may have changed.
  static Result<std::shared_ptr<const CompiledOntology>> Refresh(
      const std::shared_ptr<const CompiledOntology>& base,
      const OntologyDelta& delta);

  const dllite::Ontology& ontology() const { return *ontology_; }
  const mapping::MappingSet& mappings() const { return *mappings_; }
  const rdb::Database& database() const { return *database_; }
  query::RewriteMode mode() const { return mode_; }

  /// Table statistics of the frozen database (row counts, per-column
  /// distinct counts), collected once at `Compile` and consumed by the
  /// columnar evaluator's cost-based join ordering.
  const rdb::DatabaseStats& db_stats() const { return *db_stats_; }

  /// Source constraints inferred from the frozen snapshot at `Compile`
  /// (extension inclusions, empty predicates, dominated mapping views,
  /// key columns), driving the constraint-aware pruning of the
  /// rewrite→minimize→unfold pipeline.
  const SourceConstraints& constraints() const { return *constraints_; }

  /// The TBox classification backing kClassified rewriting; its closure
  /// is patched in place by `Refresh`. Null in kPerfectRef mode, which
  /// never classifies.
  const core::Classification* classification() const {
    return classification_.get();
  }

  /// The rewriter for the configured mode.
  const query::Rewriter& rewriter() const { return *rewriter_; }

  const RefreshInfo& refresh_info() const { return refresh_info_; }

 private:
  CompiledOntology() = default;

  /// Shared tail of Compile/Refresh: the rewriter over the snapshot's
  /// TBox, constraints and classification.
  void BuildRewriter();

  // -- stage artifacts, shareable across delta generations ------------------
  std::shared_ptr<const dllite::Ontology> ontology_;
  std::shared_ptr<const mapping::MappingSet> mappings_;
  std::shared_ptr<const rdb::Database> database_;
  std::shared_ptr<const rdb::DatabaseStats> db_stats_;
  std::shared_ptr<const SourceConstraints> constraints_;
  /// Null in kPerfectRef mode.
  std::shared_ptr<const core::Classification> classification_;
  query::RewriteMode mode_ = query::RewriteMode::kPerfectRef;
  /// optional<> because Rewriter has no default constructor; set before
  /// the constructor returns, so dereferencing is always valid. Copying a
  /// Rewriter shares its immutable Impl, so an untouched-spec refresh
  /// reuses the whole compiled rewriter.
  std::optional<query::Rewriter> rewriter_;
  RefreshInfo refresh_info_;
};

}  // namespace olite::obda

#endif  // OLITE_OBDA_COMPILED_ONTOLOGY_H_
