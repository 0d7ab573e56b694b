#ifndef OLITE_OBDA_CONSTRAINTS_H_
#define OLITE_OBDA_CONSTRAINTS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mapping/mapping.h"
#include "query/containment.h"
#include "rdb/stats.h"

namespace olite::obda {

/// Caps on the constraint-inference pass (it runs once at `Compile` time,
/// but mapping programs and sources are user-supplied, so extension sizes
/// still need a bound). A view or predicate past the cap is recorded as
/// *unknown* — which every consumer treats as "no constraint", keeping
/// truncated inference sound. Every pair of known extensions is decided.
struct ConstraintInferenceOptions {
  /// A view or predicate whose extension exceeds this many tuples is left
  /// unknown; one with exactly this many is known (0 = unlimited).
  uint64_t max_extension_rows = 20000;
  /// Retain each assertion's retrieved extension inside the result, keyed
  /// by a content fingerprint of the view, so a later `Refresh` can skip
  /// re-evaluating views whose mapping (and hence SQL) did not change.
  /// Costs memory proportional to the retained extensions; leave off for
  /// one-shot compiles.
  bool retain_view_extensions = false;
};

/// What the inference pass found — surfaced for logging and tests.
struct ConstraintSummary {
  size_t predicates = 0;          ///< mapped predicates analysed
  size_t known_extensions = 0;    ///< with fully materialised extensions
  size_t empty_predicates = 0;    ///< mapped predicates with empty extension
  size_t inclusions = 0;          ///< ext(sub) ⊆ ext(sup) pairs found
  size_t inverse_inclusions = 0;  ///< swap(ext(sub)) ⊆ ext(sup) role pairs
  size_t exact_mappings = 0;      ///< predicates covered by one retained view
  size_t dominated_views = 0;     ///< assertions subsumed by a sibling view
  size_t empty_views = 0;         ///< assertions retrieving nothing
  size_t key_columns = 0;         ///< (table, column) keys from DatabaseStats
  /// False when the row cap or a failed view left something unknown.
  bool complete = true;

  std::string ToString() const;
};

/// Source constraints inferred from a *frozen* OBDA specification — the
/// mapping program, the immutable database snapshot, and its collected
/// statistics (cf. "OBDA Constraints for Effective Query Answering",
/// Hovland et al.; here the exact/inclusion/key facts are derived from the
/// snapshot itself instead of being user-declared, which makes them valid
/// by construction for the snapshot's lifetime):
///
///   * per-predicate retrieved extensions → empty predicates, extension
///     inclusions between predicates (the `query::ConstraintOracle`
///     surface consumed by the rewriter and `MinimizeUnion`),
///   * per-assertion retrieved views → empty and dominated mapping views
///     and exact (single-view) mappings, consumed by the unfolder,
///   * `DatabaseStats` distinct counts → key columns (distinct == rows),
///     consumed by the unfolder's self-join merge.
///
/// Instances are immutable after `Infer` and safe to share across threads.
///
/// A view extension is a set of `IdTuples`: its tuples encoded through the
/// source index's dictionary (values it lacks get overlay ids), sorted and
/// deduplicated. A tuple of arity 1 is its id; one of arity 2 is
/// `(a + 1) << 32 | b`, so the two arities never collide. Equal id tuples
/// are exactly equal values under `rdb::Value ==`, so set sizes and
/// inclusions match a value-keyed set.
using IdTuples = std::vector<uint64_t>;

class SourceConstraints final : public query::ConstraintOracle {
 public:
  /// Runs the inference pass. Never fails: a source-evaluation error or a
  /// cap overflow degrades the affected fact to unknown (see
  /// `summary().complete`).
  static std::unique_ptr<const SourceConstraints> Infer(
      const mapping::MappingSet& mappings, const rdb::Database& db,
      const rdb::DatabaseStats& stats,
      const ConstraintInferenceOptions& options = {});

  /// Re-runs the inference pass for a *changed* mapping program over the
  /// same frozen database, reusing the retained extension of every view of
  /// `base` whose content fingerprint still matches (see
  /// `ConstraintInferenceOptions::retain_view_extensions`) instead of
  /// re-executing its SQL. Every derived fact — per-predicate extensions,
  /// inclusions, dominated views, exact mappings, keys — is recomputed
  /// from the (reused + fresh) view extensions, so the result is
  /// bit-identical to `Infer(mappings, db, stats, options)`; only the
  /// source evaluation work is saved. `reused_views`, when non-null,
  /// receives how many view evaluations were skipped.
  ///
  /// Precondition (asserted): `base` was inferred over `db` and this same
  /// `stats` object, whose index's ids its retained extensions hold, as
  /// `CompiledOntology::Refresh` guarantees.
  static std::unique_ptr<const SourceConstraints> Refresh(
      const SourceConstraints& base, const mapping::MappingSet& mappings,
      const rdb::Database& db, const rdb::DatabaseStats& stats,
      const ConstraintInferenceOptions& options = {},
      uint64_t* reused_views = nullptr);

  /// Returns the predicates whose oracle/unfolder answers may differ
  /// between `this` (inferred for `my_mappings`) and `other` (inferred
  /// for `other_mappings`), as `(kind << 32) | pred` tokens, sorted and
  /// deduplicated.
  ///
  /// Precondition (asserted): both objects were inferred over the same
  /// database and statistics, as `CompiledOntology::Refresh` guarantees.
  /// Key columns depend on those alone, so they agree on both sides; a
  /// key-column change would prune by *table*, which no predicate set
  /// could bound.
  std::vector<uint64_t> DiffAffectedPreds(
      const SourceConstraints& other, const mapping::MappingSet& my_mappings,
      const mapping::MappingSet& other_mappings) const;

  // -- query::ConstraintOracle (rewriter / MinimizeUnion surface) -----------

  bool Included(query::Atom::Kind kind, uint32_t sub,
                uint32_t sup) const override;
  bool IncludedInverse(query::Atom::Kind kind, uint32_t sub,
                       uint32_t sup) const override;
  bool Empty(query::Atom::Kind kind, uint32_t pred) const override;

  // -- unfolder surface -----------------------------------------------------
  // Assertion indices are positions in `MappingSet::assertions()` (the
  // pointers `MappingSet::For` returns point into that stable vector).

  /// The assertion retrieves no tuples: dropping it from a choice list
  /// leaves the unfolded union's evaluation unchanged.
  bool EmptyView(size_t assertion_index) const;
  /// The assertion's retrieved view is contained in a sibling *retained*
  /// assertion of the same predicate (ties broken towards the earliest
  /// index, so the retained set is never emptied by domination alone).
  bool DominatedView(size_t assertion_index) const;
  /// Exactly one retained (non-empty, non-dominated) view covers the
  /// predicate — an exact mapping in the sense of Hovland et al.
  bool ExactMapping(query::Atom::Kind kind, uint32_t pred) const;
  /// `column` is a key of `table` (per-column distinct count == row count,
  /// rows > 0): two instances of `table` joined on it denote the same row.
  bool IsKeyColumn(const std::string& table, const std::string& column) const;

  const ConstraintSummary& summary() const { return summary_; }

 private:
  SourceConstraints() = default;

  enum class ExtStatus : uint8_t { kKnown, kUnknown };
  struct PredInfo {
    ExtStatus status = ExtStatus::kUnknown;
    bool empty = false;  ///< meaningful when status == kKnown
  };

  static uint64_t PredKey(query::Atom::Kind kind, uint32_t pred) {
    return (static_cast<uint64_t>(kind) << 32) | pred;
  }
  static uint64_t PairKey(uint32_t sub, uint32_t sup) {
    return (static_cast<uint64_t>(sub) << 32) | sup;
  }

  /// One view extension, parallel to `MappingSet::assertions()`. Role
  /// predicates derive their swapped extension from these ids. Null when
  /// the view's evaluation failed or it projects more than two columns
  /// (status stayed unknown).
  using ViewTuples = std::shared_ptr<const IdTuples>;

  /// Shared implementation of Infer/Refresh; `base` (nullable) supplies
  /// retained extensions to reuse by fingerprint.
  static std::unique_ptr<const SourceConstraints> InferImpl(
      const mapping::MappingSet& mappings, const rdb::Database& db,
      const rdb::DatabaseStats& stats,
      const ConstraintInferenceOptions& options, const SourceConstraints* base,
      uint64_t* reused_views);

  /// Mapped predicates only; a predicate absent here has no mapping
  /// assertion, hence a provably empty extension.
  std::unordered_map<uint64_t, PredInfo> preds_;
  /// Proven ext(sub) ⊆ ext(sup) pairs, per atom kind.
  std::array<std::unordered_set<uint64_t>, 3> included_;
  /// Proven swap(ext(sub)) ⊆ ext(sup) role pairs.
  std::unordered_set<uint64_t> included_inverse_;
  std::vector<uint8_t> view_empty_;
  std::vector<uint8_t> view_dominated_;
  std::unordered_set<uint64_t> exact_;
  std::set<std::pair<std::string, std::string>> key_columns_;
  /// `MappingViewFingerprint` of every assertion, parallel to
  /// `MappingSet::assertions()`: the keys of refresh reuse and of the
  /// per-view facts `DiffAffectedPreds` matches across mapping edits.
  std::vector<uint64_t> view_fps_;
  /// Parallel to `view_fps_`; empty unless retain_view_extensions was set.
  std::vector<ViewTuples> retained_views_;
  /// The source index whose dictionary the ids were encoded against (null
  /// without one); `Refresh` asserts that it is given the same one.
  const rdb::SourceIndex* index_ = nullptr;
  /// Values the dictionary lacked (constant projections, rows of another
  /// database than the index's); their ids follow the dictionary's. A refresh
  /// starts from this overlay so retained ids keep their meaning.
  rdb::ValueDictionary overlay_;
  ConstraintSummary summary_;
};

/// Content fingerprint of one mapping view — target kind, predicate and
/// the rendered source SQL. Stable across `MappingSet` reorderings; two
/// assertions with equal fingerprints retrieve identical extensions from
/// the same frozen database.
uint64_t MappingViewFingerprint(const mapping::MappingAssertion& m);

/// Encodes the rows `rdb::Execute` retrieved for a view into its extension.
/// Values `dict` (nullable) lacks get `overlay` ids after the dictionary's.
/// Null for a view projecting more than two columns (only constant
/// projections reach one), which stays unknown.
std::shared_ptr<const IdTuples> EncodeView(const std::vector<rdb::Row>& rows,
                                           const rdb::ValueDictionary* dict,
                                           rdb::ValueDictionary* overlay);

/// Encodes a view straight from `index`'s id columns, equal to
/// `EncodeView(Execute(db, view))` under a `kRows` quota of `max_rows`,
/// without building a row. It names one-table blocks over a table `index`
/// was built from that project one or two columns under constant filters;
/// any other shape (joins, constant projections, unresolved names) is
/// nullopt, for the caller to run through `Execute`. Otherwise the
/// extension, or null when the view is unknown: it holds more than
/// `max_rows` (0 = unlimited) distinct tuples, or the `kRdbExecute` fault
/// site fired. That site is hit once per block and once per 1 024 rows
/// read, as the columnar filtered scan hits it; the rows read are the
/// shortest index range among the filters, or every row.
std::optional<std::shared_ptr<const IdTuples>> EncodeIndexedView(
    const rdb::SelectBlock& view, const rdb::Database& db,
    const rdb::SourceIndex& index, uint64_t max_rows);

}  // namespace olite::obda

#endif  // OLITE_OBDA_CONSTRAINTS_H_
