#include "obda/constraints.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "common/fault_injection.h"
#include "common/hash.h"
#include "rdb/query.h"

namespace olite::obda {

namespace {

using query::Atom;

Atom::Kind AtomKindOf(mapping::TargetKind kind) {
  switch (kind) {
    case mapping::TargetKind::kConcept: return Atom::Kind::kConcept;
    case mapping::TargetKind::kRole: return Atom::Kind::kRole;
    case mapping::TargetKind::kAttribute: return Atom::Kind::kAttribute;
  }
  return Atom::Kind::kConcept;
}

// The element-swapped extension of a role: (a, b) becomes (b, a).
std::shared_ptr<const IdTuples> SwappedTuples(const IdTuples& ext) {
  auto out = std::make_shared<IdTuples>();
  out->reserve(ext.size());
  for (uint64_t t : ext) {
    const uint64_t a_plus_1 = t >> 32;
    const uint64_t b = t & 0xFFFFFFFFULL;
    out->push_back(a_plus_1 == 0 ? t : ((b + 1) << 32) | (a_plus_1 - 1));
  }
  std::sort(out->begin(), out->end());
  return out;
}

bool SubsetOf(const IdTuples& sub, const IdTuples& sup) {
  return std::includes(sup.begin(), sup.end(), sub.begin(), sub.end());
}

// Rows per batch of the encoder's scan: the columnar engine's batch, so
// the fault site ticks as often as the filtered scan it replaces.
constexpr size_t kBatchRows = 1024;

uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::shared_ptr<const IdTuples> EncodeView(const std::vector<rdb::Row>& rows,
                                           const rdb::ValueDictionary* dict,
                                           rdb::ValueDictionary* overlay) {
  const uint64_t dict_size = dict != nullptr ? dict->size() : 0;
  auto id_of = [&](const rdb::Value& v) -> uint64_t {
    if (dict != nullptr) {
      const uint32_t id = dict->Find(v);
      if (id != rdb::ValueDictionary::kNoId) return id;
    }
    return dict_size + overlay->Intern(v);
  };
  auto out = std::make_shared<IdTuples>();
  out->reserve(rows.size());
  for (const rdb::Row& row : rows) {
    if (row.size() == 1) {
      out->push_back(id_of(row[0]));
    } else if (row.size() == 2) {
      const uint64_t a = id_of(row[0]);
      const uint64_t b = id_of(row[1]);
      out->push_back(((a + 1) << 32) | b);
    } else {
      return nullptr;
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return out;
}

std::optional<std::shared_ptr<const IdTuples>> EncodeIndexedView(
    const rdb::SelectBlock& view, const rdb::Database& db,
    const rdb::SourceIndex& index, uint64_t max_rows) {
  if (view.from_tables.size() != 1 || !view.joins.empty() ||
      !view.const_select.empty() || view.select.empty() ||
      view.select.size() > 2) {
    return std::nullopt;
  }
  auto table = db.GetTable(view.from_tables[0]);
  if (!table.ok()) return std::nullopt;
  const rdb::Table& t = **table;
  auto column = [&](const rdb::ColumnRef& ref) -> std::optional<size_t> {
    if (ref.table_index != 0) return std::nullopt;
    return t.schema().ColumnIndex(ref.column);
  };
  std::span<const uint32_t> proj[2];
  for (size_t k = 0; k < view.select.size(); ++k) {
    const auto col = column(view.select[k]);
    const auto ids = col ? index.ColumnIds(t, *col) : std::nullopt;
    if (!ids) return std::nullopt;
    proj[k] = *ids;
  }
  // Each filter as (column ids, wanted id); an absent constant wants
  // kNoId, which no row holds.
  std::vector<std::pair<std::span<const uint32_t>, uint32_t>> filters;
  std::optional<std::span<const uint32_t>> range;  // nullopt: every row
  for (const rdb::EqConst& f : view.filters) {
    const auto col = column(f.col);
    const auto ids = col ? index.ColumnIds(t, *col) : std::nullopt;
    if (!ids) return std::nullopt;
    filters.emplace_back(*ids, index.dictionary().Find(f.value));
    if (!range) range = index.EqualRows(t, *col, f.value);
  }

  using Tuples = std::shared_ptr<const IdTuples>;
  if (!fault::InjectAt(fault::Site::kRdbExecute).ok()) return Tuples();
  auto out = std::make_shared<IdTuples>();
  const size_t n = range ? range->size() : t.NumRows();
  for (size_t base = 0; base < n; base += kBatchRows) {
    if (!fault::InjectAt(fault::Site::kRdbExecute).ok()) return Tuples();
    const size_t end = std::min(n, base + kBatchRows);
    for (size_t k = base; k < end; ++k) {
      const uint32_t r = range ? (*range)[k] : static_cast<uint32_t>(k);
      const bool passes = std::all_of(
          filters.begin(), filters.end(),
          [r](const auto& f) { return f.first[r] == f.second; });
      if (!passes) continue;
      out->push_back(view.select.size() == 1
                         ? proj[0][r]
                         : ((uint64_t{proj[0][r]} + 1) << 32) | proj[1][r]);
    }
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  // `Execute` stops, and fails, once `max_rows` distinct rows are in.
  if (max_rows != 0 && out->size() >= max_rows) return Tuples();
  return Tuples(std::move(out));
}

uint64_t TupleSignature(const IdTuples& tuples) {
  uint64_t sig = 0;
  for (uint64_t t : tuples) sig |= uint64_t{1} << (Mix64(t) >> 58);
  return sig;
}

uint64_t MappingViewFingerprint(const mapping::MappingAssertion& m) {
  rdb::SqlQuery q;
  q.blocks.push_back(m.source);
  uint64_t h = Fnv1aWord((static_cast<uint64_t>(m.kind) << 32) | m.predicate);
  return Fnv1a(q.ToString(), h);
}

std::string ConstraintSummary::ToString() const {
  return "predicates=" + std::to_string(predicates) +
         " known=" + std::to_string(known_extensions) +
         " empty=" + std::to_string(empty_predicates) +
         " inclusions=" + std::to_string(inclusions) +
         " inverse_inclusions=" + std::to_string(inverse_inclusions) +
         " exact_mappings=" + std::to_string(exact_mappings) +
         " dominated_views=" + std::to_string(dominated_views) +
         " empty_views=" + std::to_string(empty_views) +
         " key_columns=" + std::to_string(key_columns) +
         (complete ? " complete" : " truncated");
}

std::unique_ptr<const SourceConstraints> SourceConstraints::Infer(
    const mapping::MappingSet& mappings, const rdb::Database& db,
    const rdb::DatabaseStats& stats,
    const ConstraintInferenceOptions& options) {
  return InferImpl(mappings, db, stats, options, nullptr, nullptr);
}

std::unique_ptr<const SourceConstraints> SourceConstraints::Refresh(
    const SourceConstraints& base, const mapping::MappingSet& mappings,
    const rdb::Database& db, const rdb::DatabaseStats& stats,
    const ConstraintInferenceOptions& options, uint64_t* reused_views) {
  return InferImpl(mappings, db, stats, options, &base, reused_views);
}

std::unique_ptr<const SourceConstraints> SourceConstraints::InferImpl(
    const mapping::MappingSet& mappings, const rdb::Database& db,
    const rdb::DatabaseStats& stats, const ConstraintInferenceOptions& options,
    const SourceConstraints* base, uint64_t* reused_views) {
  auto sc = std::unique_ptr<SourceConstraints>(new SourceConstraints);
  const rdb::SourceIndex* index = stats.index();
  const rdb::ValueDictionary* dict =
      index != nullptr ? &index->dictionary() : nullptr;
  sc->index_ = index;
  // Retained extensions of the base, indexed by view fingerprint. Equal
  // fingerprints mean equal (kind, predicate, SQL) over the same frozen
  // database, hence — evaluation being deterministic — an identical
  // extension, so reuse preserves Infer's bit-exact output. Retained ids
  // mean the same values only over the same dictionary and the base's
  // overlay, which this pass extends.
  std::unordered_map<uint64_t, const ViewTuples*> base_views;
  rdb::ValueDictionary overlay;
  if (base != nullptr) {
    assert(base->index_ == index);
    overlay = base->overlay_;
    for (size_t i = 0; i < base->retained_views_.size(); ++i) {
      const ViewTuples& tuples = base->retained_views_[i];
      if (tuples != nullptr) base_views.emplace(base->view_fps_[i], &tuples);
    }
  }

  // -- keys: per-column distinct count equals the row count ------------------
  for (const auto& [name, table] : db.tables()) {
    const rdb::TableStats* ts = stats.Find(name);
    if (ts == nullptr || ts->rows == 0) continue;
    const auto& columns = table.schema().columns;
    for (size_t i = 0; i < columns.size() && i < ts->columns.size(); ++i) {
      if (ts->columns[i].distinct == ts->rows) {
        sc->key_columns_.emplace(name, columns[i].name);
        ++sc->summary_.key_columns;
      }
    }
  }

  // -- per-assertion retrieved views -----------------------------------------
  const auto& assertions = mappings.assertions();
  sc->view_empty_.assign(assertions.size(), 0);
  sc->view_dominated_.assign(assertions.size(), 0);
  // views[i] null = unknown. A role predicate's swapped extension is
  // derived from these same tuples, never re-evaluated (a second
  // evaluation could fail differently and leave a *partial* swapped set,
  // which would unsoundly certify inverse inclusions).
  std::vector<ViewTuples> views(assertions.size());
  std::vector<uint64_t>& fps = sc->view_fps_;
  fps.resize(assertions.size());
  std::map<uint64_t, std::vector<size_t>> by_pred;  // deterministic order
  for (size_t i = 0; i < assertions.size(); ++i) {
    const mapping::MappingAssertion& m = assertions[i];
    by_pred[PredKey(AtomKindOf(m.kind), m.predicate)].push_back(i);
    fps[i] = MappingViewFingerprint(m);
    ViewTuples tuples;
    if (auto it = base_views.find(fps[i]); it != base_views.end()) {
      // Known base view with the same fingerprint: its extension is what
      // re-evaluation would retrieve.
      tuples = *it->second;
      if (reused_views != nullptr) ++*reused_views;
    } else if (auto direct =
                   index != nullptr
                       ? EncodeIndexedView(m.source, db, *index,
                                           options.max_extension_rows)
                       : std::nullopt) {
      tuples = *std::move(direct);
    } else {
      rdb::SqlQuery q;
      q.blocks.push_back(m.source);
      rdb::EvalOptions eopts;
      eopts.max_rows = options.max_extension_rows;
      eopts.index = index;
      Result<std::vector<rdb::Row>> rows = rdb::Execute(db, q, eopts);
      if (rows.ok()) tuples = EncodeView(*rows, dict, &overlay);
    }
    if (tuples == nullptr) {
      // Evaluation failure (cap overflow, injected fault, …): the view —
      // and with it the predicate — stays unknown, which disables every
      // prune it could have justified. Never a reason to fail Compile.
      sc->summary_.complete = false;
      continue;
    }
    if (tuples->empty()) {
      sc->view_empty_[i] = 1;
      ++sc->summary_.empty_views;
    }
    views[i] = std::move(tuples);
  }
  // Membership signatures: a subset test runs only when the sub side's
  // signature is covered by the sup side's.
  std::vector<uint64_t> view_sigs(assertions.size(), 0);
  for (size_t i = 0; i < views.size(); ++i) {
    if (views[i] != nullptr) view_sigs[i] = TupleSignature(*views[i]);
  }

  // -- per-predicate extensions + dominated views ----------------------------
  uint64_t pair_tests = 0;
  auto pairs_spent = [&]() {
    return options.max_inclusion_pairs != 0 &&
           pair_tests >= options.max_inclusion_pairs;
  };
  auto pair_budget_ok = [&]() {
    if (pairs_spent()) {
      sc->summary_.complete = false;
      return false;
    }
    ++pair_tests;
    return true;
  };
  auto known = [&](size_t i) { return views[i] != nullptr; };
  auto empty = [&](size_t i) { return known(i) && views[i]->empty(); };
  // A fully-known, non-empty predicate extension, with the element-swapped
  // extension for roles (inverse-inclusion checks) and both signatures.
  // Shared so a single-view predicate aliases its view's extension instead
  // of copying it (the overwhelmingly common shape). In `by_pred` order,
  // so the quadratic loop below touches no maps or hash sets.
  struct ExtEntry {
    uint64_t key = 0;
    Atom::Kind kind = Atom::Kind::kConcept;
    uint32_t id = 0;
    std::shared_ptr<const IdTuples> ext;
    std::shared_ptr<const IdTuples> swapped;  // null for non-roles
    uint64_t sig = 0;
    uint64_t swapped_sig = 0;
  };
  std::vector<ExtEntry> entries;
  for (const auto& [pred_key, view_indices] : by_pred) {
    ++sc->summary_.predicates;
    PredInfo info;
    bool all_known = true;
    std::shared_ptr<const IdTuples> merged;
    uint64_t merged_sig = 0;
    if (view_indices.size() == 1 && known(view_indices[0])) {
      merged = views[view_indices[0]];
      merged_sig = view_sigs[view_indices[0]];
    } else {
      auto built = std::make_shared<IdTuples>();
      for (size_t i : view_indices) {
        if (!known(i)) {
          all_known = false;
          break;
        }
        built->insert(built->end(), views[i]->begin(), views[i]->end());
        merged_sig |= view_sigs[i];
      }
      std::sort(built->begin(), built->end());
      built->erase(std::unique(built->begin(), built->end()), built->end());
      merged = std::move(built);
    }
    if (all_known && options.max_extension_rows != 0 &&
        merged->size() > options.max_extension_rows) {
      all_known = false;
      sc->summary_.complete = false;
    }
    if (all_known) {
      info.status = ExtStatus::kKnown;
      info.empty = merged->empty();
      ++sc->summary_.known_extensions;
      if (info.empty) ++sc->summary_.empty_predicates;
    }

    // Dominated views: a view contained in a sibling view contributes
    // nothing to the union. Equal views keep the earliest index; strict
    // subsets may chain but never cycle, so the retained set still covers
    // the predicate's full extension.
    for (size_t i : view_indices) {
      if (!known(i) || empty(i)) continue;
      for (size_t j : view_indices) {
        if (j == i || !known(j)) continue;
        const auto& vi = *views[i];
        const auto& vj = *views[j];
        if (vi.size() > vj.size() || (vi.size() == vj.size() && j > i)) {
          continue;
        }
        if (!pair_budget_ok()) break;
        if (MayBeSubset(view_sigs[i], view_sigs[j]) && SubsetOf(vi, vj)) {
          sc->view_dominated_[i] = 1;
          ++sc->summary_.dominated_views;
          break;
        }
      }
      if (pairs_spent()) break;
    }

    size_t retained = 0;
    for (size_t i : view_indices) {
      if (known(i) && (empty(i) || sc->view_dominated_[i])) {
        continue;
      }
      ++retained;
    }
    if (retained == 1 && all_known && !info.empty) {
      sc->exact_.insert(pred_key);
      ++sc->summary_.exact_mappings;
    }

    if (all_known && !info.empty) {
      ExtEntry en;
      en.key = pred_key;
      en.kind = static_cast<Atom::Kind>(pred_key >> 32);
      en.id = static_cast<uint32_t>(pred_key);
      if (en.kind == Atom::Kind::kRole) {
        en.swapped = SwappedTuples(*merged);
        en.swapped_sig = TupleSignature(*en.swapped);
      }
      en.ext = std::move(merged);
      en.sig = merged_sig;
      entries.push_back(std::move(en));
    }
    sc->preds_.emplace(pred_key, info);
  }

  // -- pairwise extension inclusions (same kind, both fully known) -----------
  for (const ExtEntry& sub : entries) {
    for (const ExtEntry& sup : entries) {
      if (sup.kind != sub.kind) continue;
      // The diagonal matters only for inverse inclusions (symmetric roles).
      if (sup.key != sub.key && sub.ext->size() <= sup.ext->size()) {
        if (!pair_budget_ok()) break;
        if (MayBeSubset(sub.sig, sup.sig) && SubsetOf(*sub.ext, *sup.ext)) {
          sc->included_[static_cast<size_t>(sub.kind)].insert(
              PairKey(sub.id, sup.id));
          ++sc->summary_.inclusions;
        }
      }
      if (sub.swapped != nullptr && sub.swapped->size() <= sup.ext->size()) {
        if (!pair_budget_ok()) break;
        if (MayBeSubset(sub.swapped_sig, sup.sig) &&
            SubsetOf(*sub.swapped, *sup.ext)) {
          sc->included_inverse_.insert(PairKey(sub.id, sup.id));
          ++sc->summary_.inverse_inclusions;
        }
      }
    }
    if (pairs_spent()) break;
  }

  if (options.retain_view_extensions) {
    sc->retained_views_ = std::move(views);
    sc->overlay_ = std::move(overlay);
  }
  return sc;
}

std::vector<uint64_t> SourceConstraints::DiffAffectedPreds(
    const SourceConstraints& other, const mapping::MappingSet& my_mappings,
    const mapping::MappingSet& other_mappings) const {
  assert(key_columns_ == other.key_columns_);
  std::vector<uint64_t> out;
  // Per-predicate extension status.
  for (const auto* side : {&preds_, &other.preds_}) {
    for (const auto& [key, info] : *side) {
      auto mine = preds_.find(key);
      auto theirs = other.preds_.find(key);
      const bool differ =
          mine == preds_.end() || theirs == other.preds_.end() ||
          mine->second.status != theirs->second.status ||
          (mine->second.status == ExtStatus::kKnown &&
           mine->second.empty != theirs->second.empty);
      if (differ) out.push_back(key);
    }
  }

  // Inclusion pairs: a flipped (sub ⊆ sup) fact affects plans mentioning
  // either endpoint.
  for (size_t k = 0; k < included_.size(); ++k) {
    auto kind = static_cast<query::Atom::Kind>(k);
    for (const auto* side : {&included_[k], &other.included_[k]}) {
      for (uint64_t pair : *side) {
        if (included_[k].count(pair) != other.included_[k].count(pair)) {
          out.push_back(PredKey(kind, static_cast<uint32_t>(pair >> 32)));
          out.push_back(PredKey(kind, static_cast<uint32_t>(pair)));
        }
      }
    }
  }
  for (const auto* side : {&included_inverse_, &other.included_inverse_}) {
    for (uint64_t pair : *side) {
      if (included_inverse_.count(pair) != other.included_inverse_.count(pair)) {
        out.push_back(PredKey(query::Atom::Kind::kRole,
                                    static_cast<uint32_t>(pair >> 32)));
        out.push_back(
            PredKey(query::Atom::Kind::kRole, static_cast<uint32_t>(pair)));
      }
    }
  }

  // Exact-mapping flips.
  for (const auto* side : {&exact_, &other.exact_}) {
    for (uint64_t key : *side) {
      if (exact_.count(key) != other.exact_.count(key)) {
        out.push_back(key);
      }
    }
  }

  // Per-view flags (empty/dominated) feed the unfolder by assertion index;
  // indices shift across mapping edits, so views are matched per predicate
  // by content fingerprint instead.
  auto view_profile = [](const SourceConstraints& sc,
                         const mapping::MappingSet& mappings) {
    std::map<uint64_t, std::vector<std::tuple<uint64_t, uint8_t, uint8_t>>>
        per_pred;
    const auto& assertions = mappings.assertions();
    for (size_t i = 0; i < assertions.size(); ++i) {
      const mapping::MappingAssertion& m = assertions[i];
      per_pred[PredKey(AtomKindOf(m.kind), m.predicate)].emplace_back(
          sc.view_fps_[i], sc.view_empty_[i], sc.view_dominated_[i]);
    }
    for (auto& [key, profile] : per_pred) std::sort(profile.begin(),
                                                    profile.end());
    return per_pred;
  };
  auto mine = view_profile(*this, my_mappings);
  auto theirs = view_profile(other, other_mappings);
  for (const auto* side : {&mine, &theirs}) {
    for (const auto& [key, profile] : *side) {
      auto a = mine.find(key);
      auto b = theirs.find(key);
      if (a == mine.end() || b == theirs.end() || a->second != b->second) {
        out.push_back(key);
      }
    }
  }

  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool SourceConstraints::Included(query::Atom::Kind kind, uint32_t sub,
                                 uint32_t sup) const {
  if (sub == sup) return true;
  if (Empty(kind, sub)) return true;  // ∅ ⊆ anything
  size_t k = static_cast<size_t>(kind);
  if (k >= included_.size()) return false;
  return included_[k].count(PairKey(sub, sup)) > 0;
}

bool SourceConstraints::IncludedInverse(query::Atom::Kind kind, uint32_t sub,
                                        uint32_t sup) const {
  if (kind != query::Atom::Kind::kRole) return false;
  if (Empty(kind, sub)) return true;
  return included_inverse_.count(PairKey(sub, sup)) > 0;
}

bool SourceConstraints::Empty(query::Atom::Kind kind, uint32_t pred) const {
  auto it = preds_.find(PredKey(kind, pred));
  // Absent ⇒ no mapping assertion targets the predicate: its retrieved
  // extension is empty by construction.
  if (it == preds_.end()) return true;
  return it->second.status == ExtStatus::kKnown && it->second.empty;
}

bool SourceConstraints::EmptyView(size_t assertion_index) const {
  return assertion_index < view_empty_.size() &&
         view_empty_[assertion_index] != 0;
}

bool SourceConstraints::DominatedView(size_t assertion_index) const {
  return assertion_index < view_dominated_.size() &&
         view_dominated_[assertion_index] != 0;
}

bool SourceConstraints::ExactMapping(query::Atom::Kind kind,
                                     uint32_t pred) const {
  return exact_.count(PredKey(kind, pred)) > 0;
}

bool SourceConstraints::IsKeyColumn(const std::string& table,
                                    const std::string& column) const {
  return key_columns_.count({table, column}) > 0;
}

}  // namespace olite::obda
