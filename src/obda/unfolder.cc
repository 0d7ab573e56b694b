#include "obda/unfolder.h"

#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/fault_injection.h"
#include "obda/constraints.h"

namespace olite::obda {

namespace {

using mapping::MappingAssertion;
using mapping::TargetKind;
using query::Atom;
using query::ConjunctiveQuery;
using query::Term;

TargetKind KindOf(const Atom& atom) {
  switch (atom.kind) {
    case Atom::Kind::kConcept: return TargetKind::kConcept;
    case Atom::Kind::kRole: return TargetKind::kRole;
    case Atom::Kind::kAttribute: return TargetKind::kAttribute;
  }
  return TargetKind::kConcept;
}

// Builds one SQL select block for one disjunct under one mapping choice.
// Returns false (no block) when a head variable stays unbound, or when a
// query constant names no value of its column's type (`Value::FromName`).
Result<bool> BuildBlock(const ConjunctiveQuery& cq,
                        const std::vector<const MappingAssertion*>& choice,
                        const rdb::Database& db, rdb::SelectBlock* out) {
  rdb::SelectBlock block;
  std::unordered_map<std::string, rdb::ColumnRef> var_binding;

  for (size_t a = 0; a < cq.atoms.size(); ++a) {
    const Atom& atom = cq.atoms[a];
    const MappingAssertion& m = *choice[a];
    size_t offset = block.from_tables.size();
    for (const auto& t : m.source.from_tables) block.from_tables.push_back(t);

    auto shift = [&](rdb::ColumnRef ref) {
      ref.table_index += offset;
      return ref;
    };
    for (const auto& j : m.source.joins) {
      block.joins.push_back({shift(j.lhs), shift(j.rhs)});
    }
    for (const auto& filt : m.source.filters) {
      block.filters.push_back({shift(filt.col), filt.value});
    }

    // Bind the atom arguments to the mapping's projected columns.
    for (size_t pos = 0; pos < atom.args.size(); ++pos) {
      rdb::ColumnRef col = shift(m.source.select[pos]);
      const Term& term = atom.args[pos];
      if (term.IsVar()) {
        auto [it, fresh] = var_binding.emplace(term.name, col);
        if (!fresh) block.joins.push_back({it->second, col});
      } else {
        OLITE_ASSIGN_OR_RETURN(
            const rdb::Table* table,
            db.GetTable(block.from_tables[col.table_index]));
        auto idx = table->schema().ColumnIndex(col.column);
        if (!idx) {
          return Status::NotFound("mapping references unknown column '" +
                                  col.column + "'");
        }
        std::optional<rdb::Value> value = rdb::Value::FromName(
            term.name, table->schema().columns[*idx].type);
        if (!value) return false;
        block.filters.push_back({col, *std::move(value)});
      }
    }
  }

  for (size_t pos = 0; pos < cq.head_vars.size(); ++pos) {
    const std::string& head = cq.head_vars[pos];
    // A head variable the rewriter bound to a constant has no body
    // occurrence; project the literal at this coordinate.
    if (const std::string* c = cq.HeadBinding(head)) {
      block.const_select.push_back({pos, rdb::Value::Str(*c)});
      continue;
    }
    auto it = var_binding.find(head);
    if (it == var_binding.end()) return false;
    block.select.push_back(it->second);
  }
  *out = std::move(block);
  return true;
}

// Canonical render of a select block for exact-duplicate elimination.
// Distinct rewriter disjuncts routinely unfold to byte-identical SQL
// blocks (e.g. sibling concepts mapped through one view); keeping one copy
// shrinks the union the evaluator has to run without changing its answers.
std::string BlockKey(const rdb::SelectBlock& b) {
  auto ref = [](const rdb::ColumnRef& r) {
    return std::to_string(r.table_index) + "." + r.column;
  };
  auto val = [](const rdb::Value& v) {
    // Tag the type: Int(1) and Double(1.0) both render "1".
    return std::string(rdb::ValueTypeName(v.type())) + v.ToString();
  };
  std::string k = "T:";
  for (const auto& t : b.from_tables) k += t + ",";
  k += "|S:";
  for (const auto& s : b.select) k += ref(s) + ",";
  k += "|J:";
  for (const auto& j : b.joins) k += ref(j.lhs) + "=" + ref(j.rhs) + ",";
  k += "|F:";
  for (const auto& f : b.filters) k += ref(f.col) + "=" + val(f.value) + ",";
  k += "|C:";
  for (const auto& c : b.const_select) {
    k += std::to_string(c.position) + "=" + val(c.value) + ",";
  }
  return k;
}

// Budget-metered gateway to the constraint oracle, mirroring the
// rewriter's: once a quota refuses, the oracle is dropped and the rest of
// the unfolding runs unpruned (sound — only larger).
struct ConstraintGate {
  const SourceConstraints* oracle = nullptr;
  uint64_t cap = 0;
  const ExecBudget* budget = nullptr;
  UnfoldStats* stats = nullptr;
  Degradation* degradation = nullptr;

  bool on() const { return oracle != nullptr; }
  bool Consult() {
    if (oracle == nullptr) return false;
    // A refused draw is not a consultation: only granted lookups count,
    // so the reported total never exceeds the cap.
    if ((cap != 0 && stats->constraint_checks >= cap) ||
        (budget != nullptr && !budget->Consume(Quota::kConstraintChecks))) {
      oracle = nullptr;
      stats->constraint_prune_complete = false;
      if (degradation != nullptr) {
        degradation->Add("constraint",
                         "unfold pruning stopped after " +
                             std::to_string(stats->constraint_checks) +
                             " oracle consultations (remaining blocks "
                             "emitted unpruned)");
      }
      return false;
    }
    ++stats->constraint_checks;
    return true;
  }
};

// Merges same-table instances joined on an inferred key column: the join
// forces both instances to denote the same physical row, so one instance
// (with every reference remapped) computes the same block. Returns the
// number of merges applied.
uint64_t SimplifyBlockWithKeys(ConstraintGate* gate, rdb::SelectBlock* b) {
  uint64_t merges = 0;
  bool changed = true;
  while (changed && gate->on()) {
    changed = false;
    for (const rdb::EqJoin& j : b->joins) {
      size_t a = j.lhs.table_index;
      size_t c = j.rhs.table_index;
      if (a == c || j.lhs.column != j.rhs.column) continue;
      if (b->from_tables[a] != b->from_tables[c]) continue;
      if (!gate->Consult() ||
          !gate->oracle->IsKeyColumn(b->from_tables[a], j.lhs.column)) {
        continue;
      }
      size_t lo = a < c ? a : c;
      size_t hi = a < c ? c : a;
      auto remap = [&](rdb::ColumnRef* ref) {
        if (ref->table_index == hi) {
          ref->table_index = lo;
        } else if (ref->table_index > hi) {
          --ref->table_index;
        }
      };
      for (auto& join : b->joins) {
        remap(&join.lhs);
        remap(&join.rhs);
      }
      for (auto& filt : b->filters) remap(&filt.col);
      for (auto& sel : b->select) remap(&sel);
      b->from_tables.erase(b->from_tables.begin() + hi);
      // Drop joins the merge made trivial (both sides now identical).
      std::vector<rdb::EqJoin> joins;
      for (const auto& join : b->joins) {
        if (!(join.lhs == join.rhs)) joins.push_back(join);
      }
      b->joins = std::move(joins);
      ++merges;
      changed = true;
      break;  // join list was rewritten; restart the scan
    }
  }
  return merges;
}

// Two constant filters on the same column reference with different values
// can never both hold: the block's result is empty.
bool ContradictoryFilters(const rdb::SelectBlock& b) {
  for (size_t i = 0; i < b.filters.size(); ++i) {
    for (size_t j = i + 1; j < b.filters.size(); ++j) {
      if (b.filters[i].col == b.filters[j].col &&
          !(b.filters[i].value == b.filters[j].value)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

Result<rdb::SqlQuery> Unfold(const query::UnionQuery& ucq,
                             const mapping::MappingSet& mappings,
                             const rdb::Database& db,
                             const UnfoldOptions& options) {
  rdb::SqlQuery sql;
  std::unordered_set<std::string> seen_blocks;
  const ExecBudget* budget = options.budget;
  bool truncated = false;
  size_t disjuncts_done = 0;
  UnfoldStats ustats;
  ConstraintGate gate;
  gate.oracle = options.constraints;
  gate.cap = options.max_constraint_checks;
  gate.budget = budget;
  gate.stats = &ustats;
  gate.degradation = options.degradation;
  auto publish_stats = [&]() {
    if (options.stats != nullptr) *options.stats = ustats;
  };
  auto exhaust = [&](Status exhausted) -> Status {
    if (options.allow_partial) {
      truncated = true;
      if (options.degradation != nullptr) {
        options.degradation->Add(
            "unfold", "truncated after " + std::to_string(sql.blocks.size()) +
                          " SQL blocks (" + std::to_string(disjuncts_done) +
                          "/" + std::to_string(ucq.disjuncts.size()) +
                          " disjuncts unfolded): " + exhausted.message());
      }
      return Status::Ok();  // stop unfolding, keep what we have
    }
    return exhausted;
  };
  for (const ConjunctiveQuery& cq : ucq.disjuncts) {
    if (truncated) break;
    Status injected = fault::InjectAt(fault::Site::kUnfold);
    if (!injected.ok()) return injected;
    if (budget != nullptr) {
      Status s = budget->Check("unfold");
      if (!s.ok()) {
        OLITE_RETURN_IF_ERROR(exhaust(std::move(s)));
        break;
      }
    }
    // Mapping choices per atom.
    std::vector<std::vector<const MappingAssertion*>> atom_views;
    bool feasible = true;
    bool constraint_skip = false;
    for (const Atom& atom : cq.atoms) {
      // A provably empty predicate (mapped, but its views retrieve
      // nothing) makes the whole disjunct evaluate empty.
      if (gate.Consult() && gate.oracle->Empty(atom.kind, atom.predicate)) {
        feasible = false;
        constraint_skip = true;
        break;
      }
      auto views = mappings.For(KindOf(atom), atom.predicate);
      if (gate.on() && views.size() > 1) {
        // Empty views contribute nothing; dominated views are contained
        // in a retained sibling. Dropping either leaves the union of the
        // remaining choices with the same evaluation.
        const MappingAssertion* base = mappings.assertions().data();
        std::vector<const MappingAssertion*> kept;
        for (const MappingAssertion* v : views) {
          size_t idx = static_cast<size_t>(v - base);
          bool drop = gate.Consult() && (gate.oracle->EmptyView(idx) ||
                                         gate.oracle->DominatedView(idx));
          if (drop) {
            ++ustats.pruned_unfoldings;
          } else {
            kept.push_back(v);
          }
        }
        views = std::move(kept);
      }
      if (views.empty()) {
        feasible = false;  // unmapped predicate: empty certain answers
        break;
      }
      atom_views.push_back(std::move(views));
    }
    if (!feasible) {
      if (constraint_skip) ++ustats.pruned_unfoldings;
      ++disjuncts_done;
      continue;
    }

    // Cartesian product over per-atom choices.
    std::vector<size_t> pick(cq.atoms.size(), 0);
    while (true) {
      std::vector<const MappingAssertion*> choice;
      choice.reserve(pick.size());
      for (size_t i = 0; i < pick.size(); ++i) {
        choice.push_back(atom_views[i][pick[i]]);
      }
      rdb::SelectBlock block;
      OLITE_ASSIGN_OR_RETURN(bool ok, BuildBlock(cq, choice, db, &block));
      if (ok && gate.on()) {
        ustats.key_joins += SimplifyBlockWithKeys(&gate, &block);
        // Checked after the key merge: the merge can land two different
        // constant filters on one column reference, exposing the
        // contradiction.
        if (ContradictoryFilters(block)) {
          ok = false;
          ++ustats.pruned_unfoldings;
        }
      }
      // Duplicates don't enter the union and don't consume quota.
      if (ok) ok = seen_blocks.insert(BlockKey(block)).second;
      if (ok) {
        if (budget != nullptr && !budget->Consume(Quota::kSqlBlocks)) {
          OLITE_RETURN_IF_ERROR(exhaust(Status::ResourceExhausted(
              "unfold: sql-block quota exhausted at " +
              std::to_string(sql.blocks.size()) + " blocks")));
          truncated = true;
          break;
        }
        sql.blocks.push_back(std::move(block));
      }

      // Advance the odometer.
      size_t d = 0;
      for (; d < pick.size(); ++d) {
        if (++pick[d] < atom_views[d].size()) break;
        pick[d] = 0;
      }
      if (d == pick.size()) break;
    }
    ++disjuncts_done;
  }
  publish_stats();
  if (sql.blocks.empty()) {
    return Status::NotFound(
        "no disjunct is answerable under the mappings (empty unfolding)");
  }
  return sql;
}

}  // namespace olite::obda
