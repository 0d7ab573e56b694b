#include "query/containment.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

namespace olite::query {

namespace {

using Assignment = std::unordered_map<std::string, Term>;

// Tries to map `term` (from the general query) onto `target` under the
// current assignment; head variables and constants must map identically.
bool TryMap(const Term& term, const Term& target, bool term_is_head,
            Assignment* assignment, std::vector<std::string>* trail) {
  if (!term.IsVar()) return term == target;
  if (term_is_head) return target.IsVar() && target.name == term.name;
  auto it = assignment->find(term.name);
  if (it != assignment->end()) return it->second == target;
  assignment->emplace(term.name, target);
  trail->push_back(term.name);
  return true;
}

// `relaxed` counts the cross-predicate (constraint-justified) matches on
// the current partial assignment; it is restored on backtrack so a success
// reports whether the accepted homomorphism actually needed the oracle.
bool Search(const ConjunctiveQuery& general,
            const ConjunctiveQuery& specific,
            const std::vector<bool>& is_head_var, size_t atom_index,
            const ConstraintOracle* constraints, Assignment* assignment,
            size_t* relaxed) {
  if (atom_index == general.atoms.size()) return true;
  const Atom& g = general.atoms[atom_index];
  for (const Atom& s : specific.atoms) {
    if (s.kind != g.kind) continue;
    bool relaxed_match = false;
    if (s.predicate != g.predicate) {
      // A cross-predicate match is sound when every source tuple of the
      // specific atom's predicate is a source tuple of the general's:
      // the homomorphic image then still matches over the (frozen)
      // source instance the union is evaluated against.
      if (constraints == nullptr ||
          !constraints->Included(s.kind, s.predicate, g.predicate)) {
        continue;
      }
      relaxed_match = true;
    }
    std::vector<std::string> trail;
    bool ok = true;
    for (size_t k = 0; k < g.args.size(); ++k) {
      bool head = g.args[k].IsVar() &&
                  is_head_var[atom_index * 2 + k];  // see precompute below
      if (!TryMap(g.args[k], s.args[k], head, assignment, &trail)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      if (relaxed_match) ++*relaxed;
      if (Search(general, specific, is_head_var, atom_index + 1, constraints,
                 assignment, relaxed)) {
        return true;
      }
      if (relaxed_match) --*relaxed;
    }
    for (const auto& v : trail) assignment->erase(v);
  }
  return false;
}

// The (kind, predicate) pairs of a query's atoms, sorted and unique.
using Predicates = std::vector<std::pair<Atom::Kind, uint32_t>>;

Predicates PredicatesOf(const ConjunctiveQuery& q) {
  Predicates preds;
  preds.reserve(q.atoms.size());
  for (const Atom& a : q.atoms) preds.emplace_back(a.kind, a.predicate);
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  return preds;
}

// Necessary condition of `Contains(general, specific)`: every atom of
// `general` has a same-kind atom of `specific` that `Search` may map it
// onto — the same predicate, or one `constraints` includes in it. `Search`
// fails at the first atom without one, so a false here is Contains' verdict.
bool MayContain(const Predicates& general, const Predicates& specific,
                const ConstraintOracle* constraints) {
  for (const auto& g : general) {
    if (std::binary_search(specific.begin(), specific.end(), g)) continue;
    if (constraints == nullptr) return false;
    const bool included = std::any_of(
        specific.begin(), specific.end(), [&](const auto& s) {
          return s.first == g.first &&
                 constraints->Included(g.first, s.second, g.second);
        });
    if (!included) return false;
  }
  return true;
}

}  // namespace

bool Contains(const ConjunctiveQuery& general,
              const ConjunctiveQuery& specific, size_t max_atoms) {
  ContainsOptions options;
  options.max_atoms = max_atoms;
  return Contains(general, specific, options);
}

bool Contains(const ConjunctiveQuery& general,
              const ConjunctiveQuery& specific,
              const ContainsOptions& options) {
  if (general.head_vars != specific.head_vars) return false;
  // Bound head coordinates are part of the answer shape: queries that
  // force different constants (or none) are never comparable.
  if (general.head_bindings != specific.head_bindings) return false;
  if (general.atoms.size() > options.max_atoms ||
      specific.atoms.size() > options.max_atoms) {
    return false;  // conservative
  }
  // Precompute, per (atom, argument) of the general query, whether the
  // variable there is distinguished.
  std::vector<bool> is_head(general.atoms.size() * 2, false);
  for (size_t i = 0; i < general.atoms.size(); ++i) {
    for (size_t k = 0; k < general.atoms[i].args.size(); ++k) {
      const Term& t = general.atoms[i].args[k];
      if (!t.IsVar()) continue;
      for (const auto& h : general.head_vars) {
        if (h == t.name) is_head[i * 2 + k] = true;
      }
    }
  }
  Assignment assignment;
  size_t relaxed = 0;
  bool found = Search(general, specific, is_head, 0, options.constraints,
                      &assignment, &relaxed);
  if (found && options.used_constraints != nullptr) {
    *options.used_constraints = relaxed > 0;
  }
  return found;
}

void MinimizeUnion(UnionQuery* ucq, const ExecBudget* budget,
                   uint64_t max_checks, MinimizeStats* stats) {
  MinimizeOptions options;
  options.budget = budget;
  options.max_checks = max_checks;
  MinimizeUnion(ucq, options, stats);
}

void MinimizeUnion(UnionQuery* ucq, const MinimizeOptions& options,
                   MinimizeStats* stats) {
  MinimizeStats local;
  const ExecBudget* budget = options.budget;
  const uint64_t max_checks = options.max_checks;
  const size_t n = ucq->disjuncts.size();
  std::vector<bool> removed(n, false);
  bool exhausted = false;
  ContainsOptions copts;
  copts.constraints = options.constraints;
  std::vector<Predicates> preds;
  preds.reserve(n);
  for (const auto& d : ucq->disjuncts) preds.push_back(PredicatesOf(d));
  for (size_t i = 0; i < n && !exhausted; ++i) {
    for (size_t j = 0; j < n && !removed[i]; ++j) {
      if (i == j || removed[j]) continue;
      if (max_checks != 0 && local.checks >= max_checks) {
        exhausted = true;
        break;
      }
      if (budget != nullptr) {
        if (!budget->Consume(Quota::kContainmentChecks) ||
            budget->cancelled() ||
            ((local.checks & 0x1F) == 0 && budget->TimeExpired())) {
          exhausted = true;
          break;
        }
      }
      // A pair counts as a check (and against the quota) whether or not
      // the predicate prefilter settles it.
      ++local.checks;
      if (!MayContain(preds[j], preds[i], options.constraints)) continue;
      bool used_constraints = false;
      copts.used_constraints = &used_constraints;
      if (Contains(ucq->disjuncts[j], ucq->disjuncts[i], copts)) {
        removed[i] = true;
        ++local.removed;
        if (used_constraints) ++local.constraint_removed;
      }
    }
  }
  if (exhausted) {
    local.complete = false;
    // Remaining pairs are conservatively counted as skipped; the disjuncts
    // they would have pruned stay in the union (sound, just larger).
    uint64_t total = static_cast<uint64_t>(n) * (n > 0 ? n - 1 : 0);
    local.skipped = total > local.checks ? total - local.checks : 0;
  }
  if (stats != nullptr) *stats = local;
  std::vector<ConjunctiveQuery> kept;
  for (size_t i = 0; i < n; ++i) {
    if (!removed[i]) kept.push_back(std::move(ucq->disjuncts[i]));
  }
  ucq->disjuncts = std::move(kept);
}

}  // namespace olite::query
