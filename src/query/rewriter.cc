#include "query/rewriter.h"

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "common/stopwatch.h"
#include "query/containment.h"

namespace olite::query {

namespace {

using dllite::BasicConcept;
using dllite::BasicConceptKind;
using dllite::BasicRole;
using dllite::RhsConceptKind;

// Hash of an atom's full signature (kind, predicate, argument terms), for
// set-based duplicate elimination.
struct AtomHash {
  size_t operator()(const Atom& a) const {
    size_t h = static_cast<size_t>(a.kind);
    h = h * 1000003 + a.predicate;
    for (const Term& t : a.args) {
      h = h * 1000003 + static_cast<size_t>(t.kind);
      h = h * 1000003 + std::hash<std::string>{}(t.name);
    }
    return h;
  }
};

// Removes duplicate atoms, keeping the first occurrence of each. Runs once
// per generated rewriting candidate, so linear time matters: the previous
// std::find scan was quadratic and dominated rewritings with many atoms.
void DedupAtoms(ConjunctiveQuery* q) {
  std::unordered_set<Atom, AtomHash> seen;
  seen.reserve(q->atoms.size());
  std::vector<Atom> out;
  out.reserve(q->atoms.size());
  for (auto& a : q->atoms) {
    if (seen.insert(a).second) out.push_back(std::move(a));
  }
  q->atoms = std::move(out);
}

// Budget-metered gateway to the constraint oracle. Every consultation
// draws from the call-local cap and the shared kConstraintChecks quota;
// once either refuses, the oracle is dropped for the rest of the call and
// the remaining candidates stay unpruned — sound, the union is only
// larger than it had to be.
struct PruneState {
  const ConstraintOracle* oracle = nullptr;
  uint64_t cap = 0;
  const ExecBudget* budget = nullptr;
  RewriteStats* stats = nullptr;
  Degradation* degradation = nullptr;

  bool Consult() {
    if (oracle == nullptr) return false;
    // A refused draw is not a consultation: the counter reports only the
    // oracle lookups actually spent, so it never exceeds the cap.
    if ((cap != 0 && stats->constraint_checks >= cap) ||
        (budget != nullptr && !budget->Consume(Quota::kConstraintChecks))) {
      oracle = nullptr;
      stats->constraint_prune_complete = false;
      if (degradation != nullptr) {
        degradation->Add("constraint",
                         "constraint pruning stopped after " +
                             std::to_string(stats->constraint_checks) +
                             " oracle consultations (remaining candidates "
                             "kept unpruned)");
      }
      return false;
    }
    ++stats->constraint_checks;
    return true;
  }
  // ext(sub) ⊆ ext(sup), same orientation.
  bool Covered(Atom::Kind kind, uint32_t sub, uint32_t sup) {
    return Consult() && oracle->Included(kind, sub, sup);
  }
  // swap(ext(sub)) ⊆ ext(sup), for inverse role-hierarchy steps.
  bool CoveredInverse(Atom::Kind kind, uint32_t sub, uint32_t sup) {
    return Consult() && oracle->IncludedInverse(kind, sub, sup);
  }
  bool EmptyAtom(const Atom& a) {
    return Consult() && oracle->Empty(a.kind, a.predicate);
  }
};

}  // namespace

const char* RewriteModeName(RewriteMode mode) {
  switch (mode) {
    case RewriteMode::kPerfectRef: return "perfectref";
    case RewriteMode::kClassified: return "classified";
  }
  return "unknown";
}

class Rewriter::Impl {
 public:
  Impl(const dllite::TBox& tbox, const dllite::Vocabulary& vocab,
       RewriterOptions options)
      : vocab_(vocab), options_(options) {
    // Index asserted positive inclusions by the shape of their RHS.
    for (const auto& ax : tbox.concept_inclusions()) {
      switch (ax.rhs.kind) {
        case RhsConceptKind::kBasic:
          switch (ax.rhs.basic.kind) {
            case BasicConceptKind::kAtomic:
              by_atomic_[ax.rhs.basic.concept_id].push_back(ax.lhs);
              break;
            case BasicConceptKind::kExists:
              by_exists_[Key(ax.rhs.basic.role)].push_back(ax.lhs);
              break;
            case BasicConceptKind::kAttrDomain:
              by_attr_domain_[ax.rhs.basic.attribute].push_back(ax.lhs);
              break;
          }
          break;
        case RhsConceptKind::kQualifiedExists:
          // Entails B ⊑ ∃Q, and supports the pair rule.
          by_exists_[Key(ax.rhs.role)].push_back(ax.lhs);
          qualified_.push_back({ax.lhs, ax.rhs.role, ax.rhs.filler});
          break;
        case RhsConceptKind::kNegatedBasic:
          break;  // negative inclusions play no role in rewriting
      }
    }
    for (const auto& ax : tbox.role_inclusions()) {
      if (ax.negated) continue;
      // lhs ⊑ rhs and lhs⁻ ⊑ rhs⁻.
      by_role_[Key(ax.rhs)].push_back(ax.lhs);
      by_role_[Key(ax.rhs.Inverted())].push_back(ax.lhs.Inverted());
    }
    for (const auto& ax : tbox.attribute_inclusions()) {
      if (ax.negated) continue;
      by_attribute_[ax.rhs].push_back(ax.lhs);
    }

    if (options_.mode == RewriteMode::kClassified) {
      if (options_.classification != nullptr) {
        classification_ = options_.classification;
      } else {
        classification_ = std::make_shared<const core::Classification>(
            core::Classify(tbox, vocab));
      }
    }
  }

  Result<UnionQuery> Rewrite(const ConjunctiveQuery& cq,
                             const RewriteRequest& request,
                             RewriteStats* stats) const {
    RewriteStats local;
    Stopwatch stage_sw;
    // A suppressed entry is *expanded* like any other (its descendants can
    // contribute answers the retained disjuncts do not cover) but omitted
    // from the output union: its own source evaluation is covered by the
    // parent it was derived from (which the constraint justified), or the
    // disjunct mentions a source-empty predicate and evaluates to ∅.
    struct Entry {
      ConjunctiveQuery q;
      bool suppressed = false;
    };
    std::unordered_map<std::string, Entry> seen;
    std::deque<std::string> queue;
    size_t fresh_counter = 0;
    const ExecBudget* budget = request.budget;
    PruneState prune;
    if (!request.disable_constraint_pruning) prune.oracle = options_.constraints;
    prune.cap = options_.max_constraint_checks;
    prune.budget = budget;
    prune.stats = &local;
    prune.degradation = request.degradation;

    auto add = [&](ConjunctiveQuery q, bool covered) {
      DedupAtoms(&q);
      bool suppressed = covered;
      if (!suppressed && prune.oracle != nullptr) {
        for (const Atom& a : q.atoms) {
          if (prune.EmptyAtom(a)) {
            suppressed = true;
            break;
          }
        }
      }
      std::string key = q.CanonicalKey(vocab_);
      ++local.generated;
      auto [it, fresh] = seen.emplace(key, Entry{std::move(q), suppressed});
      if (fresh) {
        queue.push_back(key);
      } else if (!suppressed) {
        // Re-derived without a covering justification: keep it.
        it->second.suppressed = false;
      }
    };

    add(cq, false);
    while (!queue.empty()) {
      if (seen.size() > options_.max_disjuncts) {
        return Status::ResourceExhausted(
            "rewriting exceeded max_disjuncts = " +
            std::to_string(options_.max_disjuncts));
      }
      if (budget != nullptr &&
          (!budget->Consume(Quota::kRewriteIterations) ||
           budget->cancelled() || budget->TimeExpired())) {
        if (!request.allow_partial) {
          Status s = budget->Check("rewrite");
          if (s.ok()) {
            s = Status::ResourceExhausted(
                "rewrite: iteration quota exhausted after " +
                std::to_string(local.iterations) + " iterations");
          }
          return s;
        }
        // Degrade: every disjunct generated so far is an entailed
        // specialisation of the input, so the truncated union is sound.
        local.expansion_complete = false;
        if (request.degradation != nullptr) {
          request.degradation->Add(
              "rewrite", "expansion truncated after " +
                             std::to_string(local.iterations) +
                             " iterations (" + std::to_string(seen.size()) +
                             " disjuncts kept, " +
                             std::to_string(queue.size()) + " unexpanded)");
        }
        break;
      }
      ConjunctiveQuery q = seen.at(queue.front()).q;
      queue.pop_front();
      ++local.iterations;

      // (a) atom rewriting.
      for (size_t i = 0; i < q.atoms.size(); ++i) {
        for (Candidate& rewritten : RewriteAtom(q, i, &fresh_counter, &prune)) {
          add(std::move(rewritten.q), rewritten.covered);
        }
      }
      // (a') qualified-existential pair rule.
      for (ConjunctiveQuery& rewritten : PairRule(q, &fresh_counter)) {
        add(std::move(rewritten), false);
      }
      // (b) reduce: unify pairs of atoms.
      for (size_t i = 0; i < q.atoms.size(); ++i) {
        for (size_t j = i + 1; j < q.atoms.size(); ++j) {
          ConjunctiveQuery reduced;
          if (TryUnify(q, i, j, &reduced)) add(std::move(reduced), false);
        }
      }
    }

    UnionQuery out;
    out.disjuncts.reserve(seen.size());
    for (auto& [key, entry] : seen) {
      (void)key;
      if (entry.suppressed) {
        ++local.pruned_disjuncts;
        continue;
      }
      out.disjuncts.push_back(std::move(entry.q));
    }
    local.expand_us = stage_sw.ElapsedMicros();
    stage_sw.Reset();
    if (options_.prune_subsumed) {
      MinimizeStats mstats;
      MinimizeOptions mopts;
      mopts.budget = budget;
      mopts.max_checks = kMaxPruneChecks;
      // The minimisation sweep's oracle lookups ride the containment-check
      // quota rather than kConstraintChecks: each lookup happens inside a
      // homomorphism test that is already metered.
      mopts.constraints = prune.oracle;
      MinimizeUnion(&out, mopts, &mstats);
      local.prune_checks = mstats.checks;
      local.prune_skipped = mstats.skipped;
      local.pruned = mstats.removed;
      local.constraint_pruned = mstats.constraint_removed;
      local.prune_complete = mstats.complete;
      if (!mstats.complete && request.degradation != nullptr) {
        request.degradation->Add(
            "prune", "minimisation stopped after " +
                         std::to_string(mstats.checks) +
                         " containment checks (" +
                         std::to_string(mstats.skipped) +
                         " skipped; union kept unpruned)");
      }
      local.minimize_us = stage_sw.ElapsedMicros();
    }
    // Deterministic order: by rendering, each rendered once; equal
    // renderings keep their relative order.
    std::vector<std::pair<std::string, size_t>> keys;
    keys.reserve(out.disjuncts.size());
    for (size_t i = 0; i < out.disjuncts.size(); ++i) {
      keys.emplace_back(out.disjuncts[i].ToString(vocab_), i);
    }
    std::sort(keys.begin(), keys.end());
    std::vector<ConjunctiveQuery> sorted;
    sorted.reserve(keys.size());
    for (const auto& [key, i] : keys) {
      sorted.push_back(std::move(out.disjuncts[i]));
    }
    out.disjuncts = std::move(sorted);
    local.final_disjuncts = out.disjuncts.size();
    if (stats != nullptr) *stats = local;
    return out;
  }

 private:
  static uint64_t Key(BasicRole q) {
    return (static_cast<uint64_t>(q.role) << 1) | (q.inverse ? 1 : 0);
  }

  Term FreshVar(size_t* counter) const {
    return Term::Var("_n" + std::to_string((*counter)++));
  }

  // gr(B, t): the atom expressing membership of term t in basic concept B.
  Atom Gr(const BasicConcept& b, const Term& t, size_t* counter) const {
    switch (b.kind) {
      case BasicConceptKind::kAtomic:
        return Atom::Concept(b.concept_id, t);
      case BasicConceptKind::kExists:
        if (b.role.inverse) {
          return Atom::Role(b.role.role, FreshVar(counter), t);
        }
        return Atom::Role(b.role.role, t, FreshVar(counter));
      case BasicConceptKind::kAttrDomain:
        return Atom::Attribute(b.attribute, t, FreshVar(counter));
    }
    return Atom::Concept(0, t);
  }

  bool IsUnboundVar(const ConjunctiveQuery& q, const Term& t) const {
    return t.IsVar() && !q.IsBoundVar(t.name);
  }

  // -- applicable-axiom enumeration (asserted or classified) -----------------

  std::vector<BasicConcept> SubsumeesOfAtomic(dllite::ConceptId a) const {
    if (classification_ != nullptr) {
      return SubsumeesOfNode(
          classification_->tbox_graph().nodes.OfConcept(a));
    }
    auto it = by_atomic_.find(a);
    return it == by_atomic_.end() ? std::vector<BasicConcept>{} : it->second;
  }

  std::vector<BasicConcept> SubsumeesOfExists(BasicRole q) const {
    if (classification_ != nullptr) {
      return SubsumeesOfNode(classification_->tbox_graph().nodes.OfExists(q));
    }
    auto it = by_exists_.find(Key(q));
    return it == by_exists_.end() ? std::vector<BasicConcept>{} : it->second;
  }

  std::vector<BasicConcept> SubsumeesOfAttrDomain(dllite::AttributeId u) const {
    if (classification_ != nullptr) {
      return SubsumeesOfNode(
          classification_->tbox_graph().nodes.OfAttrDomain(u));
    }
    auto it = by_attr_domain_.find(u);
    return it == by_attr_domain_.end() ? std::vector<BasicConcept>{}
                                       : it->second;
  }

  std::vector<BasicConcept> SubsumeesOfNode(graph::NodeId node) const {
    const core::NodeTable& nt = classification_->tbox_graph().nodes;
    std::vector<BasicConcept> out;
    for (graph::NodeId v :
         classification_->reverse_closure().ReachableFrom(node)) {
      if (nt.IsConceptSorted(v)) out.push_back(nt.BasicConceptOf(v));
    }
    return out;
  }

  std::vector<BasicRole> SubRolesOf(BasicRole r) const {
    if (classification_ != nullptr) {
      const core::NodeTable& nt = classification_->tbox_graph().nodes;
      std::vector<BasicRole> out;
      for (graph::NodeId v :
           classification_->reverse_closure().ReachableFrom(nt.OfRole(r))) {
        if (nt.KindOf(v) == core::NodeKind::kRole) out.push_back(nt.RoleOf(v));
      }
      return out;
    }
    auto it = by_role_.find(Key(r));
    return it == by_role_.end() ? std::vector<BasicRole>{} : it->second;
  }

  std::vector<dllite::AttributeId> SubAttributesOf(
      dllite::AttributeId u) const {
    if (classification_ != nullptr) {
      const core::NodeTable& nt = classification_->tbox_graph().nodes;
      std::vector<dllite::AttributeId> out;
      for (graph::NodeId v : classification_->reverse_closure().ReachableFrom(
               nt.OfAttribute(u))) {
        if (nt.KindOf(v) == core::NodeKind::kAttribute) {
          out.push_back(nt.AttributeOf(v));
        }
      }
      return out;
    }
    auto it = by_attribute_.find(u);
    return it == by_attribute_.end() ? std::vector<dllite::AttributeId>{}
                                     : it->second;
  }

  // -- rewriting steps ---------------------------------------------------------

  // A rewriting candidate. `covered` marks pure predicate swaps (same
  // arguments, no fresh variables) where the constraint oracle proved the
  // swapped-in predicate's extension contained in the swapped-out one's:
  // the candidate's source evaluation is then a subset of its parent's, so
  // it can be suppressed from the output (but must still be expanded —
  // descendants reached only through it can contribute new answers).
  struct Candidate {
    ConjunctiveQuery q;
    bool covered = false;
  };

  std::vector<Candidate> RewriteAtom(const ConjunctiveQuery& q, size_t i,
                                     size_t* fresh_counter,
                                     PruneState* prune) const {
    std::vector<Candidate> out;
    const Atom& g = q.atoms[i];
    auto replace_with = [&](Atom atom, bool covered) {
      ConjunctiveQuery copy = q;
      copy.atoms[i] = std::move(atom);
      out.push_back({std::move(copy), covered});
    };

    switch (g.kind) {
      case Atom::Kind::kConcept: {
        for (const auto& b : SubsumeesOfAtomic(g.predicate)) {
          bool covered =
              b.kind == BasicConceptKind::kAtomic &&
              prune->Covered(Atom::Kind::kConcept, b.concept_id, g.predicate);
          replace_with(Gr(b, g.args[0], fresh_counter), covered);
        }
        break;
      }
      case Atom::Kind::kRole: {
        BasicRole p = BasicRole::Direct(g.predicate);
        // Existential applications need an unbound second argument.
        if (IsUnboundVar(q, g.args[1])) {
          for (const auto& b : SubsumeesOfExists(p)) {
            replace_with(Gr(b, g.args[0], fresh_counter), false);
          }
        }
        if (IsUnboundVar(q, g.args[0])) {
          for (const auto& b : SubsumeesOfExists(p.Inverted())) {
            replace_with(Gr(b, g.args[1], fresh_counter), false);
          }
        }
        // Role hierarchy.
        for (const auto& r : SubRolesOf(p)) {
          if (r.inverse) {
            bool covered = prune->CoveredInverse(Atom::Kind::kRole, r.role,
                                                 g.predicate);
            replace_with(Atom::Role(r.role, g.args[1], g.args[0]), covered);
          } else {
            bool covered =
                prune->Covered(Atom::Kind::kRole, r.role, g.predicate);
            replace_with(Atom::Role(r.role, g.args[0], g.args[1]), covered);
          }
        }
        break;
      }
      case Atom::Kind::kAttribute: {
        if (IsUnboundVar(q, g.args[1])) {
          for (const auto& b : SubsumeesOfAttrDomain(g.predicate)) {
            replace_with(Gr(b, g.args[0], fresh_counter), false);
          }
        }
        for (dllite::AttributeId u : SubAttributesOf(g.predicate)) {
          bool covered =
              prune->Covered(Atom::Kind::kAttribute, u, g.predicate);
          replace_with(Atom::Attribute(u, g.args[0], g.args[1]), covered);
        }
        break;
      }
    }
    return out;
  }

  // Applies B ⊑ ∃Q.A to atom pairs Q(t1, y) ∧ A(y) (or the inverse
  // orientation) where y occurs nowhere else and is not distinguished.
  std::vector<ConjunctiveQuery> PairRule(const ConjunctiveQuery& q,
                                         size_t* fresh_counter) const {
    std::vector<ConjunctiveQuery> out;
    for (size_t i = 0; i < q.atoms.size(); ++i) {
      const Atom& role_atom = q.atoms[i];
      if (role_atom.kind != Atom::Kind::kRole) continue;
      for (size_t j = 0; j < q.atoms.size(); ++j) {
        if (i == j) continue;
        const Atom& concept_atom = q.atoms[j];
        if (concept_atom.kind != Atom::Kind::kConcept) continue;
        const Term& shared = concept_atom.args[0];
        if (!shared.IsVar()) continue;
        // y must occur exactly twice (here and in the role atom) and not
        // be distinguished.
        if (q.CountOccurrences(shared.name) != 2) continue;
        bool is_head = std::find(q.head_vars.begin(), q.head_vars.end(),
                                 shared.name) != q.head_vars.end();
        if (is_head) continue;

        for (const auto& qe : qualified_) {
          if (qe.filler != concept_atom.predicate) continue;
          if (qe.role.role != role_atom.predicate) continue;
          // Match orientation: Q(t, y) for direct, Q(y, t) for inverse.
          const Term& other =
              qe.role.inverse ? role_atom.args[1] : role_atom.args[0];
          const Term& filler_pos =
              qe.role.inverse ? role_atom.args[0] : role_atom.args[1];
          if (!(filler_pos == shared)) continue;
          ConjunctiveQuery copy = q;
          // Replace both atoms with gr(B, other).
          std::vector<Atom> atoms;
          for (size_t k = 0; k < copy.atoms.size(); ++k) {
            if (k != i && k != j) atoms.push_back(copy.atoms[k]);
          }
          atoms.push_back(Gr(qe.lhs, other, fresh_counter));
          copy.atoms = std::move(atoms);
          out.push_back(std::move(copy));
        }
      }
    }
    return out;
  }

  // Most-general unification of atoms i and j; on success produces the
  // reduced query with the substitution applied everywhere.
  bool TryUnify(const ConjunctiveQuery& q, size_t i, size_t j,
                ConjunctiveQuery* out) const {
    const Atom& a = q.atoms[i];
    const Atom& b = q.atoms[j];
    if (a.kind != b.kind || a.predicate != b.predicate) return false;
    ConjunctiveQuery copy = q;
    // `var` and `to` are taken by value: the loop mutates the very terms a
    // reference would alias, which would silently retarget the
    // substitution halfway through.
    auto substitute = [&](std::string var, Term to) {
      for (auto& atom : copy.atoms) {
        for (auto& t : atom.args) {
          if (t.IsVar() && t.name == var) t = to;
        }
      }
      if (to.IsVar()) {
        for (auto& h : copy.head_vars) {
          if (h == var) h = to.name;
        }
      } else if (std::find(copy.head_vars.begin(), copy.head_vars.end(),
                           var) != copy.head_vars.end()) {
        // A distinguished variable unified with a constant: the variable
        // is gone from the body, so record the forced answer coordinate
        // (q(x) :- P(y,x), P(y,'c') reduces to q('c') :- P(y,'c')).
        copy.head_bindings.emplace_back(var, to.name);
        std::sort(copy.head_bindings.begin(), copy.head_bindings.end());
      }
    };
    for (size_t k = 0; k < a.args.size(); ++k) {
      const Term& ta = copy.atoms[i].args[k];
      const Term& tb = copy.atoms[j].args[k];
      if (ta == tb) continue;
      if (ta.IsVar() && tb.IsVar()) {
        // Prefer substituting away the non-head variable.
        bool ta_head = std::find(q.head_vars.begin(), q.head_vars.end(),
                                 ta.name) != q.head_vars.end();
        if (ta_head) {
          substitute(tb.name, ta);
        } else {
          substitute(ta.name, tb);
        }
      } else if (ta.IsVar()) {
        substitute(ta.name, tb);
      } else if (tb.IsVar()) {
        substitute(tb.name, ta);
      } else {
        return false;  // distinct constants
      }
    }
    DedupAtoms(&copy);
    if (copy == q) return false;
    *out = std::move(copy);
    return true;
  }

  struct QualifiedAxiom {
    BasicConcept lhs;
    BasicRole role;
    dllite::ConceptId filler;
  };

  const dllite::Vocabulary& vocab_;
  RewriterOptions options_;
  std::unordered_map<dllite::ConceptId, std::vector<BasicConcept>> by_atomic_;
  std::unordered_map<uint64_t, std::vector<BasicConcept>> by_exists_;
  std::unordered_map<dllite::AttributeId, std::vector<BasicConcept>>
      by_attr_domain_;
  std::unordered_map<uint64_t, std::vector<BasicRole>> by_role_;
  std::unordered_map<dllite::AttributeId, std::vector<dllite::AttributeId>>
      by_attribute_;
  std::vector<QualifiedAxiom> qualified_;
  std::shared_ptr<const core::Classification> classification_;
};

Rewriter::Rewriter(const dllite::TBox& tbox, const dllite::Vocabulary& vocab,
                   RewriterOptions options)
    : impl_(std::make_shared<Impl>(tbox, vocab, options)) {}

Result<UnionQuery> Rewriter::Rewrite(const ConjunctiveQuery& cq,
                                     RewriteStats* stats) const {
  return impl_->Rewrite(cq, RewriteRequest{}, stats);
}

Result<UnionQuery> Rewriter::Rewrite(const ConjunctiveQuery& cq,
                                     const RewriteRequest& request,
                                     RewriteStats* stats) const {
  return impl_->Rewrite(cq, request, stats);
}

}  // namespace olite::query
