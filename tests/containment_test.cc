#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "dllite/ontology.h"
#include "query/containment.h"
#include "query/rewriter.h"

namespace olite::query {
namespace {

using dllite::Ontology;
using dllite::ParseOntology;

Ontology Fixture() {
  auto r = ParseOntology("concept A B\nrole P Q\nattribute u\n");
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

ConjunctiveQuery Q(const char* text, const dllite::Vocabulary& v) {
  auto r = ParseQuery(text, v);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(ContainmentTest, IdenticalQueriesContainEachOther) {
  Ontology onto = Fixture();
  auto q1 = Q("q(x) :- A(x)", onto.vocab());
  auto q2 = Q("q(x) :- A(x)", onto.vocab());
  EXPECT_TRUE(Contains(q1, q2));
  EXPECT_TRUE(Contains(q2, q1));
}

TEST(ContainmentTest, MoreAtomsIsMoreSpecific) {
  Ontology onto = Fixture();
  auto general = Q("q(x) :- P(x, y)", onto.vocab());
  auto specific = Q("q(x) :- P(x, y), A(y)", onto.vocab());
  EXPECT_TRUE(Contains(general, specific));
  EXPECT_FALSE(Contains(specific, general));
}

TEST(ContainmentTest, FoldingHomomorphism) {
  Ontology onto = Fixture();
  // The two-atom query folds onto the one-atom query (z ↦ x): they are
  // equivalent.
  auto folded = Q("q(x) :- P(x, y)", onto.vocab());
  auto redundant = Q("q(x) :- P(x, y), P(z, y)", onto.vocab());
  EXPECT_TRUE(Contains(redundant, folded));
  EXPECT_TRUE(Contains(folded, redundant));
}

TEST(ContainmentTest, HeadVariablesMustMapIdentically) {
  Ontology onto = Fixture();
  auto q1 = Q("q(x) :- P(x, y)", onto.vocab());
  auto q2 = Q("q(x) :- P(y, x)", onto.vocab());
  EXPECT_FALSE(Contains(q1, q2));
  EXPECT_FALSE(Contains(q2, q1));
  // Different head lists never contain each other.
  auto q3 = Q("q(x, y) :- P(x, y)", onto.vocab());
  EXPECT_FALSE(Contains(q1, q3));
}

TEST(ContainmentTest, ConstantsMustMatch) {
  Ontology onto = Fixture();
  auto with_const = Q("q(x) :- P(x, 'rome')", onto.vocab());
  auto with_var = Q("q(x) :- P(x, y)", onto.vocab());
  // Var version is more general.
  EXPECT_TRUE(Contains(with_var, with_const));
  EXPECT_FALSE(Contains(with_const, with_var));
}

TEST(ContainmentTest, DifferentPredicatesNeverContain) {
  Ontology onto = Fixture();
  auto qa = Q("q(x) :- A(x)", onto.vocab());
  auto qb = Q("q(x) :- B(x)", onto.vocab());
  EXPECT_FALSE(Contains(qa, qb));
  EXPECT_FALSE(Contains(qb, qa));
}

TEST(ContainmentTest, AttributeAtoms) {
  Ontology onto = Fixture();
  auto general = Q("q(x) :- u(x, v)", onto.vocab());
  auto specific = Q("q(x) :- u(x, v), u(x, w)", onto.vocab());
  EXPECT_TRUE(Contains(general, specific));
  EXPECT_TRUE(Contains(specific, general));  // folds w ↦ v
}

TEST(MinimizeUnionTest, DropsContainedDisjuncts) {
  Ontology onto = Fixture();
  UnionQuery ucq;
  ucq.disjuncts.push_back(Q("q(x) :- P(x, y)", onto.vocab()));
  ucq.disjuncts.push_back(Q("q(x) :- P(x, y), A(y)", onto.vocab()));  // ⊆ 1st
  ucq.disjuncts.push_back(Q("q(x) :- B(x)", onto.vocab()));
  MinimizeUnion(&ucq);
  ASSERT_EQ(ucq.disjuncts.size(), 2u);
}

TEST(MinimizeUnionTest, KeepsOneOfEquivalentGroup) {
  Ontology onto = Fixture();
  UnionQuery ucq;
  ucq.disjuncts.push_back(Q("q(x) :- P(x, y), P(z, y)", onto.vocab()));
  ucq.disjuncts.push_back(Q("q(x) :- P(x, y)", onto.vocab()));
  MinimizeUnion(&ucq);
  ASSERT_EQ(ucq.disjuncts.size(), 1u);
}

TEST(MinimizeUnionTest, RewriterPrunesReduceArtifacts) {
  auto parsed = ParseOntology(
      "concept Professor\nrole teaches\nProfessor <= exists teaches\n");
  ASSERT_TRUE(parsed.ok());
  const Ontology& onto = *parsed;
  RewriterOptions with, without;
  with.prune_subsumed = true;
  without.prune_subsumed = false;
  Rewriter pruned(onto.tbox(), onto.vocab(), with);
  Rewriter raw(onto.tbox(), onto.vocab(), without);
  auto cq = Q("q(x) :- teaches(x, y), teaches(z, y)", onto.vocab());
  auto a = pruned.Rewrite(cq);
  auto b = raw.Rewrite(cq);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // The reduce step makes the original two-atom disjunct redundant.
  EXPECT_LT(a->disjuncts.size(), b->disjuncts.size());
  EXPECT_EQ(a->disjuncts.size(), 2u);  // teaches(x,_) and Professor(x)
}

// A fixed oracle over the seeded vocabulary: ext(A) ⊆ ext(B), ext(P) ⊆
// ext(Q) and ext(u) ⊆ ext(v), as (kind, sub, sup) triples.
class TableOracle : public ConstraintOracle {
 public:
  explicit TableOracle(std::set<std::tuple<Atom::Kind, uint32_t, uint32_t>> in)
      : in_(std::move(in)) {}
  bool Included(Atom::Kind kind, uint32_t sub, uint32_t sup) const override {
    return in_.count({kind, sub, sup}) > 0;
  }
  bool IncludedInverse(Atom::Kind, uint32_t, uint32_t) const override {
    return false;
  }
  bool Empty(Atom::Kind, uint32_t) const override { return false; }

 private:
  std::set<std::tuple<Atom::Kind, uint32_t, uint32_t>> in_;
};

// A random disjunct q(x) over concepts A, B, C, roles P, Q and attributes
// u, v: one to three atoms on x, two existential variables and a constant.
ConjunctiveQuery RandomDisjunct(Rng* rng, const dllite::Vocabulary& v) {
  const std::vector<std::string> terms = {"x", "y", "z", "'c'"};
  auto term = [&] {
    const std::string& t = terms[rng->Uniform(terms.size())];
    return t[0] == '\'' ? Term::Const(t.substr(1, t.size() - 2))
                        : Term::Var(t);
  };
  ConjunctiveQuery q;
  q.head_vars = {"x"};
  const size_t atoms = 1 + rng->Uniform(3);
  for (size_t a = 0; a < atoms; ++a) {
    // The first atom mentions the head variable.
    Term first = a == 0 ? Term::Var("x") : term();
    switch (rng->Uniform(3)) {
      case 0: {
        const char* c = std::array{"A", "B", "C"}[rng->Uniform(3)];
        q.atoms.push_back(Atom::Concept(v.FindConcept(c).value(), first));
        break;
      }
      case 1: {
        const char* r = std::array{"P", "Q"}[rng->Uniform(2)];
        q.atoms.push_back(Atom::Role(v.FindRole(r).value(), first, term()));
        break;
      }
      default: {
        const char* u = std::array{"u", "v"}[rng->Uniform(2)];
        q.atoms.push_back(
            Atom::Attribute(v.FindAttribute(u).value(), first, term()));
        break;
      }
    }
  }
  return q;
}

// The predicate prefilter only skips pairs `Contains` rejects: on seeded
// unions, with and without a constraint oracle, and with the sweep cut
// short by a check cap, MinimizeUnion keeps exactly the disjuncts a plain
// nested `Contains` loop keeps, and counts the same checks.
TEST(MinimizeUnionTest, PrefilterKeepsTheNestedContainsLoopsVerdicts) {
  auto parsed = ParseOntology(
      "concept A B C\nrole P Q\nattribute u v\n");
  ASSERT_TRUE(parsed.ok());
  const dllite::Vocabulary& v = parsed->vocab();
  const TableOracle oracle(
      {{Atom::Kind::kConcept, v.FindConcept("A").value(),
        v.FindConcept("B").value()},
       {Atom::Kind::kRole, v.FindRole("P").value(), v.FindRole("Q").value()},
       {Atom::Kind::kAttribute, v.FindAttribute("u").value(),
        v.FindAttribute("v").value()}});
  // MinimizeUnion's sweep without the prefilter, stopped after `cap`
  // checks (0 = unlimited).
  auto reference = [](const UnionQuery& ucq,
                      const ConstraintOracle* constraints, uint64_t cap,
                      uint64_t* checks) {
    const size_t n = ucq.disjuncts.size();
    std::vector<bool> removed(n, false);
    ContainsOptions copts;
    copts.constraints = constraints;
    bool stop = false;
    for (size_t i = 0; i < n && !stop; ++i) {
      for (size_t j = 0; j < n && !removed[i]; ++j) {
        if (i == j || removed[j]) continue;
        if (cap != 0 && *checks >= cap) {
          stop = true;
          break;
        }
        ++*checks;
        removed[i] = Contains(ucq.disjuncts[j], ucq.disjuncts[i], copts);
      }
    }
    std::vector<ConjunctiveQuery> kept;
    for (size_t i = 0; i < n; ++i) {
      if (!removed[i]) kept.push_back(ucq.disjuncts[i]);
    }
    return kept;
  };
  size_t pruned = 0, constraint_pruned = 0, truncated = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    UnionQuery ucq;
    const size_t n = 2 + rng.Uniform(10);
    for (size_t i = 0; i < n; ++i) {
      ucq.disjuncts.push_back(RandomDisjunct(&rng, v));
    }
    for (const ConstraintOracle* constraints :
         {static_cast<const ConstraintOracle*>(nullptr),
          static_cast<const ConstraintOracle*>(&oracle)}) {
      for (uint64_t cap : {uint64_t{0}, uint64_t{n}}) {
        uint64_t checks = 0;
        const auto expected = reference(ucq, constraints, cap, &checks);
        UnionQuery got = ucq;
        MinimizeOptions mopts;
        mopts.constraints = constraints;
        mopts.max_checks = cap;
        MinimizeStats stats;
        MinimizeUnion(&got, mopts, &stats);
        EXPECT_EQ(got.disjuncts, expected)
            << "seed " << seed << (constraints ? " with" : " without")
            << " constraints, cap " << cap;
        EXPECT_EQ(stats.checks, checks) << "seed " << seed << ", cap " << cap;
        if (cap == 0) {
          EXPECT_TRUE(stats.complete);
          pruned += stats.removed;
          constraint_pruned += stats.constraint_removed;
        } else if (!stats.complete) {
          ++truncated;
        }
      }
    }
  }
  // The seeds exercise both kinds of pruning and the check cap.
  EXPECT_GT(pruned, constraint_pruned);
  EXPECT_GT(constraint_pruned, 0u);
  EXPECT_GT(truncated, 0u);
}

}  // namespace
}  // namespace olite::query
