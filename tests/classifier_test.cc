#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/classifier.h"
#include "core/deductive_closure.h"
#include "core/node_table.h"
#include "dllite/ontology.h"

namespace olite::core {
namespace {

using dllite::BasicConcept;
using dllite::BasicRole;
using dllite::Ontology;
using dllite::ParseOntology;

Ontology MustParse(const char* text) {
  auto r = ParseOntology(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// NodeTable
// ---------------------------------------------------------------------------

TEST(NodeTableTest, LayoutAndDecode) {
  dllite::Vocabulary v;
  auto a = v.InternConcept("A");
  auto b = v.InternConcept("B");
  auto p = v.InternRole("P");
  auto q = v.InternRole("Q");
  auto u = v.InternAttribute("u");
  NodeTable nt(v);

  EXPECT_EQ(nt.NumNodes(), 2u + 4 * 2u + 2 * 1u);
  EXPECT_EQ(nt.OfConcept(a), 0u);
  EXPECT_EQ(nt.OfConcept(b), 1u);
  EXPECT_EQ(nt.KindOf(nt.OfRole(BasicRole::Direct(p))), NodeKind::kRole);
  EXPECT_EQ(nt.KindOf(nt.OfRole(BasicRole::Inverse(q))), NodeKind::kRole);
  EXPECT_EQ(nt.KindOf(nt.OfExists(BasicRole::Direct(p))), NodeKind::kExists);
  EXPECT_EQ(nt.KindOf(nt.OfAttribute(u)), NodeKind::kAttribute);
  EXPECT_EQ(nt.KindOf(nt.OfAttrDomain(u)), NodeKind::kAttrDomain);

  // Round trips.
  EXPECT_EQ(nt.RoleOf(nt.OfRole(BasicRole::Inverse(q))),
            BasicRole::Inverse(q));
  EXPECT_EQ(nt.RoleOf(nt.OfExists(BasicRole::Inverse(p))),
            BasicRole::Inverse(p));
  EXPECT_EQ(nt.AttributeOf(nt.OfAttrDomain(u)), u);
  EXPECT_EQ(nt.BasicConceptOf(nt.OfExists(BasicRole::Direct(q))),
            BasicConcept::Exists(BasicRole::Direct(q)));
  EXPECT_TRUE(nt.IsConceptSorted(nt.OfConcept(a)));
  EXPECT_TRUE(nt.IsConceptSorted(nt.OfExists(BasicRole::Direct(p))));
  EXPECT_TRUE(nt.IsConceptSorted(nt.OfAttrDomain(u)));
  EXPECT_FALSE(nt.IsConceptSorted(nt.OfRole(BasicRole::Direct(p))));
  EXPECT_FALSE(nt.IsConceptSorted(nt.OfAttribute(u)));
}

TEST(NodeTableTest, NamesAreReadable) {
  dllite::Vocabulary v;
  v.InternConcept("Person");
  auto p = v.InternRole("knows");
  NodeTable nt(v);
  EXPECT_EQ(nt.NameOf(0, v), "Person");
  EXPECT_EQ(nt.NameOf(nt.OfExists(BasicRole::Inverse(p)), v),
            "exists knows-");
}

// ---------------------------------------------------------------------------
// Digraph construction (Definition 1)
// ---------------------------------------------------------------------------

TEST(TBoxGraphTest, ConceptInclusionMakesOneArc) {
  Ontology onto = MustParse("concept A B\nA <= B\n");
  TBoxGraph g = BuildTBoxGraph(onto.tbox(), onto.vocab());
  EXPECT_TRUE(g.digraph.HasArc(0, 1));
  EXPECT_EQ(g.digraph.NumArcs(), 1u);
}

TEST(TBoxGraphTest, RoleInclusionMakesFourArcs) {
  Ontology onto = MustParse("role P Q\nP <= Q\n");
  TBoxGraph g = BuildTBoxGraph(onto.tbox(), onto.vocab());
  const NodeTable& nt = g.nodes;
  auto p = BasicRole::Direct(0);
  auto q = BasicRole::Direct(1);
  EXPECT_TRUE(g.digraph.HasArc(nt.OfRole(p), nt.OfRole(q)));
  EXPECT_TRUE(
      g.digraph.HasArc(nt.OfRole(p.Inverted()), nt.OfRole(q.Inverted())));
  EXPECT_TRUE(g.digraph.HasArc(nt.OfExists(p), nt.OfExists(q)));
  EXPECT_TRUE(
      g.digraph.HasArc(nt.OfExists(p.Inverted()), nt.OfExists(q.Inverted())));
  EXPECT_EQ(g.digraph.NumArcs(), 4u);
}

TEST(TBoxGraphTest, QualifiedExistentialMakesDomainArcAndIndexEntry) {
  Ontology onto =
      MustParse("concept County State\nrole isPartOf\n"
                "County <= exists isPartOf . State\n");
  TBoxGraph g = BuildTBoxGraph(onto.tbox(), onto.vocab());
  const NodeTable& nt = g.nodes;
  EXPECT_TRUE(g.digraph.HasArc(nt.OfConcept(0),
                               nt.OfExists(BasicRole::Direct(0))));
  ASSERT_EQ(g.qualified_existentials.size(), 1u);
  EXPECT_EQ(g.qualified_existentials[0].filler, 1u);
  EXPECT_TRUE(g.negative_inclusions.empty());
}

TEST(TBoxGraphTest, NegativeInclusionsGoToSideIndex) {
  Ontology onto = MustParse("concept A B\nrole P Q\nA <= not B\nP <= not Q\n");
  TBoxGraph g = BuildTBoxGraph(onto.tbox(), onto.vocab());
  // Concept NI once; role NI recorded for both component pairs.
  EXPECT_EQ(g.negative_inclusions.size(), 3u);
  EXPECT_EQ(g.digraph.NumArcs(), 0u);
}

// ---------------------------------------------------------------------------
// Φ_T: subsumptions from positive inclusions (Theorem 1)
// ---------------------------------------------------------------------------

// One closure engine at one execution width: width 1 is the exact serial
// path, width 4 builds the closure on a pool.
struct EngineAtWidth {
  graph::ClosureEngine engine;
  unsigned threads;
};

std::string EngineAtWidthName(const EngineAtWidth& p) {
  std::string name = graph::ClosureEngineName(p.engine);
  if (p.threads > 1) name += "_w" + std::to_string(p.threads);
  return name;
}

void PrintTo(const EngineAtWidth& p, std::ostream* os) {
  *os << EngineAtWidthName(p);
}

class ClassifyEngineTest : public ::testing::TestWithParam<EngineAtWidth> {
 protected:
  ClassificationOptions Opts() const {
    ClassificationOptions o;
    o.engine = GetParam().engine;
    o.threads = GetParam().threads;
    return o;
  }
};

TEST_P(ClassifyEngineTest, TransitiveConceptChain) {
  Ontology onto = MustParse("concept A1 A2 A3\nA1 <= A2\nA2 <= A3\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  // The paper's introductory example: A1 ⊑ A3 is inferred.
  EXPECT_TRUE(cls.Entails(BasicConcept::Atomic(0), BasicConcept::Atomic(2)));
  EXPECT_FALSE(cls.Entails(BasicConcept::Atomic(2), BasicConcept::Atomic(0)));
  EXPECT_EQ(cls.SuperConcepts(0), (std::vector<dllite::ConceptId>{1, 2}));
  EXPECT_EQ(cls.SubConcepts(2), (std::vector<dllite::ConceptId>{0, 1}));
}

TEST_P(ClassifyEngineTest, RoleHierarchyPropagatesToDomains) {
  Ontology onto = MustParse(
      "concept A B\nrole P Q\nP <= Q\nexists Q <= A\nexists P- <= B\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  // ∃P ⊑ ∃Q ⊑ A.
  EXPECT_TRUE(cls.Entails(BasicConcept::Exists(BasicRole::Direct(0)),
                          BasicConcept::Atomic(0)));
  // Role subsumption itself.
  EXPECT_TRUE(cls.Entails(BasicRole::Direct(0), BasicRole::Direct(1)));
  EXPECT_TRUE(cls.Entails(BasicRole::Inverse(0), BasicRole::Inverse(1)));
  EXPECT_FALSE(cls.Entails(BasicRole::Direct(1), BasicRole::Direct(0)));
  // ∃Q⁻ is not constrained.
  EXPECT_FALSE(cls.Entails(BasicConcept::Exists(BasicRole::Inverse(1)),
                           BasicConcept::Atomic(1)));
  EXPECT_EQ(cls.SuperRoles(0), (std::vector<dllite::RoleId>{1}));
  EXPECT_TRUE(cls.SuperRoles(1).empty());
}

TEST_P(ClassifyEngineTest, EquivalentConceptsViaCycle) {
  Ontology onto = MustParse("concept A B C\nA <= B\nB <= A\nB <= C\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  EXPECT_TRUE(cls.Entails(BasicConcept::Atomic(0), BasicConcept::Atomic(1)));
  EXPECT_TRUE(cls.Entails(BasicConcept::Atomic(1), BasicConcept::Atomic(0)));
  EXPECT_TRUE(cls.Entails(BasicConcept::Atomic(0), BasicConcept::Atomic(2)));
  EXPECT_FALSE(cls.Entails(BasicConcept::Atomic(2), BasicConcept::Atomic(0)));
}

TEST_P(ClassifyEngineTest, AttributeHierarchy) {
  Ontology onto = MustParse(
      "concept A\nattribute u w\nu <= w\ndelta(w) <= A\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  EXPECT_TRUE(cls.EntailsAttribute(0, 1));
  EXPECT_FALSE(cls.EntailsAttribute(1, 0));
  // δ(u) ⊑ δ(w) ⊑ A.
  EXPECT_TRUE(cls.Entails(BasicConcept::AttrDomain(0),
                          BasicConcept::Atomic(0)));
  EXPECT_EQ(cls.SuperAttributes(0), (std::vector<dllite::AttributeId>{1}));
}

TEST_P(ClassifyEngineTest, QualifiedExistentialGivesUnqualifiedDomain) {
  Ontology onto = MustParse(
      "concept County State Region\nrole isPartOf\n"
      "County <= exists isPartOf . State\n"
      "exists isPartOf <= Region\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  // County ⊑ ∃isPartOf ⊑ Region.
  EXPECT_TRUE(cls.Entails(BasicConcept::Atomic(0), BasicConcept::Atomic(2)));
}

// ---------------------------------------------------------------------------
// Ω_T: computeUnsat
// ---------------------------------------------------------------------------

TEST_P(ClassifyEngineTest, DirectContradictionIsUnsat) {
  Ontology onto = MustParse("concept A B C\nA <= B\nA <= C\nB <= not C\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Atomic(0)));
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicConcept::Atomic(1)));
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicConcept::Atomic(2)));
  EXPECT_EQ(cls.UnsatisfiableConcepts(), (std::vector<dllite::ConceptId>{0}));
  // Ω_T: the unsatisfiable A is classified under everything.
  EXPECT_EQ(cls.SuperConcepts(0), (std::vector<dllite::ConceptId>{1, 2}));
  EXPECT_TRUE(cls.Entails(BasicConcept::Atomic(0), BasicConcept::Atomic(1)));
}

TEST_P(ClassifyEngineTest, SelfDisjointConceptIsUnsat) {
  Ontology onto = MustParse("concept A B\nB <= A\nA <= not A\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Atomic(0)));
  // Subsumees of an unsatisfiable concept are unsatisfiable.
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Atomic(1)));
}

TEST_P(ClassifyEngineTest, UnsatRolePropagatesToComponents) {
  Ontology onto = MustParse("concept A\nrole P Q\nP <= Q\nP <= not Q\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicRole::Direct(0)));
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicRole::Inverse(0)));
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Exists(BasicRole::Direct(0))));
  EXPECT_TRUE(
      cls.IsUnsatisfiable(BasicConcept::Exists(BasicRole::Inverse(0))));
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicRole::Direct(1)));
  EXPECT_EQ(cls.UnsatisfiableRoles(), (std::vector<dllite::RoleId>{0}));
}

TEST_P(ClassifyEngineTest, EmptyDomainEmptiesRole) {
  Ontology onto = MustParse(
      "concept A\nrole P\nexists P <= A\nexists P <= not A\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Exists(BasicRole::Direct(0))));
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicRole::Direct(0)));
  EXPECT_TRUE(
      cls.IsUnsatisfiable(BasicConcept::Exists(BasicRole::Inverse(0))));
}

TEST_P(ClassifyEngineTest, UnsatFillerEmptiesQualifiedLhs) {
  Ontology onto = MustParse(
      "concept A B C\nrole P\n"
      "B <= C\nB <= not C\n"        // B is unsatisfiable
      "A <= exists P . B\n");       // hence A is too
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Atomic(1)));
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Atomic(0)));
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicConcept::Atomic(2)));
}

TEST_P(ClassifyEngineTest, UnsatRoleInQualifiedExistentialEmptiesLhs) {
  Ontology onto = MustParse(
      "concept A B\nrole P\n"
      "P <= not P\n"              // P is unsatisfiable
      "A <= exists P . B\n");     // hence A is too
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicRole::Direct(0)));
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Atomic(0)));
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicConcept::Atomic(1)));
}

TEST_P(ClassifyEngineTest, UnsatAttributePropagatesToDomain) {
  Ontology onto = MustParse(
      "concept A\nattribute u w\nu <= w\nu <= not w\ndelta(u) <= A\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  EXPECT_EQ(cls.UnsatisfiableAttributes(),
            (std::vector<dllite::AttributeId>{0}));
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::AttrDomain(0)));
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicConcept::Atomic(0)));
}

TEST_P(ClassifyEngineTest, QualifiedSuccessorConflictDetected) {
  // B ⊑ ∃P.F with range(P) ⊑ R and the successor's memberships F, R
  // having disjoint ancestors: the anonymous successor is contradictory,
  // so B is unsatisfiable (the paper's "remaining challenge" case).
  Ontology onto = MustParse(
      "concept B F R X Y\nrole P\n"
      "F <= X\nR <= Y\nX <= not Y\n"
      "exists P- <= R\n"
      "B <= exists P . F\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  auto b = onto.vocab().FindConcept("B").value();
  EXPECT_TRUE(cls.IsUnsatisfiable(BasicConcept::Atomic(b)));
  // Neither the filler nor the range class is unsatisfiable themselves.
  EXPECT_FALSE(cls.IsUnsatisfiable(
      BasicConcept::Atomic(onto.vocab().FindConcept("F").value())));
  EXPECT_FALSE(cls.IsUnsatisfiable(
      BasicConcept::Atomic(onto.vocab().FindConcept("R").value())));
}

TEST_P(ClassifyEngineTest, QualifiedSuccessorViaSuperRoleRange) {
  // The range constraint sits on a super-role of the qualified one.
  Ontology onto = MustParse(
      "concept B F R\nrole P Q\n"
      "P <= Q\n"
      "exists Q- <= R\n"
      "F <= not R\n"
      "B <= exists P . F\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  EXPECT_TRUE(cls.IsUnsatisfiable(
      BasicConcept::Atomic(onto.vocab().FindConcept("B").value())));
}

TEST_P(ClassifyEngineTest, QualifiedSuccessorCompatibleFillerIsFine) {
  Ontology onto = MustParse(
      "concept B F R\nrole P\n"
      "exists P- <= R\n"
      "B <= exists P . F\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  EXPECT_TRUE(cls.UnsatisfiableConcepts().empty());
}

TEST_P(ClassifyEngineTest, QualifiedSuccessorNoCrossNiFalsePositive) {
  // The successor's seeds F and ∃P⁻ reach the lhs side of X ⊑ ¬Y and the
  // rhs side of Z ⊑ ¬W, but both sides of neither: B stays satisfiable.
  Ontology onto = MustParse(
      "concept B F X Y Z W\nrole P\n"
      "F <= X\nX <= not Y\n"
      "exists P- <= W\nZ <= not W\n"
      "B <= exists P . F\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  EXPECT_TRUE(cls.UnsatisfiableConcepts().empty());
  EXPECT_TRUE(cls.UnsatisfiableRoles().empty());
}

TEST_P(ClassifyEngineTest, QualifiedSuccessorViaSuperRoleTwoUp) {
  // The range constraint sits two role inclusions above the qualified
  // role: P ⊑ Q ⊑ R with ∃R⁻ ⊑ S and F ⊑ ¬S.
  Ontology onto = MustParse(
      "concept B F S\nrole P Q R\n"
      "P <= Q\nQ <= R\n"
      "exists R- <= S\n"
      "F <= not S\n"
      "B <= exists P . F\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  const auto& v = onto.vocab();
  EXPECT_EQ(cls.UnsatisfiableConcepts(),
            std::vector<dllite::ConceptId>{v.FindConcept("B").value()});
  EXPECT_TRUE(cls.UnsatisfiableRoles().empty());
}

TEST_P(ClassifyEngineTest, UnsatPropagatesThroughCycleAndChain) {
  // C is unsatisfiable through its qualified existential, not through an
  // NI intersection, so only the predecessor rule reaches B (on a cycle
  // with C) and A (below both).
  Ontology onto = MustParse(
      "concept A B C F G\nrole P\n"
      "A <= B\nB <= C\nC <= B\n"
      "C <= exists P . F\nF <= G\nF <= not G\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  const auto& v = onto.vocab();
  EXPECT_EQ(cls.UnsatisfiableConcepts(),
            (std::vector<dllite::ConceptId>{v.FindConcept("A").value(),
                                            v.FindConcept("B").value(),
                                            v.FindConcept("C").value(),
                                            v.FindConcept("F").value()}));
}

TEST_P(ClassifyEngineTest, DisjointRolesAloneCauseNoUnsat) {
  // Disjoint roles do NOT make their domains disjoint or empty.
  Ontology onto = MustParse("role P Q\nP <= not Q\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicRole::Direct(0)));
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicRole::Direct(1)));
  EXPECT_FALSE(
      cls.IsUnsatisfiable(BasicConcept::Exists(BasicRole::Direct(0))));
}

TEST_P(ClassifyEngineTest, SkippingUnsatStepLeavesPhiOnly) {
  Ontology onto = MustParse("concept A B C\nA <= B\nA <= not B\n");
  ClassificationOptions opts = Opts();
  opts.compute_unsat = false;
  Classification cls = Classify(onto.tbox(), onto.vocab(), opts);
  EXPECT_FALSE(cls.IsUnsatisfiable(BasicConcept::Atomic(0)));
  EXPECT_TRUE(cls.Entails(BasicConcept::Atomic(0), BasicConcept::Atomic(1)));
  // Without Ω_T, A ⊑ C is missed (A is actually unsatisfiable).
  EXPECT_FALSE(cls.Entails(BasicConcept::Atomic(0), BasicConcept::Atomic(2)));
}

TEST_P(ClassifyEngineTest, StatsAreFilled) {
  Ontology onto = MustParse("concept A B\nrole P\nA <= B\nA <= not B\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  const auto& st = cls.stats();
  EXPECT_EQ(st.num_nodes, 2u + 4u);
  EXPECT_EQ(st.num_graph_arcs, 1u);
  EXPECT_GT(st.num_unsat_nodes, 0u);
  EXPECT_GE(st.TotalMillis(), 0.0);
}

TEST_P(ClassifyEngineTest, CountNamedSubsumptions) {
  Ontology onto = MustParse("concept A B C\nrole P Q\nA <= B\nB <= C\nP <= Q\n");
  Classification cls = Classify(onto.tbox(), onto.vocab(), Opts());
  // A⊑B, A⊑C, B⊑C plus P⊑Q.
  EXPECT_EQ(cls.CountNamedSubsumptions(), 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ClassifyEngineTest,
    ::testing::Values(EngineAtWidth{graph::ClosureEngine::kBfs, 1},
                      EngineAtWidth{graph::ClosureEngine::kSccMerge, 1},
                      EngineAtWidth{graph::ClosureEngine::kBfs, 4},
                      EngineAtWidth{graph::ClosureEngine::kSccMerge, 4}),
    [](const auto& pinfo) { return EngineAtWidthName(pinfo.param); });

// ---------------------------------------------------------------------------
// Deductive closure
// ---------------------------------------------------------------------------

TEST(DeductiveClosureTest, BasicPositives) {
  Ontology onto = MustParse("concept A B C\nA <= B\nB <= C\n");
  dllite::TBox closure = DeductiveClosure(onto.tbox(), onto.vocab());
  // A⊑B, B⊑C, A⊑C.
  EXPECT_EQ(closure.concept_inclusions().size(), 3u);
}

TEST(DeductiveClosureTest, RoleClosureIncludesInverseForms) {
  Ontology onto = MustParse("role P Q R\nP <= Q\nQ <= R\n");
  dllite::TBox closure = DeductiveClosure(onto.tbox(), onto.vocab());
  // {P⊑Q, Q⊑R, P⊑R} in both direct and inverse component forms.
  EXPECT_EQ(closure.role_inclusions().size(), 6u);
}

TEST(DeductiveClosureTest, NegativeClosurePropagatesUpward) {
  Ontology onto = MustParse("concept A B C\nA <= B\nB <= not C\n");
  DeductiveClosureOptions opts;
  opts.positive_basic = false;
  opts.qualified_existentials = false;
  dllite::TBox closure = DeductiveClosure(onto.tbox(), onto.vocab(), opts);
  // B ⊑ ¬C, C ⊑ ¬B, A ⊑ ¬C, C ⊑ ¬A.
  EXPECT_EQ(closure.concept_inclusions().size(), 4u);
  for (const auto& ax : closure.concept_inclusions()) {
    EXPECT_EQ(ax.rhs.kind, dllite::RhsConceptKind::kNegatedBasic);
  }
}

TEST(DeductiveClosureTest, QualifiedExistentialConsequences) {
  Ontology onto = MustParse(
      "concept A B State Region\nrole P Q\n"
      "A <= B\nState <= Region\nP <= Q\n"
      "B <= exists P . State\n");
  DeductiveClosureOptions opts;
  opts.positive_basic = false;
  opts.negative = false;
  dllite::TBox closure = DeductiveClosure(onto.tbox(), onto.vocab(), opts);
  // Expected QE consequences include A ⊑ ∃P.State, A ⊑ ∃Q.Region, etc.
  auto contains = [&](const char* lhs, const char* role, bool inv,
                      const char* filler) {
    auto a = onto.vocab().FindConcept(lhs).value();
    auto p = onto.vocab().FindRole(role).value();
    auto f = onto.vocab().FindConcept(filler).value();
    for (const auto& ax : closure.concept_inclusions()) {
      if (ax.lhs == BasicConcept::Atomic(a) &&
          ax.rhs.kind == dllite::RhsConceptKind::kQualifiedExists &&
          ax.rhs.role == dllite::BasicRole{p, inv} && ax.rhs.filler == f) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(contains("B", "P", false, "State"));
  EXPECT_TRUE(contains("A", "P", false, "State"));
  EXPECT_TRUE(contains("A", "Q", false, "Region"));
  EXPECT_TRUE(contains("B", "Q", false, "State"));
  EXPECT_FALSE(contains("State", "P", false, "State"));
  EXPECT_FALSE(contains("A", "P", true, "State"));
}

// ---------------------------------------------------------------------------
// Parallel classification determinism
// ---------------------------------------------------------------------------

// Random DL-Lite_R TBox with atomic/existential inclusions, role
// hierarchy arcs and a sprinkling of disjointness (⇒ unsat predicates).
dllite::Ontology RandomOntology(uint64_t seed) {
  Rng rng(seed);
  dllite::Ontology onto;
  const uint32_t nc = 50, nr = 8;
  for (uint32_t i = 0; i < nc; ++i) {
    onto.vocab().InternConcept("C" + std::to_string(i));
  }
  for (uint32_t i = 0; i < nr; ++i) {
    onto.vocab().InternRole("P" + std::to_string(i));
  }
  auto random_basic = [&] {
    if (rng.Uniform(4) == 0) {
      auto q = dllite::BasicRole{static_cast<dllite::RoleId>(rng.Uniform(nr)),
                                 rng.Uniform(2) == 0};
      return BasicConcept::Exists(q);
    }
    return BasicConcept::Atomic(static_cast<dllite::ConceptId>(rng.Uniform(nc)));
  };
  for (int i = 0; i < 120; ++i) {
    onto.tbox().AddConceptInclusion(
        {random_basic(), dllite::RhsConcept::Positive(random_basic())});
  }
  for (int i = 0; i < 8; ++i) {
    onto.tbox().AddConceptInclusion(
        {random_basic(), dllite::RhsConcept::Negated(random_basic())});
  }
  for (int i = 0; i < 12; ++i) {
    auto q1 = dllite::BasicRole{static_cast<dllite::RoleId>(rng.Uniform(nr)),
                                rng.Uniform(2) == 0};
    auto q2 = dllite::BasicRole{static_cast<dllite::RoleId>(rng.Uniform(nr)),
                                rng.Uniform(2) == 0};
    onto.tbox().AddRoleInclusion({q1, q2, /*negated=*/false});
  }
  return onto;
}

TEST(ClassifierParallelTest, IdenticalResultsAtEveryWidth) {
  const graph::ClosureEngine kEngines[] = {graph::ClosureEngine::kBfs,
                                           graph::ClosureEngine::kSccMerge};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    dllite::Ontology onto = RandomOntology(seed);
    for (graph::ClosureEngine engine : kEngines) {
      ClassificationOptions serial_opts;
      serial_opts.engine = engine;
      serial_opts.threads = 1;
      Classification serial = Classify(onto.tbox(), onto.vocab(), serial_opts);
      const uint64_t serial_count = serial.CountNamedSubsumptions();
      // "What is below x" is an on-demand view over the transposed digraph;
      // it must agree with a materialised reverse closure, node by node and
      // through SubConcepts (which adds every unsatisfiable concept).
      const NodeTable& nt = serial.tbox_graph().nodes;
      auto materialised = graph::ComputeClosure(
          serial.tbox_graph().digraph.Reversed(), engine);
      for (graph::NodeId v = 0; v < nt.NumNodes(); ++v) {
        ASSERT_EQ(serial.reverse_closure().ReachableFrom(v),
                  materialised->ReachableFrom(v))
            << "seed " << seed << " node " << v;
      }
      for (uint32_t a = 0; a < onto.vocab().NumConcepts(); ++a) {
        std::vector<dllite::ConceptId> want;
        for (graph::NodeId v : materialised->ReachableFrom(nt.OfConcept(a))) {
          if (nt.KindOf(v) == NodeKind::kConcept) {
            want.push_back(nt.ConceptOf(v));
          }
        }
        for (dllite::ConceptId c : serial.UnsatisfiableConcepts()) {
          want.push_back(c);
        }
        std::sort(want.begin(), want.end());
        want.erase(std::unique(want.begin(), want.end()), want.end());
        want.erase(std::remove(want.begin(), want.end(), a), want.end());
        ASSERT_EQ(serial.SubConcepts(a), want)
            << "seed " << seed << " concept " << a;
      }
      for (unsigned width : {2u, 8u}) {
        ClassificationOptions opts;
        opts.engine = engine;
        opts.threads = width;
        Classification par = Classify(onto.tbox(), onto.vocab(), opts);
        EXPECT_EQ(par.stats().num_closure_arcs, serial.stats().num_closure_arcs);
        EXPECT_EQ(par.stats().num_unsat_nodes, serial.stats().num_unsat_nodes);
        EXPECT_EQ(par.CountNamedSubsumptions(), serial_count);
        ThreadPool pool(width);
        EXPECT_EQ(par.CountNamedSubsumptions(&pool), serial_count);
        for (uint32_t a = 0; a < onto.vocab().NumConcepts(); ++a) {
          ASSERT_EQ(par.SuperConcepts(a), serial.SuperConcepts(a))
              << "seed " << seed << " width " << width << " concept " << a;
        }
        EXPECT_EQ(par.UnsatisfiableConcepts(), serial.UnsatisfiableConcepts());
        EXPECT_EQ(par.UnsatisfiableRoles(), serial.UnsatisfiableRoles());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// RefreshClassification: incremental maintenance from a base classification
// ---------------------------------------------------------------------------

// `RefreshClassification`'s contract is exact equality with a from-scratch
// `Classify` of the edited TBox, whatever internal path it took.
void ExpectSameClassification(const Classification& got,
                              const dllite::Ontology& onto) {
  Classification want = Classify(onto.tbox(), onto.vocab());
  const auto& vocab = onto.vocab();
  for (size_t a = 0; a < vocab.NumConcepts(); ++a) {
    const auto id = static_cast<dllite::ConceptId>(a);
    EXPECT_EQ(got.SuperConcepts(id), want.SuperConcepts(id))
        << vocab.ConceptName(id);
    EXPECT_EQ(got.SubConcepts(id), want.SubConcepts(id))
        << vocab.ConceptName(id);
  }
  for (size_t p = 0; p < vocab.NumRoles(); ++p) {
    const auto id = static_cast<dllite::RoleId>(p);
    EXPECT_EQ(got.SuperRoles(id), want.SuperRoles(id)) << vocab.RoleName(id);
  }
  for (size_t u = 0; u < vocab.NumAttributes(); ++u) {
    const auto id = static_cast<dllite::AttributeId>(u);
    EXPECT_EQ(got.SuperAttributes(id), want.SuperAttributes(id))
        << vocab.AttributeName(id);
  }
  EXPECT_EQ(got.UnsatisfiableConcepts(), want.UnsatisfiableConcepts());
  EXPECT_EQ(got.UnsatisfiableRoles(), want.UnsatisfiableRoles());
  EXPECT_EQ(got.UnsatisfiableAttributes(), want.UnsatisfiableAttributes());
  EXPECT_EQ(got.CountNamedSubsumptions(), want.CountNamedSubsumptions());
}

// The patch tests below declare idle concepts I0..I11 that no axiom
// mentions: they keep each edit's dirty nodes within the refresh's
// fallback fraction (a quarter of the nodes), so the edit is patched
// rather than re-classified from scratch.

TEST(RefreshClassificationTest, AdditionPatchesInPlace) {
  Ontology base = MustParse(
      "concept A B C D I0 I1 I2 I3 I4 I5 I6 I7 I8 I9 I10 I11\nrole P\n"
      "A <= B\nB <= C\n");
  Ontology next = MustParse(
      "concept A B C D I0 I1 I2 I3 I4 I5 I6 I7 I8 I9 I10 I11\nrole P\n"
      "A <= B\nB <= C\nC <= D\n");
  Classification cls = Classify(base.tbox(), base.vocab());

  RefreshStats stats;
  Classification refreshed =
      RefreshClassification(cls, next.tbox(), next.vocab(), &stats);
  EXPECT_FALSE(stats.fell_back_scratch);
  EXPECT_GT(stats.patched_nodes, 0u);
  ExpectSameClassification(refreshed, next);
  // A, B and C all gained D as a superclass.
  EXPECT_EQ(refreshed.SuperConcepts(0),
            (std::vector<dllite::ConceptId>{1, 2, 3}));
}

TEST(RefreshClassificationTest, RemovalDropsStaleSubsumptions) {
  Ontology base = MustParse(
      "concept A B C D I0 I1 I2 I3 I4 I5 I6 I7 I8 I9 I10 I11\nrole P\n"
      "A <= B\nB <= C\nC <= D\n");
  Ontology next = MustParse(
      "concept A B C D I0 I1 I2 I3 I4 I5 I6 I7 I8 I9 I10 I11\nrole P\n"
      "A <= B\nC <= D\n");
  Classification cls = Classify(base.tbox(), base.vocab());

  RefreshStats stats;
  Classification refreshed =
      RefreshClassification(cls, next.tbox(), next.vocab(), &stats);
  EXPECT_FALSE(stats.fell_back_scratch);
  ExpectSameClassification(refreshed, next);
  EXPECT_EQ(refreshed.SuperConcepts(0),
            (std::vector<dllite::ConceptId>{1}));  // A <= B only
}

TEST(RefreshClassificationTest, RemovalRepairsUnsatisfiability) {
  // A is unsatisfiable in the base (A <= B, A <= C, B <= not C); dropping
  // A <= C must clear the Ω_T contribution through the patched closures.
  Ontology base = MustParse(
      "concept A B C I0 I1 I2 I3 I4 I5 I6 I7 I8 I9 I10 I11\n"
      "A <= B\nA <= C\nB <= not C\n");
  Ontology next = MustParse(
      "concept A B C I0 I1 I2 I3 I4 I5 I6 I7 I8 I9 I10 I11\n"
      "A <= B\nB <= not C\n");
  Classification cls = Classify(base.tbox(), base.vocab());
  ASSERT_EQ(cls.UnsatisfiableConcepts(),
            (std::vector<dllite::ConceptId>{0}));

  RefreshStats stats;
  Classification refreshed =
      RefreshClassification(cls, next.tbox(), next.vocab(), &stats);
  EXPECT_FALSE(stats.fell_back_scratch);
  ExpectSameClassification(refreshed, next);
  EXPECT_TRUE(refreshed.UnsatisfiableConcepts().empty());
}

TEST(RefreshClassificationTest, CycleEditsStayExact) {
  // Equivalence cycle A = B = C (via inclusions); the edit breaks the
  // cycle — the DRed over-delete/re-derive path over a genuine SCC.
  Ontology base = MustParse(
      "concept A B C D I0 I1 I2 I3 I4 I5 I6 I7 I8 I9 I10 I11\n"
      "A <= B\nB <= C\nC <= A\nC <= D\n");
  Ontology next = MustParse(
      "concept A B C D I0 I1 I2 I3 I4 I5 I6 I7 I8 I9 I10 I11\n"
      "A <= B\nC <= A\nC <= D\n");
  Classification cls = Classify(base.tbox(), base.vocab());
  ASSERT_EQ(cls.SuperConcepts(0), (std::vector<dllite::ConceptId>{1, 2, 3}));

  RefreshStats stats;
  Classification refreshed =
      RefreshClassification(cls, next.tbox(), next.vocab(), &stats);
  EXPECT_FALSE(stats.fell_back_scratch);
  ExpectSameClassification(refreshed, next);
  EXPECT_EQ(refreshed.SuperConcepts(0), (std::vector<dllite::ConceptId>{1}));
}

TEST(RefreshClassificationTest, LayoutShiftFallsBackToScratch) {
  Ontology base = MustParse(
      "concept A B I0 I1 I2 I3 I4 I5 I6 I7 I8 I9 I10 I11\nrole P\n"
      "A <= B\n");
  // One more concept: every role node id shifts, so the refresh must not
  // attempt a patch. The edit dirties few enough nodes that only the
  // layout check, not the fallback fraction, can send it to scratch.
  Ontology next = MustParse(
      "concept A B I0 I1 I2 I3 I4 I5 I6 I7 I8 I9 I10 I11 C\nrole P\n"
      "A <= B\nB <= C\n");
  Classification cls = Classify(base.tbox(), base.vocab());

  RefreshStats stats;
  Classification refreshed =
      RefreshClassification(cls, next.tbox(), next.vocab(), &stats);
  EXPECT_TRUE(stats.fell_back_scratch);
  ExpectSameClassification(refreshed, next);
}

TEST(RefreshClassificationTest, VocabularyGrowthReportsEveryNodePatched) {
  // A grown vocabulary takes the early scratch route, although the new
  // role's four nodes are few enough to patch by fraction; like a
  // fallback by fraction, it re-derives every node and must report them
  // all.
  Ontology base = MustParse(
      "concept A B I0 I1 I2 I3 I4 I5 I6 I7 I8 I9 I10 I11\nrole P\n"
      "A <= B\n");
  Ontology next = MustParse(
      "concept A B I0 I1 I2 I3 I4 I5 I6 I7 I8 I9 I10 I11\nrole P Q\n"
      "A <= B\nQ <= P\n");
  Classification cls = Classify(base.tbox(), base.vocab());

  RefreshStats stats;
  Classification refreshed =
      RefreshClassification(cls, next.tbox(), next.vocab(), &stats);
  EXPECT_TRUE(stats.fell_back_scratch);
  EXPECT_EQ(stats.patched_nodes, refreshed.tbox_graph().nodes.NumNodes());
  EXPECT_GT(stats.patched_nodes, cls.tbox_graph().nodes.NumNodes());
  EXPECT_EQ(stats.reused_components, 0u);
  ExpectSameClassification(refreshed, next);
}

TEST(RefreshClassificationTest, DefaultClassifyBaseIsPatched) {
  Ontology base = MustParse("concept A B C D E\nA <= B\nB <= C\n");
  Ontology next = MustParse("concept A B C D E\nA <= B\nB <= C\nD <= E\n");
  // Default options: the one SCC engine, whose closure is patchable.
  Classification cls = Classify(base.tbox(), base.vocab());

  RefreshStats stats;
  Classification refreshed =
      RefreshClassification(cls, next.tbox(), next.vocab(), &stats);
  EXPECT_FALSE(stats.fell_back_scratch);
  EXPECT_GT(stats.reused_components, 0u);
  ExpectSameClassification(refreshed, next);
}

TEST(RefreshClassificationTest, NonPatchableBaseFallsBackToScratch) {
  Ontology base = MustParse("concept A B C\nA <= B\n");
  Ontology next = MustParse("concept A B C\nA <= B\nB <= C\n");
  // The BFS engine's closure is not a DynamicClosure, so the refresh
  // cannot patch it.
  ClassificationOptions bfs;
  bfs.engine = graph::ClosureEngine::kBfs;
  Classification cls = Classify(base.tbox(), base.vocab(), bfs);

  RefreshStats stats;
  Classification refreshed =
      RefreshClassification(cls, next.tbox(), next.vocab(), &stats);
  EXPECT_TRUE(stats.fell_back_scratch);
  EXPECT_EQ(stats.patched_nodes, refreshed.tbox_graph().nodes.NumNodes());
  ExpectSameClassification(refreshed, next);
}

TEST(RefreshClassificationTest, LargeDeltaFallsBackByFraction) {
  Ontology base = MustParse("concept A B C D E F\nA <= B\n");
  // The subsumers of A..D change: 4 dirty nodes of 6 is past the
  // fallback fraction, so the refresh takes the scratch path.
  Ontology next = MustParse(
      "concept A B C D E F\nA <= B\nB <= C\nC <= D\nD <= A\n");
  Classification cls = Classify(base.tbox(), base.vocab());

  RefreshStats stats;
  Classification refreshed =
      RefreshClassification(cls, next.tbox(), next.vocab(), &stats);
  EXPECT_TRUE(stats.fell_back_scratch);
  ExpectSameClassification(refreshed, next);
  // The fallback classifies with the default engine, so the *next* delta
  // (1 dirty node of 6) can patch again.
  Ontology after = MustParse(
      "concept A B C D E F\nA <= B\nB <= C\nC <= D\nD <= A\nE <= F\n");
  RefreshStats again;
  Classification chained =
      RefreshClassification(refreshed, after.tbox(), after.vocab(), &again);
  EXPECT_FALSE(again.fell_back_scratch);
  ExpectSameClassification(chained, after);
}

}  // namespace
}  // namespace olite::core
