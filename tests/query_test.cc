#include <gtest/gtest.h>

#include <algorithm>

#include "dllite/ontology.h"
#include "query/cq.h"
#include "query/fingerprint.h"
#include "query/rewriter.h"

namespace olite::query {
namespace {

using dllite::Ontology;
using dllite::ParseOntology;

Ontology MustParse(const char* text) {
  auto r = ParseOntology(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

ConjunctiveQuery MustQuery(const char* text, const dllite::Vocabulary& v) {
  auto r = ParseQuery(text, v);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

bool ContainsDisjunct(const UnionQuery& ucq, const std::string& rendered,
                      const dllite::Vocabulary& v) {
  for (const auto& d : ucq.disjuncts) {
    if (d.ToString(v) == rendered) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// CQ model and parser
// ---------------------------------------------------------------------------

TEST(CqTest, ParseAndRender) {
  Ontology onto = MustParse(
      "concept Person\nrole knows\nattribute age\n");
  ConjunctiveQuery cq = MustQuery(
      "q(x) :- Person(x), knows(x, y), age(x, 42)", onto.vocab());
  EXPECT_EQ(cq.head_vars, (std::vector<std::string>{"x"}));
  ASSERT_EQ(cq.atoms.size(), 3u);
  EXPECT_EQ(cq.atoms[2].kind, Atom::Kind::kAttribute);
  EXPECT_EQ(cq.atoms[2].args[1], Term::Const("42"));
  EXPECT_EQ(cq.ToString(onto.vocab()),
            "q(x) :- Person(x), knows(x, y), age(x, '42')");
}

TEST(CqTest, BoundAndUnboundVariables) {
  Ontology onto = MustParse("concept A\nrole P\n");
  ConjunctiveQuery cq = MustQuery("q(x) :- P(x, y), A(z)", onto.vocab());
  EXPECT_TRUE(cq.IsBoundVar("x"));    // distinguished
  EXPECT_FALSE(cq.IsBoundVar("y"));   // single occurrence
  EXPECT_FALSE(cq.IsBoundVar("z"));
  ConjunctiveQuery cq2 = MustQuery("q() :- P(x, y), A(y)", onto.vocab());
  EXPECT_TRUE(cq2.IsBoundVar("y"));   // shared
}

// ---------------------------------------------------------------------------
// Canonical fingerprint (plan-cache key)
// ---------------------------------------------------------------------------

TEST(FingerprintTest, AlphaRenamingIsInvariant) {
  Ontology onto = MustParse("concept Person\nrole knows\nattribute age\n");
  QueryFingerprint a = CanonicalFingerprint(
      MustQuery("q(x) :- Person(x), knows(x, y)", onto.vocab()));
  QueryFingerprint b = CanonicalFingerprint(
      MustQuery("q(u) :- Person(u), knows(u, w)", onto.vocab()));
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.hash, b.hash);
}

TEST(FingerprintTest, AtomOrderIsInvariantForHeadOnlyJoins) {
  Ontology onto = MustParse("concept Person\nrole knows\n");
  QueryFingerprint a = CanonicalFingerprint(
      MustQuery("q(x, y) :- Person(x), knows(x, y)", onto.vocab()));
  QueryFingerprint b = CanonicalFingerprint(
      MustQuery("q(x, y) :- knows(x, y), Person(x)", onto.vocab()));
  EXPECT_EQ(a.key, b.key);
}

TEST(FingerprintTest, DistinguishesHeadRepetitionAndArity) {
  Ontology onto = MustParse("role knows\n");
  QueryFingerprint xy = CanonicalFingerprint(
      MustQuery("q(x, y) :- knows(x, y)", onto.vocab()));
  QueryFingerprint xx = CanonicalFingerprint(
      MustQuery("q(x, x) :- knows(x, x)", onto.vocab()));
  QueryFingerprint boolean = CanonicalFingerprint(
      MustQuery("q() :- knows(x, y)", onto.vocab()));
  EXPECT_NE(xy.key, xx.key);
  EXPECT_NE(xy.key, boolean.key);
  EXPECT_NE(xx.key, boolean.key);
}

TEST(FingerprintTest, DistinguishesPredicatesAndConstants) {
  Ontology onto = MustParse("concept A\nconcept B\nattribute age\n");
  QueryFingerprint a =
      CanonicalFingerprint(MustQuery("q(x) :- A(x)", onto.vocab()));
  QueryFingerprint b =
      CanonicalFingerprint(MustQuery("q(x) :- B(x)", onto.vocab()));
  EXPECT_NE(a.key, b.key);
  QueryFingerprint c41 =
      CanonicalFingerprint(MustQuery("q(x) :- age(x, 41)", onto.vocab()));
  QueryFingerprint c42 =
      CanonicalFingerprint(MustQuery("q(x) :- age(x, 42)", onto.vocab()));
  EXPECT_NE(c41.key, c42.key);
  // A constant is never conflated with a variable of the same spelling.
  QueryFingerprint v = CanonicalFingerprint(
      MustQuery("q(x) :- age(x, y)", onto.vocab()));
  EXPECT_NE(c42.key, v.key);
}

TEST(FingerprintTest, HeadBindingsAreInTheIdentity) {
  Ontology onto = MustParse("role knows\n");
  ConjunctiveQuery cq = MustQuery("q(x) :- knows(x, y)", onto.vocab());
  QueryFingerprint plain = CanonicalFingerprint(cq);
  ConjunctiveQuery bound = cq;
  bound.head_bindings.emplace_back("x", "ada");
  EXPECT_NE(CanonicalFingerprint(bound).key, plain.key);
}

TEST(CqTest, ParserErrors) {
  Ontology onto = MustParse("concept A\nrole P\n");
  EXPECT_EQ(ParseQuery("q(x) - A(x)", onto.vocab()).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseQuery("q(x) :- Zzz(x)", onto.vocab()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ParseQuery("q(x) :- A(y)", onto.vocab()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseQuery("q(x) :- A(x, y, z)", onto.vocab()).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseQuery("q() :- ", onto.vocab()).status().code(),
            StatusCode::kParseError);
}

// Adversarial inputs: malformed, truncated, and pathologically nested
// texts must come back as a clean parse/validation error — never a crash,
// a hang, or an OK result.
TEST(CqTest, AdversarialInputsNeverCrash) {
  Ontology onto = MustParse("concept A\nrole P\n");
  const dllite::Vocabulary& v = onto.vocab();
  const char* cases[] = {
      "",
      " ",
      "\n\n\n",
      ":-",
      "q",
      "q(",
      "q)",
      "q()",
      "q(x",
      "q(x))",
      "q(x) :-",
      "q(x) :- ,",
      "q(x) :- A",
      "q(x) :- A(",
      "q(x) :- A)",
      "q(x) :- A()",
      "q(x) :- A(x,",
      "q(x) :- A(x,)",
      "q(x) :- A(x),",
      "q(x) :- A(x),, A(x)",
      "q(x) :- A(x) A(x)",
      "q(x) :- (A(x))",
      "q(x) :- A((x))",
      "q(x) :- A(x)) :- A(x)",
      "q(x) q(y) :- A(x)",
      ":- A(x)",
      "q(x) :- :- A(x)",
      "q(x,) :- A(x)",
      "q(,x) :- A(x)",
      "((((((((((",
      "q(x) :- P(x, y, z, w)",
      "q(x) :- P(x)",
      "q(x y) :- A(x)",
  };
  for (const char* text : cases) {
    auto r = ParseQuery(text, v);
    EXPECT_FALSE(r.ok()) << "accepted: \"" << text << "\"";
    StatusCode code = r.status().code();
    EXPECT_TRUE(code == StatusCode::kParseError ||
                code == StatusCode::kInvalidArgument ||
                code == StatusCode::kNotFound)
        << "\"" << text << "\" -> " << r.status().ToString();
  }
}

TEST(CqTest, DeeplyNestedAndOversizedInputsFailGracefully) {
  Ontology onto = MustParse("concept A\nrole P\n");
  const dllite::Vocabulary& v = onto.vocab();
  // A kilobyte of opening parens, unterminated.
  std::string nested = "q(x) :- A";
  nested.append(1024, '(');
  EXPECT_FALSE(ParseQuery(nested, v).ok());
  // A truncated tail of a long but well-formed query.
  std::string long_query = "q(x) :- A(x)";
  for (int i = 0; i < 500; ++i) long_query += ", P(x, y" + std::to_string(i) + ")";
  EXPECT_TRUE(ParseQuery(long_query, v).ok());
  for (size_t cut = 1; cut < 40; ++cut) {
    auto r = ParseQuery(long_query.substr(0, long_query.size() - cut), v);
    // Any prefix either parses (cut fell on an atom boundary) or fails
    // cleanly; it must never crash.
    if (!r.ok()) {
      EXPECT_TRUE(r.status().code() == StatusCode::kParseError ||
                  r.status().code() == StatusCode::kInvalidArgument ||
                  r.status().code() == StatusCode::kNotFound)
          << r.status().ToString();
    }
  }
}

TEST(CqTest, CanonicalKeyIgnoresVariableNames) {
  Ontology onto = MustParse("concept A\nrole P\n");
  ConjunctiveQuery a = MustQuery("q(x) :- P(x, y), A(y)", onto.vocab());
  ConjunctiveQuery b = MustQuery("q(x) :- P(x, w), A(w)", onto.vocab());
  EXPECT_EQ(a.CanonicalKey(onto.vocab()), b.CanonicalKey(onto.vocab()));
  ConjunctiveQuery c = MustQuery("q(x) :- P(x, w), A(x)", onto.vocab());
  EXPECT_NE(a.CanonicalKey(onto.vocab()), c.CanonicalKey(onto.vocab()));
}

// ---------------------------------------------------------------------------
// PerfectRef — both modes must produce equivalent rewritings
// ---------------------------------------------------------------------------

class RewriteModeTest : public ::testing::TestWithParam<RewriteMode> {
 protected:
  RewriterOptions Opts() const {
    RewriterOptions o;
    o.mode = GetParam();
    return o;
  }
};

TEST_P(RewriteModeTest, ConceptHierarchyExpansion) {
  Ontology onto = MustParse(
      "concept Professor AssistantProf Person\n"
      "AssistantProf <= Professor\nProfessor <= Person\n");
  Rewriter rw(onto.tbox(), onto.vocab(), Opts());
  auto ucq = rw.Rewrite(MustQuery("q(x) :- Person(x)", onto.vocab()));
  ASSERT_TRUE(ucq.ok()) << ucq.status().ToString();
  EXPECT_EQ(ucq->disjuncts.size(), 3u);
  EXPECT_TRUE(ContainsDisjunct(*ucq, "q(x) :- AssistantProf(x)",
                               onto.vocab()));
}

TEST_P(RewriteModeTest, DomainAxiomRewritesConceptToRoleAtom) {
  Ontology onto = MustParse(
      "concept Teacher\nrole teaches\nexists teaches <= Teacher\n");
  Rewriter rw(onto.tbox(), onto.vocab(), Opts());
  auto ucq = rw.Rewrite(MustQuery("q(x) :- Teacher(x)", onto.vocab()));
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->disjuncts.size(), 2u);
  // One disjunct must be q(x) :- teaches(x, _).
  bool found = false;
  for (const auto& d : ucq->disjuncts) {
    if (d.atoms.size() == 1 && d.atoms[0].kind == Atom::Kind::kRole) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_P(RewriteModeTest, MandatoryParticipationRewritesRoleAtom) {
  // Professor ⊑ ∃teaches: q(x) :- teaches(x,y) with y unbound gains
  // the disjunct q(x) :- Professor(x).
  Ontology onto = MustParse(
      "concept Professor\nrole teaches\nProfessor <= exists teaches\n");
  Rewriter rw(onto.tbox(), onto.vocab(), Opts());
  auto ucq = rw.Rewrite(MustQuery("q(x) :- teaches(x, y)", onto.vocab()));
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->disjuncts.size(), 2u);
  EXPECT_TRUE(ContainsDisjunct(*ucq, "q(x) :- Professor(x)", onto.vocab()));
}

TEST_P(RewriteModeTest, BoundVariableBlocksExistentialStep) {
  Ontology onto = MustParse(
      "concept Professor Course\nrole teaches\n"
      "Professor <= exists teaches\n");
  Rewriter rw(onto.tbox(), onto.vocab(), Opts());
  // y is distinguished: the existential step must not apply.
  auto ucq = rw.Rewrite(MustQuery("q(x, y) :- teaches(x, y)", onto.vocab()));
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->disjuncts.size(), 1u);
  // y shared with another atom: still blocked.
  auto ucq2 =
      rw.Rewrite(MustQuery("q(x) :- teaches(x, y), Course(y)", onto.vocab()));
  ASSERT_TRUE(ucq2.ok());
  EXPECT_EQ(ucq2->disjuncts.size(), 1u);
}

TEST_P(RewriteModeTest, RoleHierarchyRewriting) {
  Ontology onto = MustParse(
      "role hasFather hasParent\nhasFather <= hasParent\n");
  Rewriter rw(onto.tbox(), onto.vocab(), Opts());
  auto ucq = rw.Rewrite(MustQuery("q(x, y) :- hasParent(x, y)", onto.vocab()));
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->disjuncts.size(), 2u);
  EXPECT_TRUE(ContainsDisjunct(*ucq, "q(x, y) :- hasFather(x, y)",
                               onto.vocab()));
}

TEST_P(RewriteModeTest, InverseRoleInclusionSwapsArguments) {
  Ontology onto = MustParse(
      "role hasChild hasParent\nhasChild <= hasParent-\n");
  Rewriter rw(onto.tbox(), onto.vocab(), Opts());
  auto ucq = rw.Rewrite(MustQuery("q(x, y) :- hasParent(x, y)", onto.vocab()));
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->disjuncts.size(), 2u);
  EXPECT_TRUE(ContainsDisjunct(*ucq, "q(x, y) :- hasChild(y, x)",
                               onto.vocab()));
}

TEST_P(RewriteModeTest, QualifiedExistentialPairRule) {
  // The paper's Figure 2 ontology: querying for counties that are part of
  // some state must admit all counties.
  Ontology onto = MustParse(
      "concept County State\nrole isPartOf\n"
      "County <= exists isPartOf . State\n");
  Rewriter rw(onto.tbox(), onto.vocab(), Opts());
  auto ucq = rw.Rewrite(
      MustQuery("q(x) :- isPartOf(x, y), State(y)", onto.vocab()));
  ASSERT_TRUE(ucq.ok());
  EXPECT_TRUE(ContainsDisjunct(*ucq, "q(x) :- County(x)", onto.vocab()));
}

TEST_P(RewriteModeTest, QualifiedExistentialInverseOrientation) {
  Ontology onto = MustParse(
      "concept County State\nrole isPartOf\n"
      "State <= exists isPartOf- . County\n");
  Rewriter rw(onto.tbox(), onto.vocab(), Opts());
  auto ucq = rw.Rewrite(
      MustQuery("q(y) :- isPartOf(x, y), County(x)", onto.vocab()));
  ASSERT_TRUE(ucq.ok());
  EXPECT_TRUE(ContainsDisjunct(*ucq, "q(y) :- State(y)", onto.vocab()));
}

TEST_P(RewriteModeTest, PairRuleBlockedWhenVariableShared) {
  Ontology onto = MustParse(
      "concept County State Capital\nrole isPartOf\n"
      "County <= exists isPartOf . State\n");
  Rewriter rw(onto.tbox(), onto.vocab(), Opts());
  // y also occurs in Capital(y): the pair rule must not fire.
  auto ucq = rw.Rewrite(MustQuery(
      "q(x) :- isPartOf(x, y), State(y), Capital(y)", onto.vocab()));
  ASSERT_TRUE(ucq.ok());
  EXPECT_FALSE(ContainsDisjunct(*ucq, "q(x) :- County(x), Capital(y)",
                                onto.vocab()));
  for (const auto& d : ucq->disjuncts) {
    EXPECT_GE(d.atoms.size(), 2u) << d.ToString(onto.vocab());
  }
}

TEST_P(RewriteModeTest, ReduceStepEnablesFurtherRewriting) {
  // Classic PerfectRef example: q(x) :- teaches(x,y), teaches(z,y).
  // Unifying the two atoms makes y unbound, enabling Professor ⊑ ∃teaches.
  Ontology onto = MustParse(
      "concept Professor\nrole teaches\nProfessor <= exists teaches\n");
  Rewriter rw(onto.tbox(), onto.vocab(), Opts());
  auto ucq = rw.Rewrite(
      MustQuery("q(x) :- teaches(x, y), teaches(z, y)", onto.vocab()));
  ASSERT_TRUE(ucq.ok());
  EXPECT_TRUE(ContainsDisjunct(*ucq, "q(x) :- Professor(x)", onto.vocab()));
}

TEST_P(RewriteModeTest, TransitiveChainFullyExpanded) {
  Ontology onto = MustParse(
      "concept A B C D\nA <= B\nB <= C\nC <= D\n");
  Rewriter rw(onto.tbox(), onto.vocab(), Opts());
  RewriteStats stats;
  auto ucq = rw.Rewrite(MustQuery("q(x) :- D(x)", onto.vocab()), &stats);
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->disjuncts.size(), 4u);
  EXPECT_EQ(stats.final_disjuncts, 4u);
  EXPECT_GT(stats.iterations, 0u);
}

TEST_P(RewriteModeTest, ReduceSubstitutionIsSound) {
  // Regression: unifying holds(x,y) with holds(z,x) must yield
  // holds(z,z), never the unsound holds(z,x) (which would make the
  // disjointness consistency check fire on any non-empty role).
  Ontology onto = MustParse(
      "concept Customer Contract\nrole holds\n"
      "exists holds <= Customer\nexists holds- <= Contract\n");
  RewriterOptions opts = Opts();
  opts.prune_subsumed = false;
  Rewriter rw(onto.tbox(), onto.vocab(), opts);
  auto ucq = rw.Rewrite(MustQuery("q() :- holds(x, y), holds(z, x)",
                                  onto.vocab()));
  ASSERT_TRUE(ucq.ok());
  for (const auto& d : ucq->disjuncts) {
    if (d.atoms.size() != 1) continue;
    // The single-atom disjunct must be the self-loop.
    ASSERT_EQ(d.atoms[0].args[0], d.atoms[0].args[1])
        << d.ToString(onto.vocab());
  }
  // Disjointness boolean query must not become a tautology.
  auto disj = rw.Rewrite(
      MustQuery("q() :- Customer(x), Contract(x)", onto.vocab()));
  ASSERT_TRUE(disj.ok());
  for (const auto& d : disj->disjuncts) {
    if (d.atoms.size() == 1 && d.atoms[0].kind == Atom::Kind::kRole) {
      EXPECT_EQ(d.atoms[0].args[0], d.atoms[0].args[1])
          << d.ToString(onto.vocab());
    }
  }
}

TEST_P(RewriteModeTest, AttributeRewriting) {
  Ontology onto = MustParse(
      "concept Person\nattribute ssn taxCode\n"
      "ssn <= taxCode\nPerson <= delta(ssn)\n");
  Rewriter rw(onto.tbox(), onto.vocab(), Opts());
  auto ucq = rw.Rewrite(MustQuery("q(x) :- taxCode(x, v)", onto.vocab()));
  ASSERT_TRUE(ucq.ok());
  // taxCode(x,v) → ssn(x,v) → Person(x) (v unbound).
  EXPECT_TRUE(ContainsDisjunct(*ucq, "q(x) :- Person(x)", onto.vocab()));
  EXPECT_EQ(ucq->disjuncts.size(), 3u);
}

TEST_P(RewriteModeTest, ConstantsSurviveRewriting) {
  Ontology onto = MustParse(
      "concept Professor\nrole teaches\nProfessor <= exists teaches\n");
  Rewriter rw(onto.tbox(), onto.vocab(), Opts());
  auto ucq =
      rw.Rewrite(MustQuery("q() :- teaches('ada', y)", onto.vocab()));
  ASSERT_TRUE(ucq.ok());
  EXPECT_TRUE(ContainsDisjunct(*ucq, "q() :- Professor('ada')",
                               onto.vocab()));
}

TEST_P(RewriteModeTest, MaxDisjunctsGuard) {
  Ontology onto = MustParse("concept A B C D\nA <= D\nB <= D\nC <= D\n");
  RewriterOptions opts = Opts();
  opts.max_disjuncts = 2;
  Rewriter rw(onto.tbox(), onto.vocab(), opts);
  auto ucq = rw.Rewrite(MustQuery("q(x) :- D(x)", onto.vocab()));
  EXPECT_EQ(ucq.status().code(), StatusCode::kResourceExhausted);
}

INSTANTIATE_TEST_SUITE_P(BothModes, RewriteModeTest,
                         ::testing::Values(RewriteMode::kPerfectRef,
                                           RewriteMode::kClassified),
                         [](const auto& pinfo) {
                           return RewriteModeName(pinfo.param);
                         });

TEST(RewriterComparisonTest, ModesAgreeOnDisjunctSets) {
  Ontology onto = MustParse(
      "concept Professor AssistantProf Person Course\n"
      "role teaches givesLecture\n"
      "AssistantProf <= Professor\nProfessor <= Person\n"
      "givesLecture <= teaches\n"
      "Professor <= exists teaches . Course\n"
      "exists teaches- <= Course\n");
  RewriterOptions popts;
  popts.mode = RewriteMode::kPerfectRef;
  RewriterOptions copts;
  copts.mode = RewriteMode::kClassified;
  Rewriter pr(onto.tbox(), onto.vocab(), popts);
  Rewriter cl(onto.tbox(), onto.vocab(), copts);
  for (const char* qtext :
       {"q(x) :- Person(x)", "q(x) :- teaches(x, y)",
        "q(x) :- teaches(x, y), Course(y)", "q(x, y) :- teaches(x, y)"}) {
    auto a = pr.Rewrite(MustQuery(qtext, onto.vocab()));
    auto b = cl.Rewrite(MustQuery(qtext, onto.vocab()));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    std::vector<std::string> ka, kb;
    for (const auto& d : a->disjuncts) {
      ka.push_back(d.CanonicalKey(onto.vocab()));
    }
    for (const auto& d : b->disjuncts) {
      kb.push_back(d.CanonicalKey(onto.vocab()));
    }
    std::sort(ka.begin(), ka.end());
    std::sort(kb.begin(), kb.end());
    EXPECT_EQ(ka, kb) << qtext;
  }
}

}  // namespace
}  // namespace olite::query
