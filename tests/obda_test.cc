#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>

#include "mapping/mapping.h"
#include "obda/delta.h"
#include "obda/compiled_ontology.h"
#include "obda/query_engine.h"
#include "obda/unfolder.h"

namespace olite::obda {
namespace {

using dllite::Ontology;
using mapping::MappingAssertion;
using mapping::MappingSet;
using rdb::Database;
using rdb::SelectBlock;
using rdb::Value;
using rdb::ValueType;

// University OBDA instance: the running example of OBDA papers.
struct Fixture {
  Ontology onto;
  Database db;
  MappingSet mappings;

  Fixture() {
    auto r = dllite::ParseOntology(R"(
concept Professor AssistantProf Person Course
role teaches
attribute salary
AssistantProf <= Professor
Professor <= Person
Professor <= exists teaches
exists teaches- <= Course
Professor <= delta(salary)
)");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    onto = std::move(r).value();

    EXPECT_TRUE(db.CreateTable({"prof",
                                {{"id", ValueType::kString},
                                 {"rank", ValueType::kString},
                                 {"pay", ValueType::kInt}}})
                    .ok());
    EXPECT_TRUE(db.CreateTable({"teaching",
                                {{"prof_id", ValueType::kString},
                                 {"course", ValueType::kString}}})
                    .ok());
    EXPECT_TRUE(
        db.Insert("prof", {Value::Str("ada"), Value::Str("full"),
                           Value::Int(90)})
            .ok());
    EXPECT_TRUE(
        db.Insert("prof", {Value::Str("alan"), Value::Str("assistant"),
                           Value::Int(60)})
            .ok());
    EXPECT_TRUE(
        db.Insert("teaching", {Value::Str("ada"), Value::Str("db101")}).ok());

    auto cid = [&](const char* n) {
      return onto.vocab().FindConcept(n).value();
    };
    // Professor(id) ← SELECT id FROM prof
    SelectBlock all_profs;
    all_profs.from_tables = {"prof"};
    all_profs.select = {{0, "id"}};
    EXPECT_TRUE(mappings
                    .Add(MappingAssertion::ForConcept(cid("Professor"),
                                                      all_profs))
                    .ok());
    // AssistantProf(id) ← SELECT id FROM prof WHERE rank = 'assistant'
    SelectBlock assistants = all_profs;
    assistants.filters = {{{0, "rank"}, Value::Str("assistant")}};
    EXPECT_TRUE(mappings
                    .Add(MappingAssertion::ForConcept(cid("AssistantProf"),
                                                      assistants))
                    .ok());
    // teaches(prof_id, course) ← SELECT prof_id, course FROM teaching
    SelectBlock teaching;
    teaching.from_tables = {"teaching"};
    teaching.select = {{0, "prof_id"}, {0, "course"}};
    EXPECT_TRUE(
        mappings
            .Add(MappingAssertion::ForRole(
                onto.vocab().FindRole("teaches").value(), teaching))
            .ok());
    // salary(id, pay) ← SELECT id, pay FROM prof
    SelectBlock pay;
    pay.from_tables = {"prof"};
    pay.select = {{0, "id"}, {0, "pay"}};
    EXPECT_TRUE(mappings
                    .Add(MappingAssertion::ForAttribute(
                        onto.vocab().FindAttribute("salary").value(), pay))
                    .ok());
  }

  std::shared_ptr<const CompiledOntology> Compile(
      query::RewriteMode mode = query::RewriteMode::kPerfectRef) {
    auto c = CompiledOntology::Compile(std::move(onto), std::move(mappings),
                                       std::move(db), mode);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(c).value();
  }

  std::unique_ptr<QueryEngine> Make(
      query::RewriteMode mode = query::RewriteMode::kPerfectRef) {
    return std::make_unique<QueryEngine>(Compile(mode));
  }
};

TEST(MappingTest, ArityValidation) {
  MappingSet m;
  SelectBlock b;
  b.from_tables = {"t"};
  b.select = {{0, "a"}, {0, "b"}};
  EXPECT_EQ(m.Add(MappingAssertion::ForConcept(0, b)).code(),
            StatusCode::kInvalidArgument);
  b.select = {{0, "a"}};
  EXPECT_TRUE(m.Add(MappingAssertion::ForConcept(0, b)).ok());
  EXPECT_EQ(m.Add(MappingAssertion::ForRole(0, b)).code(),
            StatusCode::kInvalidArgument);
  SelectBlock empty;
  empty.select = {{0, "a"}};
  EXPECT_EQ(m.Add(MappingAssertion::ForConcept(0, empty)).code(),
            StatusCode::kInvalidArgument);
}

TEST(MappingTest, ValidateAgainstSchema) {
  Database db;
  ASSERT_TRUE(db.CreateTable({"t", {{"a", ValueType::kInt}}}).ok());
  MappingSet good;
  SelectBlock b;
  b.from_tables = {"t"};
  b.select = {{0, "a"}};
  ASSERT_TRUE(good.Add(MappingAssertion::ForConcept(0, b)).ok());
  EXPECT_TRUE(good.Validate(db).ok());

  MappingSet bad_table;
  SelectBlock b2 = b;
  b2.from_tables = {"ghost"};
  ASSERT_TRUE(bad_table.Add(MappingAssertion::ForConcept(0, b2)).ok());
  EXPECT_EQ(bad_table.Validate(db).code(), StatusCode::kNotFound);

  MappingSet bad_col;
  SelectBlock b3 = b;
  b3.select = {{0, "ghost"}};
  ASSERT_TRUE(bad_col.Add(MappingAssertion::ForConcept(0, b3)).ok());
  EXPECT_EQ(bad_col.Validate(db).code(), StatusCode::kNotFound);
}

TEST(MappingTest, MaterializeABox) {
  Fixture fx;
  auto abox = MaterializeABox(fx.mappings, fx.db, &fx.onto.vocab());
  ASSERT_TRUE(abox.ok()) << abox.status().ToString();
  EXPECT_EQ(abox->concept_assertions().size(), 3u);  // 2 Professor + 1 Asst
  EXPECT_EQ(abox->role_assertions().size(), 1u);
  EXPECT_EQ(abox->attribute_assertions().size(), 2u);
  EXPECT_TRUE(fx.onto.vocab().FindIndividual("ada").has_value());
}

class ObdaModeTest : public ::testing::TestWithParam<query::RewriteMode> {};

TEST_P(ObdaModeTest, DirectQuery) {
  Fixture fx;
  auto sys = fx.Make(GetParam());
  auto answers = sys->Answer("q(x) :- Professor(x)");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->size(), 2u);
}

TEST_P(ObdaModeTest, HierarchyReasoningThroughMappings) {
  const auto snapshot = Fixture().Compile(GetParam());
  // Person is unmapped; answers come from Professor/AssistantProf via the
  // TBox.
  AnswerStats stats;
  AnswerOptions opts;
  opts.capture_sql = true;  // the SQL text is opt-in
  // Observe the raw rewrite shape: constraint-aware pruning (on by
  // default) collapses this union because Person is unmapped and the
  // assistant extension is contained in the professor one.
  QueryEngineOptions unpruned_opts;
  unpruned_opts.disable_constraint_pruning = true;
  const QueryEngine unpruned(snapshot, unpruned_opts);
  auto answers = unpruned.Answer("q(x) :- Person(x)", opts, &stats);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->size(), 2u);
  EXPECT_GE(stats.rewrite.final_disjuncts, 3u);
  EXPECT_GE(stats.sql_blocks, 2u);
  EXPECT_NE(stats.sql.find("SELECT"), std::string::npos);

  // The default (pruned) engine returns the same answers from a smaller
  // union.
  AnswerStats pruned_stats;
  auto pruned = QueryEngine(snapshot).Answer("q(x) :- Person(x)",
                                             &pruned_stats);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(std::set<AnswerTuple>(answers->begin(), answers->end()),
            std::set<AnswerTuple>(pruned->begin(), pruned->end()));
  EXPECT_LT(pruned_stats.rewrite.final_disjuncts,
            stats.rewrite.final_disjuncts);
  EXPECT_GT(pruned_stats.rewrite.pruned_disjuncts, 0u);
}

TEST_P(ObdaModeTest, MandatoryParticipationYieldsCertainAnswers) {
  Fixture fx;
  auto sys = fx.Make(GetParam());
  // Every professor certainly teaches something (Professor ⊑ ∃teaches),
  // even though the teaching table only mentions ada.
  auto answers = sys->Answer("q(x) :- teaches(x, y)");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->size(), 2u);
}

TEST_P(ObdaModeTest, JoinQueryWithRangeReasoning) {
  Fixture fx;
  auto sys = fx.Make(GetParam());
  // Courses: only from actual teaching tuples (db101).
  auto answers = sys->Answer("q(y) :- teaches(x, y), Course(y)");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0][0], "db101");
}

TEST_P(ObdaModeTest, AttributeQueryAndConstants) {
  Fixture fx;
  auto sys = fx.Make(GetParam());
  auto answers = sys->Answer("q(x) :- salary(x, 60)");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->size(), 1u);
  EXPECT_EQ((*answers)[0][0], "alan");
}

TEST_P(ObdaModeTest, UnmappedQueryYieldsEmpty) {
  Fixture fx;
  auto sys = fx.Make(GetParam());
  auto answers = sys->Answer("q(y) :- Course(y)");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  // Course is populated only through teaches-range reasoning; a bare
  // Course(y) query rewrites to teaches(_, y) which IS mapped.
  EXPECT_EQ(answers->size(), 1u);
}

TEST_P(ObdaModeTest, BooleanQuery) {
  Fixture fx;
  auto sys = fx.Make(GetParam());
  auto yes = sys->Answer("q() :- AssistantProf(x)");
  ASSERT_TRUE(yes.ok());
  EXPECT_EQ(yes->size(), 1u);  // one empty tuple = true
  // Subtle: alan certainly teaches SOME course (Professor ⊑ ∃teaches and
  // ∃teaches⁻ ⊑ Course), even though the data only records ada teaching —
  // the reduce step plus two existential steps derive it.
  auto subtle = sys->Answer("q() :- teaches('alan', y), Course(y)");
  ASSERT_TRUE(subtle.ok());
  EXPECT_EQ(subtle->size(), 1u);
  // Genuinely false: ada is not an assistant professor.
  auto no = sys->Answer("q() :- AssistantProf('ada')");
  ASSERT_TRUE(no.ok());
  EXPECT_TRUE(no->empty());
}

INSTANTIATE_TEST_SUITE_P(BothModes, ObdaModeTest,
                         ::testing::Values(query::RewriteMode::kPerfectRef,
                                           query::RewriteMode::kClassified),
                         [](const auto& pinfo) {
                           return query::RewriteModeName(pinfo.param);
                         });

TEST(ObdaConsistencyTest, DetectsDisjointnessViolation) {
  auto r = dllite::ParseOntology(R"(
concept FullProf AssistantProf
FullProf <= not AssistantProf
)");
  ASSERT_TRUE(r.ok());
  Ontology onto = std::move(r).value();
  Database db;
  ASSERT_TRUE(db.CreateTable({"prof",
                              {{"id", ValueType::kString},
                               {"rank", ValueType::kString}}})
                  .ok());
  ASSERT_TRUE(
      db.Insert("prof", {Value::Str("ada"), Value::Str("full")}).ok());

  auto make_sys = [&](bool broken) {
    MappingSet m;
    SelectBlock full;
    full.from_tables = {"prof"};
    full.select = {{0, "id"}};
    full.filters = {{{0, "rank"}, Value::Str("full")}};
    SelectBlock asst;
    asst.from_tables = {"prof"};
    asst.select = {{0, "id"}};
    if (!broken) {
      asst.filters = {{{0, "rank"}, Value::Str("assistant")}};
    }
    EXPECT_TRUE(m.Add(MappingAssertion::ForConcept(
                          onto.vocab().FindConcept("FullProf").value(), full))
                    .ok());
    EXPECT_TRUE(
        m.Add(MappingAssertion::ForConcept(
                  onto.vocab().FindConcept("AssistantProf").value(), asst))
            .ok());
    Ontology onto_copy;
    auto rr = dllite::ParseOntology(onto.ToString());
    EXPECT_TRUE(rr.ok());
    return CompiledOntology::Compile(std::move(rr).value(), std::move(m), db);
  };

  auto ok_sys = make_sys(false);
  ASSERT_TRUE(ok_sys.ok()) << ok_sys.status().ToString();
  auto consistent = QueryEngine(*ok_sys).CheckConsistency();
  ASSERT_TRUE(consistent.ok()) << consistent.status().ToString();
  EXPECT_TRUE(consistent->consistent);

  // The broken mapping puts 'ada' in both disjoint classes.
  auto bad_sys = make_sys(true);
  ASSERT_TRUE(bad_sys.ok());
  auto inconsistent = QueryEngine(*bad_sys).CheckConsistency();
  ASSERT_TRUE(inconsistent.ok()) << inconsistent.status().ToString();
  EXPECT_FALSE(inconsistent->consistent);
  ASSERT_EQ(inconsistent->violations.size(), 1u);
  EXPECT_EQ(inconsistent->violations[0], "FullProf <= not AssistantProf");
}

TEST(ObdaConsistencyTest, InheritedDisjointnessViolation) {
  // Violation only visible through the subclass: B ⊑ A, A ⊑ ¬C, data puts
  // one individual in B and C.
  auto r = dllite::ParseOntology(
      "concept A B C\nB <= A\nA <= not C\n");
  ASSERT_TRUE(r.ok());
  Database db;
  ASSERT_TRUE(db.CreateTable({"t", {{"id", ValueType::kString}}}).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Str("e1")}).ok());
  MappingSet m;
  SelectBlock all;
  all.from_tables = {"t"};
  all.select = {{0, "id"}};
  auto& onto = *r;
  ASSERT_TRUE(
      m.Add(MappingAssertion::ForConcept(onto.vocab().FindConcept("B").value(),
                                         all))
          .ok());
  ASSERT_TRUE(
      m.Add(MappingAssertion::ForConcept(onto.vocab().FindConcept("C").value(),
                                         all))
          .ok());
  auto sys =
      CompiledOntology::Compile(std::move(onto), std::move(m), std::move(db));
  ASSERT_TRUE(sys.ok());
  auto consistent = QueryEngine(*sys).CheckConsistency();
  ASSERT_TRUE(consistent.ok());
  EXPECT_FALSE(consistent->consistent);
}

TEST(ObdaConsistencyTest, CheckConsistencyReturnsReportByValue) {
  auto r = dllite::ParseOntology(
      "concept A B C\nB <= A\nA <= not C\n");
  ASSERT_TRUE(r.ok());
  Database db;
  ASSERT_TRUE(db.CreateTable({"t", {{"id", ValueType::kString}}}).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Str("e1")}).ok());
  MappingSet m;
  SelectBlock all;
  all.from_tables = {"t"};
  all.select = {{0, "id"}};
  auto& onto = *r;
  ASSERT_TRUE(
      m.Add(MappingAssertion::ForConcept(onto.vocab().FindConcept("B").value(),
                                         all))
          .ok());
  ASSERT_TRUE(
      m.Add(MappingAssertion::ForConcept(onto.vocab().FindConcept("C").value(),
                                         all))
          .ok());
  auto sys =
      CompiledOntology::Compile(std::move(onto), std::move(m), std::move(db));
  ASSERT_TRUE(sys.ok());
  auto report = QueryEngine(*sys).CheckConsistency();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->consistent);
  ASSERT_EQ(report->violations.size(), 1u);
  EXPECT_EQ(report->violations[0], "A <= not C");
}

TEST(ObdaAnswerTest, NearEqualDoublesStayDistinctInAnswers) {
  // Regression: answer rendering used std::to_string (6 fixed digits),
  // which collapsed near-equal doubles into one name — and thus one
  // certain answer. Round-trip formatting must keep them apart.
  auto r = dllite::ParseOntology("concept Sensor\nattribute reading\n");
  ASSERT_TRUE(r.ok());
  Database db;
  ASSERT_TRUE(db.CreateTable({"m",
                              {{"id", ValueType::kString},
                               {"val", ValueType::kDouble}}})
                  .ok());
  const double a = 0.1;
  const double b = 0.1 + 1e-12;  // identical in "%.6f", distinct in %.17g
  ASSERT_TRUE(db.Insert("m", {Value::Str("s1"), Value::Double(a)}).ok());
  ASSERT_TRUE(db.Insert("m", {Value::Str("s2"), Value::Double(b)}).ok());
  MappingSet m;
  SelectBlock block;
  block.from_tables = {"m"};
  block.select = {{0, "id"}, {0, "val"}};
  auto& onto = *r;
  ASSERT_TRUE(m.Add(MappingAssertion::ForAttribute(
                        onto.vocab().FindAttribute("reading").value(), block))
                  .ok());
  auto sys =
      CompiledOntology::Compile(std::move(onto), std::move(m), std::move(db));
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  auto answers = QueryEngine(*sys).Answer("q(v) :- reading(x, v)");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->size(), 2u);  // collapsed to 1 under to_string
  EXPECT_NE((*answers)[0][0], (*answers)[1][0]);
  // The rendered names parse back to the exact stored doubles.
  for (const auto& tuple : *answers) {
    double parsed = std::strtod(tuple[0].c_str(), nullptr);
    EXPECT_TRUE(parsed == a || parsed == b);
  }
}

TEST(UnfolderTest, SharedVariablesBecomeJoins) {
  Fixture fx;
  auto cq = query::ParseQuery("q(x) :- Professor(x), teaches(x, y)",
                              fx.onto.vocab());
  ASSERT_TRUE(cq.ok());
  query::UnionQuery ucq;
  ucq.disjuncts.push_back(*cq);
  auto sql = Unfold(ucq, fx.mappings, fx.db);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  ASSERT_EQ(sql->blocks.size(), 1u);
  EXPECT_EQ(sql->blocks[0].from_tables.size(), 2u);
  ASSERT_EQ(sql->blocks[0].joins.size(), 1u);
  auto rows = rdb::Execute(fx.db, *sql);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);  // only ada actually teaches in the data
}

// ---------------------------------------------------------------------------
// OntologyDelta application
// ---------------------------------------------------------------------------

TEST(DeltaTest, ApplyTBoxDeltaAddsAndRemoves) {
  Fixture fx;
  const auto& vocab = fx.onto.vocab();
  dllite::ConceptInclusion ax;
  ax.lhs = dllite::BasicConcept::Atomic(vocab.FindConcept("Course").value());
  ax.rhs = dllite::RhsConcept::Positive(
      dllite::BasicConcept::Atomic(vocab.FindConcept("Person").value()));

  OntologyDelta add;
  add.add_concept_inclusions.push_back(ax);
  auto grown = ApplyTBoxDelta(fx.onto.tbox(), add);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  ASSERT_EQ(grown->concept_inclusions().size(),
            fx.onto.tbox().concept_inclusions().size() + 1);
  // Additions land after the surviving base axioms, in delta order.
  EXPECT_EQ(grown->concept_inclusions().back(), ax);

  OntologyDelta remove;
  remove.remove_concept_inclusions.push_back(ax);
  auto restored = ApplyTBoxDelta(*grown, remove);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->concept_inclusions().size(),
            fx.onto.tbox().concept_inclusions().size());
}

TEST(DeltaTest, RemovalMissIsInvalidArgument) {
  Fixture fx;
  dllite::ConceptInclusion missing;
  missing.lhs = dllite::BasicConcept::Atomic(
      fx.onto.vocab().FindConcept("Course").value());
  missing.rhs = dllite::RhsConcept::Positive(dllite::BasicConcept::Atomic(
      fx.onto.vocab().FindConcept("AssistantProf").value()));
  OntologyDelta d;
  d.remove_concept_inclusions.push_back(missing);
  auto r = ApplyTBoxDelta(fx.onto.tbox(), d);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  OntologyDelta md;
  OntologyDelta::MappingSelector sel;
  sel.kind = mapping::TargetKind::kConcept;
  sel.predicate = fx.onto.vocab().FindConcept("Course").value();
  sel.sql = "SELECT nothing FROM nowhere";
  md.remove_mappings.push_back(sel);
  auto mr = ApplyMappingDelta(fx.mappings, md);
  ASSERT_FALSE(mr.ok());
  EXPECT_EQ(mr.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaTest, MappingSelectorRoundTrip) {
  Fixture fx;
  const MappingAssertion victim = fx.mappings.assertions().front();
  OntologyDelta d;
  d.remove_mappings.push_back(SelectorFor(victim));
  auto removed = ApplyMappingDelta(fx.mappings, d);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed->size(), fx.mappings.size() - 1);

  // Removing the same selector again misses — the assertion is gone.
  auto again = ApplyMappingDelta(*removed, d);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);

  // Re-adding the removed assertion restores the original size.
  OntologyDelta back;
  back.add_mappings.push_back(victim);
  auto restored = ApplyMappingDelta(*removed, back);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->size(), fx.mappings.size());
}

TEST(DeltaTest, MappingAdditionValidatesArity) {
  Fixture fx;
  SelectBlock two_columns;
  two_columns.from_tables = {"prof"};
  two_columns.select = {{0, "id"}, {0, "rank"}};
  OntologyDelta d;
  d.add_mappings.push_back(MappingAssertion::ForConcept(
      fx.onto.vocab().FindConcept("Course").value(), two_columns));
  auto r = ApplyMappingDelta(fx.mappings, d);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace olite::obda
