// End-to-end OBDA (§1/§3 of the paper): an ontology over a university
// domain, GAV mappings onto a legacy relational schema, certain-answer
// query answering through rewriting + unfolding, and consistency checking.

#include <cstdio>

#include "mapping/mapping.h"
#include "obda/compiled_ontology.h"
#include "obda/query_engine.h"

int main() {
  using namespace olite;
  using rdb::Value;
  using rdb::ValueType;

  // 1. The conceptual layer: a DL-Lite_R TBox.
  auto parsed = dllite::ParseOntology(R"(
concept Professor AssistantProf Student Person Course
role teaches attends
attribute salary

AssistantProf <= Professor
Professor <= Person
Student <= Person
Professor <= not Student
Professor <= exists teaches
exists teaches- <= Course
exists attends <= Student
exists attends- <= Course
Professor <= delta(salary)
)");
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  dllite::Ontology onto = std::move(parsed).value();

  // 2. The data layer: a legacy schema that looks nothing like the
  //    ontology.
  rdb::Database db;
  (void)db.CreateTable({"emp",
                        {{"eid", ValueType::kString},
                         {"grade", ValueType::kString},
                         {"pay", ValueType::kInt}}});
  (void)db.CreateTable({"teach_asgn",
                        {{"eid", ValueType::kString},
                         {"cid", ValueType::kString}}});
  (void)db.CreateTable({"enrolled",
                        {{"sid", ValueType::kString},
                         {"cid", ValueType::kString}}});
  (void)db.Insert("emp", {Value::Str("p1"), Value::Str("full"), Value::Int(90)});
  (void)db.Insert("emp", {Value::Str("p2"), Value::Str("asst"), Value::Int(55)});
  (void)db.Insert("teach_asgn", {Value::Str("p1"), Value::Str("db101")});
  (void)db.Insert("enrolled", {Value::Str("s1"), Value::Str("db101")});
  (void)db.Insert("enrolled", {Value::Str("s2"), Value::Str("db101")});

  // 3. The mapping layer.
  mapping::MappingSet mappings;
  auto cid = [&](const char* n) { return onto.vocab().FindConcept(n).value(); };
  rdb::SelectBlock profs;
  profs.from_tables = {"emp"};
  profs.select = {{0, "eid"}};
  (void)mappings.Add(mapping::MappingAssertion::ForConcept(cid("Professor"), profs));

  rdb::SelectBlock assts = profs;
  assts.filters = {{{0, "grade"}, Value::Str("asst")}};
  (void)mappings.Add(
      mapping::MappingAssertion::ForConcept(cid("AssistantProf"), assts));

  rdb::SelectBlock students;
  students.from_tables = {"enrolled"};
  students.select = {{0, "sid"}};
  (void)mappings.Add(mapping::MappingAssertion::ForConcept(cid("Student"), students));

  rdb::SelectBlock teaches;
  teaches.from_tables = {"teach_asgn"};
  teaches.select = {{0, "eid"}, {0, "cid"}};
  (void)mappings.Add(mapping::MappingAssertion::ForRole(
      onto.vocab().FindRole("teaches").value(), teaches));

  rdb::SelectBlock attends;
  attends.from_tables = {"enrolled"};
  attends.select = {{0, "sid"}, {0, "cid"}};
  (void)mappings.Add(mapping::MappingAssertion::ForRole(
      onto.vocab().FindRole("attends").value(), attends));

  rdb::SelectBlock pay;
  pay.from_tables = {"emp"};
  pay.select = {{0, "eid"}, {0, "pay"}};
  (void)mappings.Add(mapping::MappingAssertion::ForAttribute(
      onto.vocab().FindAttribute("salary").value(), pay));

  // 4. Compile the OBDA specification once and answer queries through an
  // engine over the compiled snapshot.
  auto compiled = obda::CompiledOntology::Compile(
      std::move(onto), std::move(mappings), std::move(db));
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s\n", compiled.status().ToString().c_str());
    return 1;
  }
  const obda::QueryEngine engine(*compiled);

  const char* queries[] = {
      "q(x) :- Person(x)",               // pure TBox reasoning
      "q(x) :- teaches(x, y)",           // mandatory participation
      "q(x, y) :- teaches(x, y)",        // only actual assignments
      "q(y) :- Course(y)",               // via role ranges
      "q(x) :- salary(x, 55)",           // attribute with constant
      "q(x) :- Professor(x), attends(x, y)",  // empty: profs don't attend
  };
  for (const char* q : queries) {
    obda::AnswerStats stats;
    auto answers = engine.Answer(q, &stats);
    if (!answers.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   answers.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n  rewriting: %zu disjuncts, SQL: %zu blocks\n", q,
                stats.rewrite.final_disjuncts, stats.sql_blocks);
    for (const auto& tuple : *answers) {
      std::printf("  -> (");
      for (size_t i = 0; i < tuple.size(); ++i) {
        std::printf("%s%s", i ? ", " : "", tuple[i].c_str());
      }
      std::printf(")\n");
    }
    if (answers->empty()) std::printf("  -> no answers\n");
  }

  // 5. Consistency: Professor ⊑ ¬Student must hold in the virtual ABox.
  auto consistent = engine.CheckConsistency();
  if (consistent.ok()) {
    std::printf("\nvirtual ABox consistent: %s\n",
                consistent->consistent ? "yes" : "no");
    for (const auto& v : consistent->violations) {
      std::printf("  violated: %s\n", v.c_str());
    }
  }
  return 0;
}
