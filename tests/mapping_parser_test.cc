#include <gtest/gtest.h>

#include "mapping/parser.h"
#include "obda/compiled_ontology.h"
#include "obda/query_engine.h"

namespace olite::mapping {
namespace {

dllite::Vocabulary Vocab() {
  dllite::Vocabulary v;
  v.InternConcept("Professor");
  v.InternConcept("AssistantProf");
  v.InternRole("teaches");
  v.InternAttribute("salary");
  return v;
}

TEST(MappingParserTest, SimpleConceptMapping) {
  auto v = Vocab();
  auto m = ParseMappingLine("Professor(x) <- SELECT eid FROM emp", v);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->kind, TargetKind::kConcept);
  EXPECT_EQ(m->predicate, v.FindConcept("Professor").value());
  EXPECT_EQ(m->source.from_tables, (std::vector<std::string>{"emp"}));
  ASSERT_EQ(m->source.select.size(), 1u);
  EXPECT_EQ(m->source.select[0].column, "eid");
}

TEST(MappingParserTest, WhereWithStringAndNumberLiterals) {
  auto v = Vocab();
  auto m = ParseMappingLine(
      "AssistantProf(x) <- SELECT eid FROM emp WHERE grade = 'asst' AND "
      "active = 1",
      v);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  ASSERT_EQ(m->source.filters.size(), 2u);
  EXPECT_EQ(m->source.filters[0].value, rdb::Value::Str("asst"));
  EXPECT_EQ(m->source.filters[1].value, rdb::Value::Int(1));
}

TEST(MappingParserTest, JoinWithAliases) {
  auto v = Vocab();
  auto m = ParseMappingLine(
      "teaches(x, y) <- SELECT e.eid, c.code FROM emp e, course c "
      "WHERE e.dept = c.dept",
      v);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->kind, TargetKind::kRole);
  ASSERT_EQ(m->source.from_tables.size(), 2u);
  ASSERT_EQ(m->source.joins.size(), 1u);
  EXPECT_EQ(m->source.joins[0].lhs.table_index, 0u);
  EXPECT_EQ(m->source.joins[0].rhs.table_index, 1u);
  ASSERT_EQ(m->source.select.size(), 2u);
  EXPECT_EQ(m->source.select[1].table_index, 1u);
}

TEST(MappingParserTest, TableNameActsAsAlias) {
  auto v = Vocab();
  auto m = ParseMappingLine(
      "teaches(x, y) <- SELECT emp.eid, asgn.cid FROM emp, asgn "
      "WHERE emp.eid = asgn.eid",
      v);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->source.joins.size(), 1u);
}

TEST(MappingParserTest, Errors) {
  auto v = Vocab();
  EXPECT_EQ(ParseMappingLine("Professor(x) SELECT eid FROM emp", v)
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(
      ParseMappingLine("Ghost(x) <- SELECT eid FROM emp", v).status().code(),
      StatusCode::kNotFound);
  EXPECT_EQ(ParseMappingLine("Professor(x, y) <- SELECT a, b FROM t", v)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseMappingLine("teaches(x, y) <- SELECT a FROM t", v)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Ambiguous unqualified column with two tables.
  EXPECT_EQ(ParseMappingLine(
                "teaches(x, y) <- SELECT a, b FROM t, s WHERE a = b", v)
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseMappingLine(
                "Professor(x) <- SELECT eid FROM emp WHERE g = 'x", v)
                .status()
                .code(),
            StatusCode::kParseError);
}

// A doubled quote inside a string literal is one quote, as
// `rdb::SqlQuery::ToString` writes it, so its rendering parses back.
TEST(MappingParserTest, DoubledQuoteIsOneQuote) {
  auto v = Vocab();
  auto m = ParseMappingLine(
      "Professor(x) <- SELECT t0.eid FROM emp t0 WHERE t0.s = 'a''b' AND "
      "t0.g = ''''",
      v);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  ASSERT_EQ(m->source.filters.size(), 2u);
  EXPECT_EQ(m->source.filters[0].value, rdb::Value::Str("a'b"));
  EXPECT_EQ(m->source.filters[1].value, rdb::Value::Str("'"));
  rdb::SqlQuery q;
  q.blocks = {m->source};
  auto again = ParseMappingLine("Professor(x) <- " + q.ToString(), v);
  ASSERT_TRUE(again.ok()) << q.ToString() << ": "
                          << again.status().ToString();
  ASSERT_EQ(again->source.filters.size(), 2u);
  EXPECT_EQ(again->source.filters[0].value, rdb::Value::Str("a'b"));
  EXPECT_EQ(again->source.filters[1].value, rdb::Value::Str("'"));
  for (const char* bad : {"'a''", "'''", "'a'''b'"}) {
    EXPECT_FALSE(ParseMappingLine(
                     std::string("Professor(x) <- SELECT eid FROM emp WHERE "
                                 "s = ") + bad,
                     v)
                     .ok())
        << bad;
  }
}

// A constant filter must have its column's type: `d = 2` on a DOUBLE
// column is INT 2, which no cell of that column equals.
TEST(MappingParserTest, FilterConstantsMustHaveTheColumnType) {
  auto v = Vocab();
  rdb::Database db;
  ASSERT_TRUE(db.CreateTable({"emp",
                              {{"eid", rdb::ValueType::kString},
                               {"d", rdb::ValueType::kDouble},
                               {"n", rdb::ValueType::kInt}}})
                  .ok());
  auto validate = [&](const std::string& where) {
    MappingSet set;
    auto m = ParseMappingLine(
        "Professor(x) <- SELECT eid FROM emp WHERE " + where, v);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    EXPECT_TRUE(set.Add(*std::move(m)).ok());
    return set.Validate(db);
  };
  EXPECT_TRUE(validate("d = 2.0").ok());
  EXPECT_TRUE(validate("d = -0.0").ok());
  EXPECT_TRUE(validate("n = 2").ok());
  EXPECT_TRUE(validate("eid = '2'").ok());
  const Status wrong = validate("d = 2");
  EXPECT_EQ(wrong.code(), StatusCode::kInvalidArgument);
  for (const char* part : {"mapping #0", "'d'", "'emp'", "INT", "DOUBLE"}) {
    EXPECT_NE(wrong.message().find(part), std::string::npos)
        << part << " in " << wrong.message();
  }
  EXPECT_TRUE(validate("d = 0.0000001").ok());
  // A number that is no INT or DOUBLE is a parse error, never a throw.
  for (const char* bad : {"n = 99999999999999999999", "d = 1.2.3", "n = -",
                          "d = 1e999"}) {
    EXPECT_EQ(ParseMappingLine(
                  std::string("Professor(x) <- SELECT eid FROM emp WHERE ") +
                      bad,
                  v)
                  .status()
                  .code(),
              StatusCode::kParseError)
        << bad;
  }
  EXPECT_FALSE(validate("n = 2.0").ok());
  EXPECT_FALSE(validate("n = '2'").ok());
  EXPECT_FALSE(validate("eid = 2").ok());
}

// Adversarial mapping texts: malformed heads, truncated SQL, unterminated
// literals, and junk must all surface as clean errors — never a crash.
TEST(MappingParserTest, AdversarialInputsNeverCrash) {
  auto v = Vocab();
  const char* cases[] = {
      "",
      "<-",
      "Professor",
      "Professor(x)",
      "Professor(x) <-",
      "Professor(x) <- SELECT",
      "Professor(x) <- SELECT eid",
      "Professor(x) <- SELECT eid FROM",
      "Professor(x) <- SELECT FROM emp",
      "Professor(x) <- SELECT eid FROM emp WHERE",
      "Professor(x) <- SELECT eid FROM emp WHERE rank =",
      "Professor(x) <- SELECT eid FROM emp WHERE rank = 'unterminated",
      "Professor(x) <- SELECT eid FROM emp WHERE = 'x'",
      "Professor(x) <- SELECT eid, FROM emp",
      "Professor(x) <- SELECT , FROM emp",
      "Professor( <- SELECT eid FROM emp",
      "Professor) <- SELECT eid FROM emp",
      "Professor() <- SELECT eid FROM emp",
      "(x) <- SELECT eid FROM emp",
      "Professor(x <- SELECT eid FROM emp",
      "Professor(x)) <- SELECT eid FROM emp",
      "Professor(x) <- <- SELECT eid FROM emp",
      "Professor(x) <- INSERT INTO emp",
      "Professor(x) <- SELECT eid FROM emp JOIN",
      "teaches(x, y) <- SELECT a, b FROM t WHERE t. = 'x'",
      "salary(x, '",
  };
  for (const char* text : cases) {
    auto m = ParseMappingLine(text, v);
    EXPECT_FALSE(m.ok()) << "accepted: \"" << text << "\"";
    StatusCode code = m.status().code();
    EXPECT_TRUE(code == StatusCode::kParseError ||
                code == StatusCode::kInvalidArgument ||
                code == StatusCode::kNotFound)
        << "\"" << text << "\" -> " << m.status().ToString();
  }
}

TEST(MappingParserTest, DeeplyNestedAndTruncatedDocuments) {
  auto v = Vocab();
  // A kilobyte of parens in the head.
  std::string nested(1024, '(');
  EXPECT_FALSE(ParseMappingLine("Professor" + nested, v).ok());
  // Truncations of a valid line parse or fail cleanly, never crash.
  std::string good =
      "teaches(x, y) <- SELECT a.pid, b.cid FROM ta a, tb b "
      "WHERE a.pid = b.pid AND a.rank = 'assistant'";
  ASSERT_TRUE(ParseMappingLine(good, v).ok());
  for (size_t len = 0; len < good.size(); ++len) {
    auto m = ParseMappingLine(good.substr(0, len), v);
    if (!m.ok()) {
      StatusCode code = m.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError ||
                  code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kNotFound)
          << "\"" << good.substr(0, len) << "\" -> " << m.status().ToString();
    }
  }
  // A document whose every line is garbage reports the first bad line.
  auto doc = ParseMappings("\x01\x02\x03\n\xff\xfe\n<<<>>>", v);
  EXPECT_FALSE(doc.ok());
}

TEST(MappingParserTest, DocumentWithCommentsAndBlankLines) {
  auto v = Vocab();
  auto set = ParseMappings(R"(
# professors
Professor(x) <- SELECT eid FROM emp

salary(x, v) <- SELECT eid, pay FROM emp
)",
                           v);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set->size(), 2u);
  EXPECT_EQ(set->For(TargetKind::kAttribute,
                     v.FindAttribute("salary").value())
                .size(),
            1u);
}

TEST(MappingParserTest, DocumentErrorsCarryLineNumbers) {
  auto v = Vocab();
  auto bad = ParseMappings("Professor(x) <- SELECT eid FROM emp\nGhost(x) "
                           "<- SELECT a FROM t\n",
                           v);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

// End to end: parse the mapping document and answer a query through it.
TEST(MappingParserTest, ParsedMappingsDriveTheObdaPipeline) {
  auto parsed = dllite::ParseOntology(R"(
concept Professor AssistantProf
role teaches
attribute salary
AssistantProf <= Professor
)");
  ASSERT_TRUE(parsed.ok());
  dllite::Ontology onto = std::move(parsed).value();

  rdb::Database db;
  ASSERT_TRUE(db.CreateTable({"emp",
                              {{"eid", rdb::ValueType::kString},
                               {"grade", rdb::ValueType::kString},
                               {"pay", rdb::ValueType::kInt}}})
                  .ok());
  ASSERT_TRUE(db.Insert("emp", {rdb::Value::Str("ada"),
                                rdb::Value::Str("full"),
                                rdb::Value::Int(90)})
                  .ok());
  ASSERT_TRUE(db.Insert("emp", {rdb::Value::Str("alan"),
                                rdb::Value::Str("asst"),
                                rdb::Value::Int(60)})
                  .ok());

  auto mappings = ParseMappings(R"(
Professor(x)     <- SELECT eid FROM emp
AssistantProf(x) <- SELECT eid FROM emp WHERE grade = 'asst'
salary(x, v)     <- SELECT eid, pay FROM emp
)",
                                onto.vocab());
  ASSERT_TRUE(mappings.ok()) << mappings.status().ToString();

  auto compiled = obda::CompiledOntology::Compile(
      std::move(onto), std::move(mappings).value(), std::move(db));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const obda::QueryEngine engine(*compiled);
  auto professors = engine.Answer("q(x) :- Professor(x)");
  ASSERT_TRUE(professors.ok());
  EXPECT_EQ(professors->size(), 2u);
  auto assistants = engine.Answer("q(x) :- AssistantProf(x)");
  ASSERT_TRUE(assistants.ok());
  ASSERT_EQ(assistants->size(), 1u);
  EXPECT_EQ((*assistants)[0][0], "alan");
}

}  // namespace
}  // namespace olite::mapping
