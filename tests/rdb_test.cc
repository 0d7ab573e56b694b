#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/fault_injection.h"
#include "rdb/query.h"
#include "rdb/stats.h"
#include "rdb/table.h"

namespace olite::rdb {
namespace {

Database UniversityDb() {
  Database db;
  EXPECT_TRUE(db.CreateTable({"professor",
                              {{"id", ValueType::kString},
                               {"name", ValueType::kString},
                               {"dept", ValueType::kString}}})
                  .ok());
  EXPECT_TRUE(db.CreateTable({"teaches",
                              {{"prof_id", ValueType::kString},
                               {"course_id", ValueType::kInt}}})
                  .ok());
  EXPECT_TRUE(db.CreateTable({"course",
                              {{"id", ValueType::kInt},
                               {"title", ValueType::kString}}})
                  .ok());
  EXPECT_TRUE(db.Insert("professor", {Value::Str("p1"), Value::Str("Ada"),
                                      Value::Str("CS")})
                  .ok());
  EXPECT_TRUE(db.Insert("professor", {Value::Str("p2"), Value::Str("Alan"),
                                      Value::Str("Math")})
                  .ok());
  EXPECT_TRUE(db.Insert("teaches", {Value::Str("p1"), Value::Int(101)}).ok());
  EXPECT_TRUE(db.Insert("teaches", {Value::Str("p1"), Value::Int(102)}).ok());
  EXPECT_TRUE(db.Insert("teaches", {Value::Str("p2"), Value::Int(201)}).ok());
  EXPECT_TRUE(db.Insert("course", {Value::Int(101), Value::Str("DB")}).ok());
  EXPECT_TRUE(db.Insert("course", {Value::Int(102), Value::Str("AI")}).ok());
  EXPECT_TRUE(db.Insert("course", {Value::Int(201), Value::Str("Logic")}).ok());
  return db;
}

TEST(ValueTest, OrderingAndToString) {
  EXPECT_TRUE(Value::Int(1) < Value::Int(2));
  EXPECT_TRUE(Value::Str("a") < Value::Str("b"));
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Str("it's").ToString(), "'it''s'");
  EXPECT_EQ(Value::Str("x").type(), ValueType::kString);
}

TEST(TableTest, SchemaValidationOnInsert) {
  Table t({"t", {{"a", ValueType::kInt}, {"b", ValueType::kString}}});
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::Str("x")}).ok());
  EXPECT_EQ(t.Insert({Value::Int(1)}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.Insert({Value::Str("x"), Value::Str("y")}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.NumRows(), 1u);
}

TEST(DatabaseTest, TableManagement) {
  Database db;
  EXPECT_TRUE(db.CreateTable({"t", {{"a", ValueType::kInt}}}).ok());
  EXPECT_EQ(db.CreateTable({"t", {{"a", ValueType::kInt}}}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.CreateTable({"", {}}).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(db.HasTable("t"));
  EXPECT_FALSE(db.GetTable("nope").ok());
  EXPECT_EQ(db.Insert("nope", {}).code(), StatusCode::kNotFound);
  EXPECT_NE(db.SchemaToString().find("CREATE TABLE t (a INT);"),
            std::string::npos);
}

TEST(QueryTest, SimpleScanAndFilter) {
  Database db = UniversityDb();
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"professor"};
  b.select = {{0, "name"}};
  b.filters = {{{0, "dept"}, Value::Str("CS")}};
  q.blocks.push_back(b);
  auto rows = Execute(db, q);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value::Str("Ada"));
}

TEST(QueryTest, JoinAcrossTables) {
  Database db = UniversityDb();
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"professor", "teaches", "course"};
  b.select = {{0, "name"}, {2, "title"}};
  b.joins = {{{0, "id"}, {1, "prof_id"}}, {{1, "course_id"}, {2, "id"}}};
  q.blocks.push_back(b);
  auto rows = Execute(db, q);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 3u);
}

TEST(QueryTest, UnionDeduplicates) {
  Database db = UniversityDb();
  SqlQuery q;
  SelectBlock b1;
  b1.from_tables = {"professor"};
  b1.select = {{0, "id"}};
  SelectBlock b2 = b1;  // identical block: union must not duplicate
  q.blocks = {b1, b2};
  auto rows = Execute(db, q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(QueryTest, ArityMismatchAcrossUnionFails) {
  Database db = UniversityDb();
  SqlQuery q;
  SelectBlock b1;
  b1.from_tables = {"professor"};
  b1.select = {{0, "id"}};
  SelectBlock b2;
  b2.from_tables = {"professor"};
  b2.select = {{0, "id"}, {0, "name"}};
  q.blocks = {b1, b2};
  EXPECT_EQ(Execute(db, q).status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryTest, ErrorsOnUnknownTableOrColumn) {
  Database db = UniversityDb();
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"ghost"};
  b.select = {{0, "id"}};
  q.blocks = {b};
  EXPECT_EQ(Execute(db, q).status().code(), StatusCode::kNotFound);

  SqlQuery q2;
  SelectBlock b2;
  b2.from_tables = {"professor"};
  b2.select = {{0, "ghost_col"}};
  q2.blocks = {b2};
  EXPECT_EQ(Execute(db, q2).status().code(), StatusCode::kNotFound);

  SqlQuery q3;
  SelectBlock b3;
  b3.from_tables = {"professor"};
  b3.select = {{5, "id"}};
  q3.blocks = {b3};
  EXPECT_EQ(Execute(db, q3).status().code(), StatusCode::kOutOfRange);
}

TEST(QueryTest, BooleanQueryYieldsOneEmptyRowWhenNonEmpty) {
  Database db = UniversityDb();
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"professor"};
  b.filters = {{{0, "dept"}, Value::Str("CS")}};
  q.blocks = {b};
  auto rows = Execute(db, q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_TRUE((*rows)[0].empty());

  SqlQuery q2 = q;
  q2.blocks[0].filters[0].value = Value::Str("Philosophy");
  auto rows2 = Execute(db, q2);
  ASSERT_TRUE(rows2.ok());
  EXPECT_TRUE(rows2->empty());
}

TEST(QueryTest, SelfJoinWithTwoAliases) {
  Database db = UniversityDb();
  // Professors sharing a department: professor t0, professor t1.
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"professor", "professor"};
  b.select = {{0, "name"}, {1, "name"}};
  b.joins = {{{0, "dept"}, {1, "dept"}}};
  q.blocks = {b};
  auto rows = Execute(db, q);
  ASSERT_TRUE(rows.ok());
  // (Ada,Ada), (Alan,Alan) — no cross-department pair.
  EXPECT_EQ(rows->size(), 2u);
}

TEST(QueryTest, ToStringRendersSql) {
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"professor", "teaches"};
  b.select = {{0, "name"}};
  b.joins = {{{0, "id"}, {1, "prof_id"}}};
  b.filters = {{{1, "course_id"}, Value::Int(101)}};
  q.blocks = {b};
  std::string sql = q.ToString();
  EXPECT_NE(sql.find("SELECT t0.name"), std::string::npos);
  EXPECT_NE(sql.find("FROM professor t0, teaches t1"), std::string::npos);
  EXPECT_NE(sql.find("WHERE t0.id = t1.prof_id"), std::string::npos);
  EXPECT_NE(sql.find("AND t1.course_id = 101"), std::string::npos);
}

TEST(ValueTest, HashIsTypeTaggedAndConsistent) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  EXPECT_EQ(Value::Str("ab").Hash(), Value::Str("ab").Hash());
  EXPECT_NE(Value::Int(0).Hash(), Value::Double(0.0).Hash());
  EXPECT_NE(Value::Int(1).Hash(), Value::Str("1").Hash());
}

// ---------------------------------------------------------------------------
// Value identity: same type and same `ToName`
// ---------------------------------------------------------------------------

/// Values whose identity is easy to get wrong: ±0.0, NaNs of both signs and
/// two payloads, infinities, and numbers and texts that render alike.
std::vector<Value> EdgeValues() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  return {Value::Int(0),
          Value::Int(7),
          Value::Int(-5),
          Value::Double(0.0),
          Value::Double(-0.0),
          Value::Double(nan),
          Value::Double(std::bit_cast<double>(0x7ff8000000000001ULL)),
          Value::Double(-nan),
          Value::Double(inf),
          Value::Double(-inf),
          Value::Double(1.5),
          Value::Double(-5.0),
          Value::Str(""),
          Value::Str("0"),
          Value::Str("nan")};
}

bool SameName(const Value& a, const Value& b) {
  return a.type() == b.type() && a.ToName() == b.ToName();
}

TEST(ValueIdentity, EqualityIsSameTypeAndSameName) {
  for (const Value& a : EdgeValues()) {
    for (const Value& b : EdgeValues()) {
      EXPECT_EQ(a == b, SameName(a, b))
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST(ValueIdentity, OrderIsTotalAndAgreesWithEquality) {
  const std::vector<Value> vs = EdgeValues();
  for (const Value& a : vs) {
    for (const Value& b : vs) {
      EXPECT_EQ((a < b) + (b < a) + (a == b), 1)
          << a.ToString() << " vs " << b.ToString();
      for (const Value& c : vs) {
        if (a < b && b < c) {
          EXPECT_TRUE(a < c);
        }
      }
    }
  }
  std::vector<Value> doubles;
  for (const Value& v : vs) {
    if (v.type() == ValueType::kDouble) doubles.push_back(v);
  }
  std::sort(doubles.begin(), doubles.end());
  std::string order;
  for (const Value& v : doubles) order += v.ToName() + " ";
  EXPECT_EQ(order, "-nan -inf -5 -0 0 1.5 inf nan nan ");
}

TEST(ValueIdentity, HashAgreesWithEquality) {
  for (const Value& a : EdgeValues()) {
    for (const Value& b : EdgeValues()) {
      if (a == b) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString();
      }
    }
  }
  const std::vector<Value> vs = EdgeValues();
  std::unordered_set<Value, ValueHasher> set(vs.begin(), vs.end());
  EXPECT_EQ(set.size(), vs.size() - 1);  // the two +NaN payloads are one
}

TEST(ValueIdentity, DictionaryAndDistinctFollowEquality) {
  ValueDictionary dict;
  std::vector<uint32_t> ids;
  for (const Value& v : EdgeValues()) ids.push_back(dict.Intern(v));
  const std::vector<Value> vs = EdgeValues();
  for (size_t a = 0; a < vs.size(); ++a) {
    EXPECT_EQ(dict.Find(vs[a]), ids[a]);
    for (size_t b = 0; b < vs.size(); ++b) {
      EXPECT_EQ(ids[a] == ids[b], vs[a] == vs[b])
          << vs[a].ToString() << " vs " << vs[b].ToString();
    }
  }
  Database db;
  ASSERT_TRUE(db.CreateTable({"t", {{"d", ValueType::kDouble}}}).ok());
  for (const Value& v : vs) {
    if (v.type() == ValueType::kDouble) {
      ASSERT_TRUE(db.Insert("t", {v}).ok());
    }
  }
  const DatabaseStats stats = DatabaseStats::Collect(db);
  EXPECT_EQ(stats.Find("t")->Distinct(0), 8u);  // 9 cells, one NaN twice
}

TEST(ValueIdentity, FromNameInvertsToName) {
  for (const Value& v : EdgeValues()) {
    EXPECT_EQ(Value::FromName(v.ToName(), v.type()), v) << v.ToString();
  }
  // Other spellings of a number name no value of its type.
  for (const char* name : {"007", "+7", "7.0", "1e5", " 7", "7x", ""}) {
    EXPECT_FALSE(Value::FromName(name, ValueType::kInt)) << name;
  }
  for (const char* name : {"1.50", "1e5", "-0.0", "NaN", "nan(1)", "0x1"}) {
    EXPECT_FALSE(Value::FromName(name, ValueType::kDouble)) << name;
  }
  EXPECT_FALSE(Value::FromName("99999999999999999999", ValueType::kInt));
  EXPECT_EQ(Value::FromName("007", ValueType::kString), Value::Str("007"));
}

/// Rows of `q` under the nested-loop engine, and under the columnar engine
/// with and without the source index.
std::vector<std::vector<Row>> RowsUnderEveryEngine(const Database& db,
                                                   const SqlQuery& q) {
  const DatabaseStats stats = DatabaseStats::Collect(db);
  std::vector<std::vector<Row>> out;
  const SourceIndex* none = nullptr;
  for (const SourceIndex* index : {stats.index(), none}) {
    for (EvalEngine engine : {EvalEngine::kNestedLoop, EvalEngine::kColumnar}) {
      EvalOptions opts;
      opts.engine = engine;
      opts.index = index;
      auto rows = Execute(db, q, opts);
      EXPECT_TRUE(rows.ok()) << rows.status().ToString();
      out.push_back(rows.ok() ? *rows : std::vector<Row>{});
    }
  }
  return out;
}

TEST(ValueIdentity, EnginesJoinFilterAndProjectAlike) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Database db;
  ASSERT_TRUE(db.CreateTable({"t",
                              {{"d", ValueType::kDouble},
                               {"k", ValueType::kInt}}})
                  .ok());
  const double ds[] = {0.0, -0.0, nan, nan, 1.0};
  for (int64_t k = 0; k < 5; ++k) {
    ASSERT_TRUE(db.Insert("t", {Value::Double(ds[k]), Value::Int(k)}).ok());
  }
  auto names = [](const std::vector<Row>& rows) {
    std::string out;
    for (const Row& row : rows) {
      for (const Value& v : row) out += v.ToName() + " ";
      out += "| ";
    }
    return out;
  };
  auto expect_everywhere = [&](const SelectBlock& b, const std::string& want) {
    SqlQuery q;
    q.blocks.push_back(b);
    for (const auto& rows : RowsUnderEveryEngine(db, q)) {
      EXPECT_EQ(names(rows), want) << q.ToString();
    }
  };
  SelectBlock join;
  join.from_tables = {"t", "t"};
  join.select = {{0, "d"}, {1, "k"}};
  join.joins = {{{0, "d"}, {1, "d"}}};
  expect_everywhere(join, "-0 1 | 0 0 | 1 4 | nan 2 | nan 3 | ");
  SelectBlock project;
  project.from_tables = {"t"};
  project.select = {{0, "d"}};
  expect_everywhere(project, "-0 | 0 | 1 | nan | ");
  SelectBlock filter = project;
  filter.select = {{0, "k"}};
  filter.filters = {{{0, "d"}, Value::Double(-0.0)}};
  expect_everywhere(filter, "1 | ");
  filter.filters = {{{0, "d"}, Value::Double(-nan)}};
  expect_everywhere(filter, "");
  filter.filters = {{{0, "d"}, Value::Double(nan)}};
  expect_everywhere(filter, "2 | 3 | ");
}

TEST(StatsTest, CollectCountsRowsAndDistincts) {
  Database db = UniversityDb();
  DatabaseStats stats = DatabaseStats::Collect(db);
  const TableStats* teaches = stats.Find("teaches");
  ASSERT_NE(teaches, nullptr);
  EXPECT_EQ(teaches->rows, 3u);
  EXPECT_EQ(teaches->Distinct(0), 2u);  // prof_id: p1, p2
  EXPECT_EQ(teaches->Distinct(1), 3u);  // course_id: 101, 102, 201
  EXPECT_EQ(teaches->Distinct(99), 1u);  // unknown column: safe denominator
  EXPECT_EQ(stats.Find("nope"), nullptr);
}

// Evaluates `q` under one explicitly selected engine.
Result<std::vector<Row>> RunWith(const Database& db, const SqlQuery& q,
                                 EvalEngine engine, EvalStats* stats = nullptr,
                                 uint64_t seed = 0) {
  EvalOptions opts;
  opts.engine = engine;
  opts.eval_stats = stats;
  opts.join_order_seed = seed;
  return Execute(db, q, opts);
}

SqlQuery ProfessorCoursesQuery() {
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"professor", "teaches", "course"};
  b.select = {{0, "name"}, {2, "title"}};
  b.joins = {{{0, "id"}, {1, "prof_id"}}, {{1, "course_id"}, {2, "id"}}};
  q.blocks.push_back(b);
  return q;
}

TEST(ColumnarTest, EnginesAgreeOnJoinQuery) {
  Database db = UniversityDb();
  SqlQuery q = ProfessorCoursesQuery();
  EvalStats cstats, nstats;
  auto col = RunWith(db, q, EvalEngine::kColumnar, &cstats);
  auto nested = RunWith(db, q, EvalEngine::kNestedLoop, &nstats);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ(*col, *nested);
  EXPECT_EQ(col->size(), 3u);
  EXPECT_STREQ(cstats.engine, "columnar");
  EXPECT_STREQ(nstats.engine, "nested_loop");
  EXPECT_GT(cstats.batches, 0u);
  EXPECT_GT(cstats.rows_scanned, 0u);
  EXPECT_EQ(nstats.batches, 0u);
}

TEST(ColumnarTest, JoinOrderSeedNeverChangesAnswers) {
  Database db = UniversityDb();
  SqlQuery q = ProfessorCoursesQuery();
  auto baseline = RunWith(db, q, EvalEngine::kColumnar);
  ASSERT_TRUE(baseline.ok());
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    auto shuffled = RunWith(db, q, EvalEngine::kColumnar, nullptr, seed);
    ASSERT_TRUE(shuffled.ok()) << shuffled.status().ToString();
    EXPECT_EQ(*shuffled, *baseline) << "seed " << seed;
  }
}

TEST(ColumnarTest, SharedPrefixEvaluatedOnceAcrossUnionBlocks) {
  Database db = UniversityDb();
  // Two blocks whose first step is the identical filtered scan + join
  // prefix over (professor ⋈ teaches); only the final course filter
  // differs. The shared-subplan cache must materialise the prefix once.
  SqlQuery q;
  for (int course : {101, 201}) {
    SelectBlock b;
    b.from_tables = {"professor", "teaches"};
    b.select = {{0, "name"}};
    b.joins = {{{0, "id"}, {1, "prof_id"}}};
    b.filters = {{{1, "course_id"}, Value::Int(course)}};
    q.blocks.push_back(b);
  }
  // Shared prefixes are discovered on the resolved plan, so the common
  // "professor" scan (step 0 of both blocks) is computed once.
  auto plan = PreparedPlan::Prepare(db, q);
  ASSERT_TRUE(plan.ok());
  EvalStats stats;
  EvalOptions opts;
  opts.engine = EvalEngine::kColumnar;
  opts.eval_stats = &stats;
  auto rows = Execute(*plan, opts);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GE(stats.shared_nodes, 1u);
  EXPECT_GE(stats.shared_node_hits, 1u);
  auto nested = RunWith(db, q, EvalEngine::kNestedLoop);
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(*rows, *nested);
}

TEST(ColumnarTest, StatisticsReorderSelectiveTableFirst) {
  Database db;
  ASSERT_TRUE(db.CreateTable({"big", {{"x", ValueType::kInt},
                                      {"pad", ValueType::kInt}}})
                  .ok());
  ASSERT_TRUE(
      db.CreateTable({"small", {{"x", ValueType::kInt},
                                {"tag", ValueType::kString}}})
          .ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Insert("big", {Value::Int(i), Value::Int(i % 7)}).ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        db.Insert("small", {Value::Int(i * 10), Value::Str("keep")}).ok());
  }
  DatabaseStats stats = DatabaseStats::Collect(db);
  // Written with the unselective big table first; the cost-based order
  // should start from the filtered small table instead.
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"big", "small"};
  b.select = {{0, "x"}};
  b.joins = {{{0, "x"}, {1, "x"}}};
  b.filters = {{{1, "tag"}, Value::Str("keep")}};
  q.blocks.push_back(b);
  PrepareOptions popts;
  popts.stats = &stats;
  auto plan = PreparedPlan::Prepare(db, q, popts);
  ASSERT_TRUE(plan.ok());
  EvalStats estats;
  EvalOptions opts;
  opts.engine = EvalEngine::kColumnar;
  opts.eval_stats = &estats;
  auto rows = Execute(*plan, opts);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(estats.join_reorders, 1u);
  auto nested = RunWith(db, q, EvalEngine::kNestedLoop);
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(*rows, *nested);
  EXPECT_EQ(rows->size(), 5u);
}

TEST(ColumnarTest, RowCapTruncatesWithDegradationUnderBothEngines) {
  Database db = UniversityDb();
  SqlQuery q = ProfessorCoursesQuery();
  for (EvalEngine engine : {EvalEngine::kColumnar, EvalEngine::kNestedLoop}) {
    EvalOptions opts;
    opts.engine = engine;
    opts.max_rows = 2;
    auto hard = Execute(db, q, opts);
    EXPECT_EQ(hard.status().code(), StatusCode::kResourceExhausted)
        << EvalEngineName(engine);
    Degradation degradation;
    opts.allow_partial = true;
    opts.degradation = &degradation;
    auto soft = Execute(db, q, opts);
    ASSERT_TRUE(soft.ok()) << soft.status().ToString();
    EXPECT_EQ(soft->size(), 2u) << EvalEngineName(engine);
    EXPECT_FALSE(degradation.events.empty());
    // The truncated result is a subset of the full answers.
    auto full = RunWith(db, q, engine);
    ASSERT_TRUE(full.ok());
    for (const Row& row : *soft) {
      EXPECT_NE(std::find(full->begin(), full->end(), row), full->end());
    }
  }
}

TEST(ColumnarTest, CrossProductBlockAgreesAcrossEngines) {
  Database db = UniversityDb();
  SqlQuery q;
  SelectBlock b;  // no join predicate between the two FROM entries
  b.from_tables = {"professor", "course"};
  b.select = {{0, "name"}, {1, "title"}};
  q.blocks.push_back(b);
  auto col = RunWith(db, q, EvalEngine::kColumnar);
  auto nested = RunWith(db, q, EvalEngine::kNestedLoop);
  ASSERT_TRUE(col.ok());
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(*col, *nested);
  EXPECT_EQ(col->size(), 6u);  // 2 professors × 3 courses
}


// ---------------------------------------------------------------------------
// SourceIndex and indexed equality scans
// ---------------------------------------------------------------------------

TEST(SourceIndexTest, RangesDistinctsAndForeignTables) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Database db;
  ASSERT_TRUE(db.CreateTable({"t",
                              {{"i", ValueType::kInt},
                               {"d", ValueType::kDouble},
                               {"s", ValueType::kString}}})
                  .ok());
  const std::tuple<int64_t, double, const char*> rows[] = {
      {1, 0.0, "a"}, {2, -0.0, "b"}, {1, nan, "a"}, {3, nan, "a'"},
      {1, 1.0, "b"}};
  for (const auto& [i, d, str] : rows) {
    ASSERT_TRUE(
        db.Insert("t", {Value::Int(i), Value::Double(d), Value::Str(str)})
            .ok());
  }
  DatabaseStats stats = DatabaseStats::Collect(db);
  ASSERT_NE(stats.index(), nullptr);
  const SourceIndex& index = *stats.index();
  const Table& t = **db.GetTable("t");
  auto rows_of = [&](size_t col, const Value& v) {
    auto span = index.EqualRows(t, col, v);
    EXPECT_TRUE(span.has_value());
    return span ? std::vector<uint32_t>(span->begin(), span->end())
                : std::vector<uint32_t>{};
  };
  EXPECT_EQ(rows_of(0, Value::Int(1)), (std::vector<uint32_t>{0, 2, 4}));
  EXPECT_EQ(rows_of(2, Value::Str("a")), (std::vector<uint32_t>{0, 2}));
  EXPECT_TRUE(rows_of(0, Value::Int(9)).empty());       // absent value
  EXPECT_TRUE(rows_of(0, Value::Str("a")).empty());     // other column's
  EXPECT_TRUE(rows_of(0, Value::Double(1.0)).empty());  // Int(1) ≠ 1.0
  // Value identity: ±0.0 apart, NaN payloads of one sign together.
  EXPECT_EQ(rows_of(1, Value::Double(-0.0)), (std::vector<uint32_t>{1}));
  EXPECT_EQ(rows_of(1, Value::Double(nan)), (std::vector<uint32_t>{2, 3}));
  const TableStats* ts = stats.Find("t");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->Distinct(0), 3u);
  EXPECT_EQ(ts->Distinct(1), 4u);  // 0.0, -0.0, NaN, 1.0
  EXPECT_EQ(ts->Distinct(2), 3u);
  // An equal table elsewhere, or this one after a write, is not indexed.
  Database copy = db;
  EXPECT_FALSE(index.EqualRows(**copy.GetTable("t"), 0, Value::Int(1)));
  ASSERT_TRUE(
      db.Insert("t", {Value::Int(1), Value::Double(2.0), Value::Str("c")})
          .ok());
  EXPECT_FALSE(index.EqualRows(t, 0, Value::Int(1)));
}

/// Renders result rows type-tagged, so a failed comparison prints them.
std::vector<std::string> Rendered(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    std::string r;
    for (const Value& v : row) {
      r += ValueTypeName(v.type());
      r += v.ToString();
      r += '|';
    }
    out.push_back(std::move(r));
  }
  return out;
}

// Random tables over small INT/TEXT/DOUBLE domains (±0.0 and ±NaN among
// them) and random select
// blocks (present, absent and cross-type constants, several filters,
// self-equalities, joins): the indexed columnar scan must return what the
// full columnar scan and the nested-loop engine return.
TEST(SourceIndexTest, IndexedScanEqualsFullScanAndNestedLoop) {
  std::mt19937_64 rng(20261019);
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  const std::vector<Value> ints = {Value::Int(0), Value::Int(1),
                                   Value::Int(2), Value::Int(7)};
  const std::vector<Value> texts = {Value::Str("x"), Value::Str("y"),
                                    Value::Str("a'b"), Value::Str("\x1f")};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> doubles = {
      Value::Double(0.0), Value::Double(-0.0), Value::Double(1.0),
      Value::Double(2.5), Value::Double(nan),  Value::Double(-nan)};
  const std::vector<Value> absent = {Value::Int(99), Value::Str("absent"),
                                     Value::Double(9.5)};
  const std::vector<Column> cols = {{"i", ValueType::kInt},
                                    {"s", ValueType::kString},
                                    {"d", ValueType::kDouble},
                                    {"j", ValueType::kInt}};
  auto domain = [&](size_t c) -> const std::vector<Value>& {
    return c == 1 ? texts : c == 2 ? doubles : ints;
  };
  Database db;
  for (const char* name : {"t0", "t1"}) {
    ASSERT_TRUE(db.CreateTable({name, cols}).ok());
    const size_t n = name[1] == '0' ? 1500 : 100;  // t0 spans batches
    for (size_t r = 0; r < n; ++r) {
      Row row;
      for (size_t c = 0; c < cols.size(); ++c) {
        row.push_back(domain(c)[pick(domain(c).size())]);
      }
      ASSERT_TRUE(db.Insert(name, std::move(row)).ok());
    }
  }
  const DatabaseStats stats = DatabaseStats::Collect(db);
  int narrowed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    SelectBlock b;
    b.from_tables = {"t0"};
    if (pick(3) == 0) b.from_tables.push_back("t1");
    const size_t ntables = b.from_tables.size();
    for (size_t k = 0; k < 1 + pick(2); ++k) {
      b.select.push_back({pick(ntables), cols[pick(cols.size())].name});
    }
    for (size_t k = 0; k < pick(4); ++k) {
      const size_t c = pick(cols.size());
      const size_t how = pick(6);
      Value v = how == 0   ? absent[pick(absent.size())]
                : how == 1 ? domain(pick(cols.size()))[0]  // maybe cross-type
                           : domain(c)[pick(domain(c).size())];
      b.filters.push_back({{pick(ntables), cols[c].name}, std::move(v)});
    }
    if (pick(4) == 0) b.joins.push_back({{0, "i"}, {0, "j"}});  // self-eq
    if (ntables == 2) {
      const size_t c = pick(cols.size());
      b.joins.push_back({{0, cols[c].name}, {1, cols[c].name}});
    }
    SqlQuery q;
    q.blocks.push_back(b);
    if (pick(3) == 0) {  // a second block sharing the scan
      SelectBlock b2 = b;
      b2.filters.push_back({{0, "s"}, texts[pick(texts.size())]});
      q.blocks.push_back(b2);
    }
    EvalStats full_stats, indexed_stats;
    EvalOptions opts;
    opts.engine = EvalEngine::kColumnar;
    opts.eval_stats = &full_stats;
    auto full = Execute(db, q, opts);
    opts.index = stats.index();
    opts.eval_stats = &indexed_stats;
    auto indexed = Execute(db, q, opts);
    auto nested = RunWith(db, q, EvalEngine::kNestedLoop);
    ASSERT_TRUE(full.ok() && indexed.ok() && nested.ok()) << q.ToString();
    EXPECT_EQ(Rendered(*indexed), Rendered(*full)) << q.ToString();
    EXPECT_EQ(Rendered(*indexed), Rendered(*nested)) << q.ToString();
    EXPECT_LE(indexed_stats.rows_scanned, full_stats.rows_scanned);
    if (indexed_stats.rows_scanned < full_stats.rows_scanned) ++narrowed;
  }
  // The index must actually have narrowed scans.
  EXPECT_GT(narrowed, 100);
}

// The indexed scan fires the fault site once per batch of the rows it
// reads: a failure planted at any of its hits fails the evaluation.
TEST(SourceIndexTest, FaultSiteFiresPerBatchOfTheIndexedRange) {
  Database db;
  ASSERT_TRUE(db.CreateTable({"t",
                              {{"k", ValueType::kString},
                               {"v", ValueType::kInt}}})
                  .ok());
  for (int64_t r = 0; r < 5000; ++r) {
    ASSERT_TRUE(
        db.Insert("t", {Value::Str(r % 2 == 0 ? "even" : "odd"), Value::Int(r)})
            .ok());
  }
  const DatabaseStats stats = DatabaseStats::Collect(db);
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"t"};
  b.select = {{0, "v"}};
  b.filters = {{{0, "k"}, Value::Str("even")}};
  q.blocks.push_back(b);
  EvalOptions opts;
  opts.engine = EvalEngine::kColumnar;
  opts.index = stats.index();
  auto& injector = fault::Injector::Global();
  injector.Arm(fault::Site::kRdbExecute, {});
  auto clean = Execute(db, q, opts);
  const uint64_t hits = injector.hits(fault::Site::kRdbExecute);
  injector.DisarmAll();
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->size(), 2500u);
  // One block hit, ceil(2500 / 1024) = 3 scan batches and 3 projection
  // batches: the full scan would read ceil(5000 / 1024) = 5 batches.
  EXPECT_EQ(hits, 1u + 3u + 3u);
  for (uint64_t n = 1; n <= hits; ++n) {
    fault::FaultPlan plan;
    plan.fail_every = n;
    injector.Arm(fault::Site::kRdbExecute, plan);
    auto failed = Execute(db, q, opts);
    injector.DisarmAll();
    EXPECT_EQ(failed.status().code(), StatusCode::kInternal) << "hit " << n;
  }
}

}  // namespace
}  // namespace olite::rdb
