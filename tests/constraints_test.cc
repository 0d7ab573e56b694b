// Unit tests for obda::SourceConstraints — the constraint-inference pass
// that derives exact mappings, extension inclusions, empty/dominated views
// and key columns from a frozen OBDA specification — plus a nested-loop
// referee of its superset search and a never-crash fuzz through the rdb
// fault-injection site.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "benchgen/workload.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/rng.h"
#include "mapping/mapping.h"
#include "obda/compiled_ontology.h"
#include "obda/constraints.h"
#include "obda/delta.h"
#include "obda/query_engine.h"
#include "rdb/query.h"
#include "rdb/stats.h"
#include "rdb/table.h"

namespace olite::obda {
namespace {

using mapping::MappingAssertion;
using mapping::MappingSet;
using query::Atom;
using rdb::Database;
using rdb::SelectBlock;
using rdb::Value;
using rdb::ValueType;

SelectBlock TableBlock(const std::string& table, bool binary) {
  SelectBlock block;
  block.from_tables = {table};
  block.select = {{0, "s"}};
  if (binary) block.select.push_back({0, "o"});
  return block;
}

std::unique_ptr<const SourceConstraints> InferOver(
    const MappingSet& mappings, const Database& db,
    const ConstraintInferenceOptions& options = {}) {
  return SourceConstraints::Infer(mappings, db,
                                  rdb::DatabaseStats::Collect(db), options);
}

TEST(SourceConstraints, UnmappedPredicateIsProvablyEmpty) {
  Database db;
  MappingSet mappings;
  auto sc = InferOver(mappings, db);
  // No mapping assertion retrieves anything for concept 7.
  EXPECT_TRUE(sc->Empty(Atom::Kind::kConcept, 7));
  EXPECT_TRUE(sc->Empty(Atom::Kind::kRole, 0));
  // Inclusion is reflexive, and an empty predicate is included in anything.
  EXPECT_TRUE(sc->Included(Atom::Kind::kConcept, 7, 7));
  EXPECT_TRUE(sc->Included(Atom::Kind::kConcept, 7, 3));
}

TEST(SourceConstraints, EmptyAndNonEmptyExtensions) {
  Database db;
  ASSERT_TRUE(db.CreateTable({"empty_t", {{"s", ValueType::kString}}}).ok());
  ASSERT_TRUE(db.CreateTable({"full_t", {{"s", ValueType::kString}}}).ok());
  ASSERT_TRUE(db.Insert("full_t", {Value::Str("a")}).ok());
  MappingSet mappings;
  ASSERT_TRUE(
      mappings.Add(MappingAssertion::ForConcept(0, TableBlock("empty_t",
                                                              false)))
          .ok());
  ASSERT_TRUE(
      mappings.Add(MappingAssertion::ForConcept(1, TableBlock("full_t",
                                                              false)))
          .ok());
  auto sc = InferOver(mappings, db);
  EXPECT_TRUE(sc->Empty(Atom::Kind::kConcept, 0));
  EXPECT_FALSE(sc->Empty(Atom::Kind::kConcept, 1));
  EXPECT_EQ(sc->summary().empty_predicates, 1u);
  EXPECT_TRUE(sc->summary().complete);
  // Empty ⊆ anything, but not the reverse.
  EXPECT_TRUE(sc->Included(Atom::Kind::kConcept, 0, 1));
  EXPECT_FALSE(sc->Included(Atom::Kind::kConcept, 1, 0));
}

TEST(SourceConstraints, InclusionBetweenFilteredViews) {
  Database db;
  ASSERT_TRUE(db.CreateTable({"prof",
                              {{"s", ValueType::kString},
                               {"rank", ValueType::kString}}})
                  .ok());
  ASSERT_TRUE(db.Insert("prof", {Value::Str("ada"), Value::Str("full")}).ok());
  ASSERT_TRUE(
      db.Insert("prof", {Value::Str("alan"), Value::Str("assistant")}).ok());
  MappingSet mappings;
  SelectBlock all = TableBlock("prof", false);
  SelectBlock assistants = all;
  assistants.filters = {{{0, "rank"}, Value::Str("assistant")}};
  ASSERT_TRUE(mappings.Add(MappingAssertion::ForConcept(0, all)).ok());
  ASSERT_TRUE(mappings.Add(MappingAssertion::ForConcept(1, assistants)).ok());
  auto sc = InferOver(mappings, db);
  // ext(1) = {alan} ⊆ ext(0) = {ada, alan}; the reverse does not hold.
  EXPECT_TRUE(sc->Included(Atom::Kind::kConcept, 1, 0));
  EXPECT_FALSE(sc->Included(Atom::Kind::kConcept, 0, 1));
  EXPECT_EQ(sc->summary().inclusions, 1u);
}

TEST(SourceConstraints, ExactMappingAndDominatedDuplicateView) {
  Database db;
  ASSERT_TRUE(db.CreateTable({"t", {{"s", ValueType::kString}}}).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Str("a")}).ok());
  MappingSet mappings;
  ASSERT_TRUE(
      mappings.Add(MappingAssertion::ForConcept(0, TableBlock("t", false)))
          .ok());
  ASSERT_TRUE(
      mappings.Add(MappingAssertion::ForConcept(0, TableBlock("t", false)))
          .ok());
  auto sc = InferOver(mappings, db);
  // The duplicate view is dominated; ties retain the earliest index, so
  // the predicate is still covered — by exactly one view.
  EXPECT_FALSE(sc->DominatedView(0));
  EXPECT_TRUE(sc->DominatedView(1));
  EXPECT_TRUE(sc->ExactMapping(Atom::Kind::kConcept, 0));
  EXPECT_EQ(sc->summary().dominated_views, 1u);
  EXPECT_EQ(sc->summary().exact_mappings, 1u);
}

TEST(SourceConstraints, InverseInclusionForRoles) {
  Database db;
  ASSERT_TRUE(db.CreateTable(
                    {"sym",
                     {{"s", ValueType::kString}, {"o", ValueType::kString}}})
                  .ok());
  ASSERT_TRUE(db.Insert("sym", {Value::Str("a"), Value::Str("b")}).ok());
  ASSERT_TRUE(db.Insert("sym", {Value::Str("b"), Value::Str("a")}).ok());
  ASSERT_TRUE(db.CreateTable(
                    {"asym",
                     {{"s", ValueType::kString}, {"o", ValueType::kString}}})
                  .ok());
  ASSERT_TRUE(db.Insert("asym", {Value::Str("a"), Value::Str("b")}).ok());
  MappingSet mappings;
  ASSERT_TRUE(
      mappings.Add(MappingAssertion::ForRole(0, TableBlock("sym", true)))
          .ok());
  ASSERT_TRUE(
      mappings.Add(MappingAssertion::ForRole(1, TableBlock("asym", true)))
          .ok());
  auto sc = InferOver(mappings, db);
  // Role 0 is symmetric in the data: swap(ext(0)) ⊆ ext(0).
  EXPECT_TRUE(sc->IncludedInverse(Atom::Kind::kRole, 0, 0));
  EXPECT_FALSE(sc->IncludedInverse(Atom::Kind::kRole, 1, 1));
  // swap(ext(1)) = {(b,a)} ⊆ ext(0); inverse inclusions never apply to
  // concepts.
  EXPECT_TRUE(sc->IncludedInverse(Atom::Kind::kRole, 1, 0));
  EXPECT_FALSE(sc->IncludedInverse(Atom::Kind::kConcept, 1, 0));
  EXPECT_GE(sc->summary().inverse_inclusions, 2u);
}

TEST(SourceConstraints, KeyColumnsFromDistinctCounts) {
  Database db;
  ASSERT_TRUE(db.CreateTable({"t",
                              {{"id", ValueType::kString},
                               {"rank", ValueType::kString}}})
                  .ok());
  ASSERT_TRUE(db.Insert("t", {Value::Str("a"), Value::Str("x")}).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Str("b"), Value::Str("x")}).ok());
  ASSERT_TRUE(db.CreateTable({"empty_t", {{"id", ValueType::kString}}}).ok());
  MappingSet mappings;
  auto sc = InferOver(mappings, db);
  EXPECT_TRUE(sc->IsKeyColumn("t", "id"));
  EXPECT_FALSE(sc->IsKeyColumn("t", "rank"));  // duplicates
  EXPECT_FALSE(sc->IsKeyColumn("empty_t", "id"));  // no rows, no key
  EXPECT_FALSE(sc->IsKeyColumn("ghost", "id"));
  EXPECT_EQ(sc->summary().key_columns, 1u);
}

TEST(SourceConstraints, TypeTaggedTuplesAreNotConflated) {
  // Int 1 and Str "1" render to the same text; the extension encoding must
  // keep them distinct or inclusion would be certified across types.
  Database db;
  ASSERT_TRUE(db.CreateTable({"ints", {{"s", ValueType::kInt}}}).ok());
  ASSERT_TRUE(db.CreateTable({"strs", {{"s", ValueType::kString}}}).ok());
  ASSERT_TRUE(db.Insert("ints", {Value::Int(1)}).ok());
  ASSERT_TRUE(db.Insert("strs", {Value::Str("1")}).ok());
  MappingSet mappings;
  ASSERT_TRUE(
      mappings.Add(MappingAssertion::ForConcept(0, TableBlock("ints", false)))
          .ok());
  ASSERT_TRUE(
      mappings.Add(MappingAssertion::ForConcept(1, TableBlock("strs", false)))
          .ok());
  auto sc = InferOver(mappings, db);
  EXPECT_FALSE(sc->Included(Atom::Kind::kConcept, 0, 1));
  EXPECT_FALSE(sc->Included(Atom::Kind::kConcept, 1, 0));
}

TEST(SourceConstraints, ExtensionCapLeavesFactsUnknown) {
  Database db;
  ASSERT_TRUE(db.CreateTable({"t", {{"s", ValueType::kString}}}).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Str("a")}).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Str("b")}).ok());
  MappingSet mappings;
  ASSERT_TRUE(
      mappings.Add(MappingAssertion::ForConcept(0, TableBlock("t", false)))
          .ok());
  ASSERT_TRUE(
      mappings.Add(MappingAssertion::ForConcept(1, TableBlock("t", false)))
          .ok());
  ConstraintInferenceOptions options;
  options.max_extension_rows = 1;
  auto sc = InferOver(mappings, db, options);
  EXPECT_FALSE(sc->summary().complete);
  // Unknown extensions certify nothing: not empty, not included (except
  // the trivially reflexive case).
  EXPECT_FALSE(sc->Empty(Atom::Kind::kConcept, 0));
  EXPECT_FALSE(sc->Included(Atom::Kind::kConcept, 0, 1));
  EXPECT_TRUE(sc->Included(Atom::Kind::kConcept, 0, 0));
}

// The index encoder against the row path it replaces, on random one-table
// views over INT, DOUBLE (±0.0, ±NaN) and TEXT (a quote, the unit
// separator) columns: 0–3 filters, absent and cross-type constants among
// them, one or two projected columns (the same one twice too), and row
// caps the view may reach. Runs under both engines.
TEST(SourceConstraints, IndexEncodingEqualsExecute) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> ints = {Value::Int(0), Value::Int(1),
                                   Value::Int(-1), Value::Int(2)};
  const std::vector<Value> doubles = {
      Value::Double(0.0), Value::Double(-0.0), Value::Double(nan),
      Value::Double(-nan), Value::Double(1.0),  Value::Double(2.5)};
  const std::vector<Value> strs = {Value::Str("a"), Value::Str("a'b"),
                                   Value::Str("\x1f"), Value::Str("b\x1f"),
                                   Value::Str("1"),  Value::Str("")};
  Database db;
  // `k` is nearly a key, so a row the encoder drops shows in its views.
  ASSERT_TRUE(db.CreateTable({"mixed",
                              {{"i", ValueType::kInt},
                               {"d", ValueType::kDouble},
                               {"s", ValueType::kString},
                               {"k", ValueType::kInt}}})
                  .ok());
  Rng rng(11);
  auto pick = [&rng](const std::vector<Value>& pool) {
    return pool[rng.Uniform(pool.size())];
  };
  // Over 1 024 rows, so an unfiltered view reads several batches.
  for (int r = 0; r < 2500; ++r) {
    ASSERT_TRUE(db.Insert("mixed", {pick(ints), pick(doubles), pick(strs),
                                    Value::Int(r % 2000)})
                    .ok());
  }
  std::vector<Value> constants = ints;
  constants.insert(constants.end(), doubles.begin(), doubles.end());
  constants.insert(constants.end(), strs.begin(), strs.end());
  for (Value absent : {Value::Int(99), Value::Double(9.5), Value::Str("zz")}) {
    constants.push_back(std::move(absent));
  }
  const std::vector<std::string> columns = {"i", "d", "s", "k"};
  const auto stats = rdb::DatabaseStats::Collect(db);
  const rdb::SourceIndex& index = *stats.index();

  size_t capped = 0, empty = 0, filled = 0;
  for (int trial = 0; trial < 600; ++trial) {
    SelectBlock view;
    view.from_tables = {"mixed"};
    const size_t arity = 1 + rng.Uniform(2);
    for (size_t k = 0; k < arity; ++k) {
      view.select.push_back({0, columns[rng.Uniform(columns.size())]});
    }
    const size_t num_filters = rng.Uniform(4);
    for (size_t k = 0; k < num_filters; ++k) {
      view.filters.push_back(
          {{0, columns[rng.Uniform(columns.size())]}, pick(constants)});
    }
    const uint64_t max_rows = trial % 4 == 0 ? 1 + rng.Uniform(12) : 20000;

    auto direct = EncodeIndexedView(view, db, index, max_rows);
    ASSERT_TRUE(direct.has_value());
    rdb::SqlQuery q;
    q.blocks = {view};
    const ExecBudget budget({.max_rows = max_rows});
    rdb::EvalOptions eopts;
    eopts.budget = &budget;
    eopts.index = &index;
    auto rows = rdb::Execute(db, q, eopts);
    rdb::ValueDictionary overlay;
    auto want =
        rows.ok() ? EncodeView(*rows, &index.dictionary(), &overlay) : nullptr;
    EXPECT_EQ(overlay.size(), 0u);  // every cell is in the dictionary
    const std::string where = "trial " + std::to_string(trial) + ": " +
                              q.ToString() + " cap " +
                              std::to_string(max_rows);
    ASSERT_EQ(*direct == nullptr, want == nullptr) << where;
    if (want == nullptr) {
      ++capped;
      continue;
    }
    EXPECT_EQ(**direct, *want) << where;
    ++(want->empty() ? empty : filled);
  }
  // The sweep reaches every outcome.
  EXPECT_GT(capped, 0u);
  EXPECT_GT(empty, 0u);
  EXPECT_GT(filled, 0u);

  // Shapes the index cannot name go to `Execute`.
  auto declined = [&](SelectBlock view, const rdb::SourceIndex& idx) {
    return !EncodeIndexedView(view, db, idx, 0).has_value();
  };
  SelectBlock base;
  base.from_tables = {"mixed"};
  base.select = {{0, "i"}};
  EXPECT_FALSE(declined(base, index));
  SelectBlock joined = base;
  joined.joins = {{{0, "i"}, {0, "d"}}};
  EXPECT_TRUE(declined(joined, index));
  SelectBlock tagged = base;
  tagged.const_select = {{1, Value::Str("k")}};
  EXPECT_TRUE(declined(tagged, index));
  SelectBlock wide = base;
  wide.select = {{0, "i"}, {0, "d"}, {0, "s"}};
  EXPECT_TRUE(declined(wide, index));
  SelectBlock two_tables = base;
  two_tables.from_tables = {"mixed", "mixed"};
  EXPECT_TRUE(declined(two_tables, index));
  SelectBlock ghost_column = base;
  ghost_column.filters = {{{0, "nope"}, Value::Int(0)}};
  EXPECT_TRUE(declined(ghost_column, index));
  const Database other;
  EXPECT_TRUE(declined(base, *rdb::DatabaseStats::Collect(other).index()));
}

// A view holding exactly `max_extension_rows` tuples is known, on the index
// path and on the `Execute` fallback alike; one tuple more leaves it unknown.
TEST(SourceConstraints, ViewAtTheRowCapIsKnownOnBothPaths) {
  Database db;
  ASSERT_TRUE(db.CreateTable({"t", {{"s", ValueType::kString}}}).ok());
  for (const char* v : {"a", "b", "c"}) {
    ASSERT_TRUE(db.Insert("t", {Value::Str(v)}).ok());
  }
  const SelectBlock plain = TableBlock("t", false);
  SelectBlock tagged = plain;  // a constant projection: only `Execute` runs it
  tagged.const_select = {{1, Value::Str("k")}};
  const auto stats = rdb::DatabaseStats::Collect(db);
  ASSERT_TRUE(EncodeIndexedView(plain, db, *stats.index(), 3).has_value());
  ASSERT_FALSE(EncodeIndexedView(tagged, db, *stats.index(), 3).has_value());
  MappingSet mappings;
  ASSERT_TRUE(mappings.Add(MappingAssertion::ForConcept(0, plain)).ok());
  ASSERT_TRUE(mappings.Add(MappingAssertion::ForConcept(1, tagged)).ok());
  for (uint64_t cap : {3u, 2u}) {
    ConstraintInferenceOptions options;
    options.max_extension_rows = cap;
    auto sc = SourceConstraints::Infer(mappings, db, stats, options);
    const bool known = cap == 3;
    SCOPED_TRACE("cap " + std::to_string(cap));
    EXPECT_EQ(sc->summary().complete, known);
    EXPECT_EQ(sc->summary().known_extensions, known ? 2u : 0u);
    EXPECT_EQ(sc->ExactMapping(Atom::Kind::kConcept, 0), known);
    EXPECT_EQ(sc->ExactMapping(Atom::Kind::kConcept, 1), known);
  }
}

// Never-crash fuzz: inference over seeded generated workloads with the
// rdb fault site firing on every other block evaluation. Failed view
// evaluations must degrade the affected facts to unknown — never crash,
// and never certify anything the surviving evaluations cannot prove.
TEST(SourceConstraintsFuzz, InferenceNeverCrashesUnderRdbFaults) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    benchgen::WorkloadConfig cfg;
    cfg.ontology.name = "fuzz";
    cfg.ontology.seed = seed;
    cfg.ontology.num_concepts = 10;
    cfg.ontology.num_roles = 3;
    cfg.seed = seed;
    cfg.redundant_mapping_fraction = 0.5;
    cfg.source_inclusion_fraction = 0.5;
    benchgen::Workload w = benchgen::GenerateWorkload(cfg);

    fault::FaultPlan plan;
    plan.fail_every = 2;  // deterministic: every 2nd view evaluation fails
    fault::Injector::Global().Arm(fault::Site::kRdbExecute, plan);
    auto sc = SourceConstraints::Infer(
        w.mappings, w.database, rdb::DatabaseStats::Collect(w.database));
    fault::Injector::Global().DisarmAll();

    ASSERT_NE(sc, nullptr);
    EXPECT_FALSE(sc->summary().complete);  // fail_every=2 always hits
    // Hammer the whole oracle surface; no call may crash.
    for (uint32_t a = 0; a < 12; ++a) {
      for (uint32_t b = 0; b < 12; ++b) {
        (void)sc->Included(Atom::Kind::kConcept, a, b);
        (void)sc->Included(Atom::Kind::kRole, a, b);
        (void)sc->IncludedInverse(Atom::Kind::kRole, a, b);
      }
      (void)sc->Empty(Atom::Kind::kConcept, a);
      (void)sc->ExactMapping(Atom::Kind::kConcept, a);
    }
    for (size_t i = 0; i < w.mappings.assertions().size() + 4; ++i) {
      (void)sc->EmptyView(i);
      (void)sc->DominatedView(i);
    }
  }
}

// A system compiled while the rdb fault site corrupts inference must still
// answer exactly: degraded constraints only mean *less pruning*.
TEST(SourceConstraintsFuzz, DegradedInferenceKeepsAnswersExact) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    benchgen::WorkloadConfig cfg;
    cfg.ontology.name = "fuzz";
    cfg.ontology.seed = seed;
    cfg.ontology.num_concepts = 10;
    cfg.ontology.num_roles = 3;
    cfg.seed = seed;
    cfg.redundant_mapping_fraction = 0.5;
    cfg.source_inclusion_fraction = 0.5;
    benchgen::Workload w = benchgen::GenerateWorkload(cfg);

    auto clean = CompiledOntology::Compile(w.ontology, w.mappings, w.database,
                                           query::RewriteMode::kClassified);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();

    fault::FaultPlan plan;
    plan.fail_every = 2;  // deterministic: every 2nd view evaluation fails
    fault::Injector::Global().Arm(fault::Site::kRdbExecute, plan);
    auto degraded =
        CompiledOntology::Compile(w.ontology, w.mappings, w.database,
                                  query::RewriteMode::kClassified);
    fault::Injector::Global().DisarmAll();
    ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();

    for (const auto& cq : w.queries) {
      auto want = QueryEngine(*clean).Answer(cq);
      auto got = QueryEngine(*degraded).Answer(cq);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(std::set<AnswerTuple>(want->begin(), want->end()),
                std::set<AnswerTuple>(got->begin(), got->end()))
          << "seed " << seed << ": "
          << cq.ToString(w.ontology.vocab());
    }
  }
}

// A fault on a batch of the indexed equality scan a filtered view runs
// degrades that view, and only it, to unknown.
TEST(SourceConstraintsFuzz, FaultInIndexedScanLeavesViewUnknown) {
  Database db;
  ASSERT_TRUE(db.CreateTable({"facts",
                              {{"kind", ValueType::kString},
                               {"s", ValueType::kString}}})
                  .ok());
  for (int r = 0; r < 3000; ++r) {
    ASSERT_TRUE(db.Insert("facts", {Value::Str(r % 3 == 0 ? "a" : "b"),
                                    Value::Str("i" + std::to_string(r))})
                    .ok());
  }
  MappingSet mappings;
  SelectBlock kind_a = TableBlock("facts", false);
  kind_a.filters = {{{0, "kind"}, Value::Str("a")}};
  ASSERT_TRUE(mappings.Add(MappingAssertion::ForConcept(0, kind_a)).ok());
  const auto stats = rdb::DatabaseStats::Collect(db);
  auto clean = SourceConstraints::Infer(mappings, db, stats);
  ASSERT_TRUE(clean->summary().complete);
  EXPECT_TRUE(clean->ExactMapping(Atom::Kind::kConcept, 0));

  // Hit 1 is the block, hit 2 the first batch of the 1 000-row range.
  fault::FaultPlan plan;
  plan.fail_every = 2;
  fault::Injector::Global().Arm(fault::Site::kRdbExecute, plan);
  auto degraded = SourceConstraints::Infer(mappings, db, stats);
  const uint64_t failures =
      fault::Injector::Global().failures(fault::Site::kRdbExecute);
  fault::Injector::Global().DisarmAll();
  EXPECT_EQ(failures, 1u);
  EXPECT_FALSE(degraded->summary().complete);
  EXPECT_EQ(degraded->summary().known_extensions, 0u);
  EXPECT_FALSE(degraded->Empty(Atom::Kind::kConcept, 0));
  EXPECT_FALSE(degraded->ExactMapping(Atom::Kind::kConcept, 0));
}

// ---------------------------------------------------------------------------
// Refresh (per-view reuse) and DiffAffectedPreds (delta attribution)
// ---------------------------------------------------------------------------

// Two concepts over two tables plus a role: enough views for a refresh to
// tell reused from re-evaluated.
struct RefreshFixture {
  Database db;
  MappingSet mappings;

  RefreshFixture() {
    EXPECT_TRUE(db.CreateTable({"ta", {{"s", ValueType::kString}}}).ok());
    EXPECT_TRUE(db.CreateTable({"tb", {{"s", ValueType::kString}}}).ok());
    EXPECT_TRUE(db.CreateTable({"tr",
                                {{"s", ValueType::kString},
                                 {"o", ValueType::kString}}})
                    .ok());
    EXPECT_TRUE(db.Insert("ta", {Value::Str("a1")}).ok());
    EXPECT_TRUE(db.Insert("ta", {Value::Str("a2")}).ok());
    EXPECT_TRUE(db.Insert("tb", {Value::Str("a1")}).ok());
    EXPECT_TRUE(db.Insert("tr", {Value::Str("a1"), Value::Str("a2")}).ok());
    EXPECT_TRUE(
        mappings.Add(MappingAssertion::ForConcept(0, TableBlock("ta", false)))
            .ok());
    EXPECT_TRUE(
        mappings.Add(MappingAssertion::ForConcept(1, TableBlock("tb", false)))
            .ok());
    EXPECT_TRUE(
        mappings.Add(MappingAssertion::ForRole(0, TableBlock("tr", true)))
            .ok());
  }
};

TEST(SourceConstraintsRefresh, ReusesUnchangedViewsBitIdentically) {
  RefreshFixture fx;
  ConstraintInferenceOptions opts;
  opts.retain_view_extensions = true;
  const auto stats = rdb::DatabaseStats::Collect(fx.db);
  auto base = SourceConstraints::Infer(fx.mappings, fx.db, stats, opts);

  // Add one assertion; the three existing views must be reused, and every
  // derived fact must equal a from-scratch inference.
  MappingSet next = fx.mappings;
  ASSERT_TRUE(
      next.Add(MappingAssertion::ForConcept(2, TableBlock("tb", false))).ok());
  uint64_t reused = 0;
  auto refreshed =
      SourceConstraints::Refresh(*base, next, fx.db, stats, opts, &reused);
  EXPECT_EQ(reused, 3u);
  auto scratch = InferOver(next, fx.db, opts);
  EXPECT_EQ(refreshed->summary().ToString(), scratch->summary().ToString());
  // Concept 2 reads the same table as concept 1: extensionally included
  // both ways, facts a scratch inference would also derive.
  EXPECT_TRUE(refreshed->Included(Atom::Kind::kConcept, 2, 1));
  EXPECT_TRUE(refreshed->Included(Atom::Kind::kConcept, 1, 2));
  EXPECT_TRUE(refreshed->Included(Atom::Kind::kConcept, 1, 0));
}

TEST(SourceConstraintsRefresh, RemovalRecomputesDerivedFacts) {
  RefreshFixture fx;
  ConstraintInferenceOptions opts;
  opts.retain_view_extensions = true;
  const auto stats = rdb::DatabaseStats::Collect(fx.db);
  auto base = SourceConstraints::Infer(fx.mappings, fx.db, stats, opts);
  ASSERT_FALSE(base->Empty(Atom::Kind::kConcept, 1));

  MappingSet next;
  for (const MappingAssertion& m : fx.mappings.assertions()) {
    if (m.kind == mapping::TargetKind::kConcept && m.predicate == 1) continue;
    ASSERT_TRUE(next.Add(m).ok());
  }
  uint64_t reused = 0;
  auto refreshed =
      SourceConstraints::Refresh(*base, next, fx.db, stats, opts, &reused);
  EXPECT_EQ(reused, 2u);
  // Concept 1 is unmapped now: provably empty, and the stale inclusion
  // of concept 1's old extension in concept 0's is not resurrected.
  EXPECT_TRUE(refreshed->Empty(Atom::Kind::kConcept, 1));
  auto scratch = InferOver(next, fx.db, opts);
  EXPECT_EQ(refreshed->summary().ToString(), scratch->summary().ToString());
}

TEST(SourceConstraintsRefresh, DiffAttributesMappingChangeToItsPredicate) {
  RefreshFixture fx;
  ConstraintInferenceOptions opts;
  opts.retain_view_extensions = true;
  const auto stats = rdb::DatabaseStats::Collect(fx.db);
  auto base = SourceConstraints::Infer(fx.mappings, fx.db, stats, opts);

  MappingSet next = fx.mappings;
  ASSERT_TRUE(
      next.Add(MappingAssertion::ForConcept(2, TableBlock("tb", false))).ok());
  auto refreshed =
      SourceConstraints::Refresh(*base, next, fx.db, stats, opts, nullptr);

  const std::vector<uint64_t> affected =
      base->DiffAffectedPreds(*refreshed, fx.mappings, next);
  // Concept 2 gained a mapping, and concepts 0/1 gained inclusion facts
  // against its extension; the role shares no fact with any of them and
  // must stay out of the attribution.
  const uint64_t r0 = (static_cast<uint64_t>(Atom::Kind::kRole) << 32) | 0u;
  const uint64_t c2 =
      (static_cast<uint64_t>(Atom::Kind::kConcept) << 32) | 2u;
  EXPECT_TRUE(std::find(affected.begin(), affected.end(), c2) !=
              affected.end());
  EXPECT_TRUE(std::find(affected.begin(), affected.end(), r0) ==
              affected.end());

  // No change at all: the diff is empty.
  EXPECT_TRUE(
      base->DiffAffectedPreds(*base, fx.mappings, fx.mappings).empty());
}

// ---------------------------------------------------------------------------
// Referee: every verdict of the superset search against a plain nested loop
// over value-keyed extensions
// ---------------------------------------------------------------------------

// A seeded random mapping family over tiny tables whose values come from a
// pool of five, so extensions coincide, nest and overlap. Concepts, roles
// and attributes share ids 0–5 and roles and attributes read the same
// binary tables, so a search that mixed kinds would certify a role pair
// from an attribute's extension. A predicate is unmapped, copies an
// earlier predicate's views (equal extensions), extends them by one view
// (chains), or has one to three random views, sometimes a view twice
// (equal siblings). Filters on a binary table's column often leave one
// tuple, and `sym` holds each of its pairs both ways (symmetric roles).
struct RandomFamily {
  Database db;
  MappingSet mappings;

  explicit RandomFamily(uint64_t seed) {
    Rng rng(seed);
    auto value = [&] {
      return Value::Str("v" + std::to_string(rng.Uniform(5)));
    };
    const std::vector<std::string> unary = {"u0", "u1", "u2"};
    const std::vector<std::string> binary = {"b0", "b1", "b2", "sym"};
    for (const std::string& t : unary) {
      EXPECT_TRUE(db.CreateTable({t, {{"s", ValueType::kString}}}).ok());
      for (uint64_t r = 1 + rng.Uniform(6); r > 0; --r) {
        EXPECT_TRUE(db.Insert(t, {value()}).ok());
      }
    }
    for (const std::string& t : binary) {
      EXPECT_TRUE(db.CreateTable({t,
                                  {{"s", ValueType::kString},
                                   {"o", ValueType::kString}}})
                      .ok());
      for (uint64_t r = 1 + rng.Uniform(5); r > 0; --r) {
        const Value a = value(), b = value();
        EXPECT_TRUE(db.Insert(t, {a, b}).ok());
        if (t == "sym") {
          EXPECT_TRUE(db.Insert(t, {b, a}).ok());
        }
      }
    }
    auto pick = [&](const std::vector<std::string>& pool) {
      return pool[rng.Uniform(pool.size())];
    };
    auto random_view = [&](mapping::TargetKind kind) {
      SelectBlock b;
      const bool from_binary =
          kind != mapping::TargetKind::kConcept || rng.Chance(0.5);
      b.from_tables = {from_binary ? pick(binary) : pick(unary)};
      const std::string first = from_binary && rng.Chance(0.5) ? "o" : "s";
      const std::string second = first == "s" ? "o" : "s";
      b.select = {{0, first}};
      if (kind != mapping::TargetKind::kConcept) {
        b.select.push_back({0, second});
      }
      if (rng.Chance(0.3)) {
        b.filters = {{{0, from_binary ? pick({"s", "o"}) : "s"}, value()}};
      }
      return b;
    };
    for (auto kind : {mapping::TargetKind::kConcept, mapping::TargetKind::kRole,
                      mapping::TargetKind::kAttribute}) {
      std::vector<std::vector<SelectBlock>> pred_views;
      for (uint32_t p = 0; p < 6; ++p) {
        std::vector<SelectBlock> views;
        const uint64_t shape = rng.Uniform(10);
        if (shape == 0) {
          // unmapped
        } else if (p > 0 && shape <= 4) {
          views = pred_views[rng.Uniform(p)];
          if (shape >= 3) views.push_back(random_view(kind));
        } else {
          for (uint64_t v = 1 + rng.Uniform(3); v > 0; --v) {
            views.push_back(random_view(kind));
            if (rng.Chance(0.2)) views.push_back(views.back());
          }
        }
        for (const SelectBlock& b : views) {
          EXPECT_TRUE(mappings.Add(MappingAssertion{kind, p, b}).ok());
        }
        pred_views.push_back(std::move(views));
      }
    }
  }
};

TEST(ConstraintReferee, SupersetSearchEqualsNestedLoop) {
  using Ext = std::set<rdb::Row>;
  const Atom::Kind kinds[] = {Atom::Kind::kConcept, Atom::Kind::kRole,
                              Atom::Kind::kAttribute};
  // Shapes the sweep must reach, so a pass is not vacuous.
  size_t equal_exts = 0, chains = 0, single_tuple_inclusions = 0,
         symmetric_roles = 0, equal_siblings = 0, kind_traps = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    RandomFamily fam(seed);
    auto sc = InferOver(fam.mappings, fam.db);
    ASSERT_TRUE(sc->summary().complete) << "seed " << seed;
    const auto& assertions = fam.mappings.assertions();
    std::vector<Ext> views;
    std::map<std::pair<Atom::Kind, uint32_t>, Ext> exts;
    for (const MappingAssertion& m : assertions) {
      rdb::SqlQuery q;
      q.blocks = {m.source};
      auto rows = rdb::Execute(fam.db, q);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      views.emplace_back(rows->begin(), rows->end());
      const Atom::Kind kind =
          m.kind == mapping::TargetKind::kConcept ? Atom::Kind::kConcept
          : m.kind == mapping::TargetKind::kRole  ? Atom::Kind::kRole
                                                  : Atom::Kind::kAttribute;
      exts[{kind, m.predicate}].insert(rows->begin(), rows->end());
    }
    auto ext = [&](Atom::Kind kind, uint32_t p) -> const Ext& {
      static const Ext kNone;
      auto it = exts.find({kind, p});
      return it == exts.end() ? kNone : it->second;
    };
    auto subset = [](const Ext& a, const Ext& b) {
      return std::includes(b.begin(), b.end(), a.begin(), a.end());
    };
    auto swapped = [](const Ext& e) {
      Ext out;
      for (const rdb::Row& r : e) out.insert({r[1], r[0]});
      return out;
    };
    size_t inclusions = 0, inverse_inclusions = 0;
    for (Atom::Kind kind : kinds) {
      for (uint32_t a = 0; a < 6; ++a) {
        const Ext& ea = ext(kind, a);
        const std::string where = "seed " + std::to_string(seed) + " kind " +
                                  std::to_string(static_cast<int>(kind)) +
                                  " " + std::to_string(a);
        EXPECT_EQ(sc->Empty(kind, a), ea.empty()) << where;
        for (uint32_t b = 0; b < 6; ++b) {
          const Ext& eb = ext(kind, b);
          const bool incl = a == b || subset(ea, eb);
          EXPECT_EQ(sc->Included(kind, a, b), incl) << where << " ⊆ " << b;
          if (a != b && incl && !ea.empty()) {
            ++inclusions;
            if (ea == eb) ++equal_exts;
            if (ea.size() == 1) ++single_tuple_inclusions;
            for (uint32_t c = 0; c < 6; ++c) {
              const Ext& ec = ext(kind, c);
              if (ea.size() < eb.size() && eb.size() < ec.size() &&
                  subset(eb, ec)) {
                ++chains;
              }
            }
          }
          const bool inv = kind == Atom::Kind::kRole &&
                           (ea.empty() || subset(swapped(ea), eb));
          EXPECT_EQ(sc->IncludedInverse(kind, a, b), inv)
              << where << " ⊆⁻ " << b;
          if (inv && !ea.empty()) {
            ++inverse_inclusions;
            if (a == b) ++symmetric_roles;
          }
          if (kind == Atom::Kind::kRole && a != b && !ea.empty() &&
              !subset(ea, eb) && subset(ea, ext(Atom::Kind::kAttribute, b))) {
            ++kind_traps;
          }
        }
      }
    }
    EXPECT_EQ(sc->summary().inclusions, inclusions) << "seed " << seed;
    EXPECT_EQ(sc->summary().inverse_inclusions, inverse_inclusions)
        << "seed " << seed;
    for (size_t i = 0; i < assertions.size(); ++i) {
      bool dominated = false;
      for (size_t j = 0; j < assertions.size() && !views[i].empty(); ++j) {
        if (j == i || assertions[j].kind != assertions[i].kind ||
            assertions[j].predicate != assertions[i].predicate ||
            !subset(views[i], views[j])) {
          continue;
        }
        if (views[i].size() < views[j].size() || j < i) dominated = true;
        if (views[i] == views[j] && j < i) ++equal_siblings;
      }
      EXPECT_EQ(sc->DominatedView(i), dominated)
          << "seed " << seed << " view " << i;
    }
  }
  EXPECT_GT(equal_exts, 0u);
  EXPECT_GT(chains, 0u);
  EXPECT_GT(single_tuple_inclusions, 0u);
  EXPECT_GT(symmetric_roles, 0u);
  EXPECT_GT(equal_siblings, 0u);
  EXPECT_GT(kind_traps, 0u);
}

// ---------------------------------------------------------------------------
// Identity pins: the facts of an inference, recorded once and asserted
// unchanged, so a change to how extensions are stored or compared cannot
// move a single verdict.
// ---------------------------------------------------------------------------

/// Every fact the public surface exposes, one line each: the summary,
/// per-predicate emptiness and exact mappings, every holding inclusion and
/// inverse inclusion between distinct-or-equal predicates, per-view flags
/// and key columns.
std::string FactListing(const SourceConstraints& sc,
                        const MappingSet& mappings, const Database& db,
                        const dllite::Vocabulary& vocab) {
  std::string out = "summary " + sc.summary().ToString() + "\n";
  const std::pair<Atom::Kind, size_t> kinds[] = {
      {Atom::Kind::kConcept, vocab.NumConcepts()},
      {Atom::Kind::kRole, vocab.NumRoles()},
      {Atom::Kind::kAttribute, vocab.NumAttributes()}};
  for (const auto& [kind, n] : kinds) {
    const std::string k = std::to_string(static_cast<int>(kind));
    for (uint32_t a = 0; a < n; ++a) {
      const std::string p = k + ":" + std::to_string(a);
      if (sc.Empty(kind, a)) out += "empty " + p + "\n";
      if (sc.ExactMapping(kind, a)) out += "exact " + p + "\n";
      for (uint32_t b = 0; b < n; ++b) {
        const std::string pair = p + " " + std::to_string(b) + "\n";
        if (a != b && sc.Included(kind, a, b)) out += "incl " + pair;
        if (sc.IncludedInverse(kind, a, b)) out += "inv " + pair;
      }
    }
  }
  for (size_t i = 0; i < mappings.assertions().size(); ++i) {
    if (sc.EmptyView(i)) out += "empty_view " + std::to_string(i) + "\n";
    if (sc.DominatedView(i)) {
      out += "dominated_view " + std::to_string(i) + "\n";
    }
  }
  for (const auto& [name, table] : db.tables()) {
    for (const auto& col : table.schema().columns) {
      if (sc.IsKeyColumn(name, col.name)) {
        out += "key " + name + "." + col.name + "\n";
      }
    }
  }
  return out;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The conformance sweep's workload shape, constraint-rich (redundant
/// duplicate mappings and source-materialised inclusions).
benchgen::WorkloadConfig PinSweepConfig(uint64_t seed) {
  benchgen::WorkloadConfig cfg;
  cfg.ontology.name = "conformance";
  cfg.ontology.seed = 2 * seed + 1;
  cfg.ontology.num_concepts = 12 + static_cast<uint32_t>(seed % 14);
  cfg.ontology.num_roles = 3 + static_cast<uint32_t>(seed % 3);
  cfg.ontology.num_attributes = static_cast<uint32_t>(seed % 2);
  cfg.ontology.num_roots = 2;
  cfg.ontology.avg_branching = 2.0 + static_cast<double>(seed % 3);
  cfg.ontology.multi_parent_prob = 0.2;
  cfg.ontology.role_hierarchy_fraction = 0.5;
  cfg.ontology.domain_range_fraction = 0.3;
  cfg.ontology.qualified_exists_per_concept = 0.2;
  cfg.ontology.unqualified_exists_per_concept = 0.2;
  cfg.ontology.disjointness_fraction = 0.2;
  cfg.ontology.role_disjointness_fraction = 0.1;
  cfg.seed = seed + 1000;
  cfg.num_individuals = 16;
  cfg.num_concept_assertions = 24;
  cfg.num_role_assertions = 24;
  cfg.num_attribute_assertions = (seed % 2 == 1) ? 6 : 0;
  cfg.num_queries = 0;
  cfg.redundant_mapping_fraction = 0.5;
  cfg.source_inclusion_fraction = 0.5;
  return cfg;
}

TEST(ConstraintIdentity, SweepSeedsKeepEveryFact) {
  uint64_t digest = kFnv1aBasis;
  size_t inclusions = 0, dominated = 0, inverse = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    benchgen::Workload w = benchgen::GenerateWorkload(PinSweepConfig(seed));
    auto sc = InferOver(w.mappings, w.database);
    digest = Fnv1a(
        FactListing(*sc, w.mappings, w.database, w.ontology.vocab()), digest);
    inclusions += sc->summary().inclusions;
    dominated += sc->summary().dominated_views;
    inverse += sc->summary().inverse_inclusions;
  }
  // The sweep must exercise every fact class it pins.
  EXPECT_GT(inclusions, 0u);
  EXPECT_GT(dominated, 0u);
  EXPECT_GT(inverse, 0u);
  EXPECT_EQ(Hex(digest), "2f7565f95550b2c8");
}

TEST(ConstraintIdentity, BenchmarkSpecKeepsEveryFact) {
  // The full-size spec of the OBDA benchmark (perfbench's SpecConfig).
  // Pinned from the pairwise loop the superset search replaced, run with
  // no cap on its pair tests.
  benchgen::WorkloadConfig c;
  c.ontology.name = "obda-bench";
  c.ontology.seed = 1;
  c.ontology.num_concepts = 1000;
  c.ontology.num_roles = 50;
  c.ontology.num_attributes = 4;
  c.ontology.multi_parent_prob = 0.2;
  c.ontology.role_hierarchy_fraction = 0.3;
  c.ontology.domain_range_fraction = 0.4;
  c.ontology.unqualified_exists_per_concept = 0.1;
  c.ontology.qualified_exists_per_concept = 0.05;
  c.ontology.disjointness_fraction = 0.05;
  c.seed = 1;
  c.num_individuals = 5000;
  c.num_concept_assertions = 20000;
  c.num_role_assertions = 20000;
  c.num_attribute_assertions = 5000;
  c.redundant_mapping_fraction = 0.1;
  c.source_inclusion_fraction = 0.2;
  c.num_queries = 0;
  benchgen::Workload w = benchgen::GenerateWorkload(c);
  ConstraintInferenceOptions opts;
  opts.retain_view_extensions = true;
  auto sc = InferOver(w.mappings, w.database, opts);
  EXPECT_EQ(sc->summary().ToString(),
            "predicates=929 known=929 empty=0 inclusions=147 "
            "inverse_inclusions=0 exact_mappings=929 dominated_views=92 "
            "empty_views=0 key_columns=582 complete");
  EXPECT_EQ(Hex(Fnv1a(FactListing(*sc, w.mappings, w.database,
                                  w.ontology.vocab()))),
            "aaeba6101b917d8b");
}

// Values whose identity is easy to get wrong: Int(1) against Double(1.0),
// +0.0 against -0.0 (two values, rendered "0" and "-0"), NaN (every
// payload of one sign one value, rendered "nan" or "-nan"), and strings
// holding a quote or the unit separator. Pinned to the verdicts of
// extensions keyed by type and rendering, which is `Value` identity.
struct EdgeFixture {
  Database db;
  MappingSet mappings;
  dllite::Vocabulary vocab;

  EdgeFixture() {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(db.CreateTable({"nums",
                                {{"i", ValueType::kInt},
                                 {"d", ValueType::kDouble}}})
                    .ok());
    const std::pair<int64_t, double> nums[] = {
        {1, 1.0}, {0, 0.0}, {0, -0.0}, {2, nan}, {3, nan}, {4, -nan},
        {5, 1.0}};
    for (const auto& [i, d] : nums) {
      EXPECT_TRUE(db.Insert("nums", {Value::Int(i), Value::Double(d)}).ok());
    }
    EXPECT_TRUE(db.CreateTable({"strs",
                                {{"s", ValueType::kString},
                                 {"o", ValueType::kString}}})
                    .ok());
    const std::pair<const char*, const char*> strs[] = {
        {"a'b", "x"},   {"a", "'b"},       {"a\x1f", "b"}, {"a", "\x1f" "b"},
        {"1", "x"},     {"x", "a'b"},      {"x", "a"},     {"b", "a\x1f"},
        {"a'", "'b"}};
    for (const auto& [a, b] : strs) {
      EXPECT_TRUE(db.Insert("strs", {Value::Str(a), Value::Str(b)}).ok());
    }
    // ±0.0 are two values but the two NaNs one, so `d` is no key; `dup`
    // repeats 1.0.
    EXPECT_TRUE(db.CreateTable({"dkeys",
                                {{"d", ValueType::kDouble},
                                 {"dup", ValueType::kDouble},
                                 {"s", ValueType::kString}}})
                    .ok());
    const std::tuple<double, double, const char*> dkeys[] = {
        {0.0, 1.0, "a'b"}, {-0.0, 1.0, "a''b"}, {nan, 2.0, "a\x1f"},
        {nan, 3.0, "a"}};
    for (const auto& [d, dup, str] : dkeys) {
      EXPECT_TRUE(db.Insert("dkeys", {Value::Double(d), Value::Double(dup),
                                      Value::Str(str)})
                      .ok());
    }
    auto block = [](const std::string& table, std::vector<std::string> cols,
                    std::vector<rdb::EqConst> filters) {
      SelectBlock b;
      b.from_tables = {table};
      for (auto& c : cols) b.select.push_back({0, std::move(c)});
      b.filters = std::move(filters);
      return b;
    };
    auto concept_view = [&](uint32_t c, SelectBlock b) {
      EXPECT_TRUE(mappings.Add(MappingAssertion::ForConcept(c, b)).ok());
    };
    concept_view(0, block("nums", {"i"}, {}));
    concept_view(1, block("nums", {"d"}, {}));
    concept_view(2, block("nums", {"d"}, {{{0, "i"}, Value::Int(0)}}));
    concept_view(3, block("nums", {"d"}, {{{0, "d"}, Value::Double(0.0)}}));
    concept_view(4, block("nums", {"d"}, {{{0, "d"}, Value::Double(-0.0)}}));
    concept_view(5, block("nums", {"d"}, {{{0, "i"}, Value::Int(2)}}));
    concept_view(6, block("nums", {"d"}, {{{0, "i"}, Value::Int(3)}}));
    concept_view(7, block("nums", {"d"}, {{{0, "i"}, Value::Int(4)}}));
    concept_view(8, block("nums", {"d"}, {{{0, "i"}, Value::Int(2)}}));
    concept_view(8, block("nums", {"d"}, {{{0, "i"}, Value::Int(3)}}));
    concept_view(9, block("nums", {"d"}, {{{0, "d"}, Value::Double(nan)}}));
    concept_view(10, block("nums", {"d"}, {{{0, "d"}, Value::Double(1.0)}}));
    concept_view(11, block("nums", {"d"}, {{{0, "i"}, Value::Int(1)}}));
    concept_view(12, block("strs", {"s"}, {}));
    concept_view(13, block("strs", {"o"}, {}));
    concept_view(14, block("strs", {"s"}, {{{0, "o"}, Value::Str("'b")}}));
    concept_view(15, block("strs", {"o"}, {{{0, "s"}, Value::Str("a")}}));
    concept_view(16, block("strs", {"s"}, {{{0, "s"}, Value::Str("a\x1f")}}));
    concept_view(17, block("strs", {"s"}, {{{0, "s"}, Value::Str("1")}}));
    concept_view(18, block("strs", {"s"}, {{{0, "s"}, Value::Str("zz")}}));
    concept_view(19, block("dkeys", {"d"}, {{{0, "s"}, Value::Str("a''b")}}));
    concept_view(20, block("dkeys", {"s"}, {}));
    concept_view(21, block("dkeys", {"d"}, {}));
    auto role_view = [&](uint32_t r, SelectBlock b) {
      EXPECT_TRUE(mappings.Add(MappingAssertion::ForRole(r, b)).ok());
    };
    role_view(0, block("strs", {"s", "o"}, {}));
    role_view(1, block("strs", {"o", "s"}, {}));
    role_view(2, block("strs", {"s", "o"}, {{{0, "s"}, Value::Str("a")}}));
    role_view(3, block("strs", {"o", "s"}, {{{0, "s"}, Value::Str("x")}}));
    role_view(4, block("nums", {"i", "d"}, {}));
    role_view(5, block("nums", {"i", "d"}, {{{0, "d"}, Value::Double(0.0)}}));
    role_view(5, block("nums", {"i", "d"}, {{{0, "i"}, Value::Int(0)}}));
    EXPECT_TRUE(
        mappings
            .Add(MappingAssertion::ForAttribute(0, block("nums", {"i", "d"},
                                                         {})))
            .ok());
    EXPECT_TRUE(
        mappings
            .Add(MappingAssertion::ForAttribute(
                1, block("nums", {"i", "d"}, {{{0, "i"}, Value::Int(0)}})))
            .ok());
    for (int c = 0; c < 22; ++c) vocab.InternConcept("C" + std::to_string(c));
    for (int r = 0; r < 6; ++r) vocab.InternRole("R" + std::to_string(r));
    for (int u = 0; u < 2; ++u) vocab.InternAttribute("U" + std::to_string(u));
  }
};

TEST(ConstraintIdentity, EdgeValuesKeepTodaysVerdicts) {
  EdgeFixture fx;
  auto sc = InferOver(fx.mappings, fx.db);
  const std::string listing = FactListing(*sc, fx.mappings, fx.db, fx.vocab);
  EXPECT_EQ(sc->summary().ToString(),
            "predicates=30 known=30 empty=1 inclusions=49 "
            "inverse_inclusions=4 exact_mappings=29 dominated_views=2 "
            "empty_views=1 key_columns=1 complete");
  EXPECT_EQ(Hex(Fnv1a(listing)), "25da9eb8573f1df3") << listing;
  // The verdicts the digest guards, spelled out.
  EXPECT_FALSE(sc->Included(Atom::Kind::kConcept, 0, 1));  // Int vs Double
  EXPECT_FALSE(sc->Included(Atom::Kind::kConcept, 2, 3));  // {±0.0} ⊄ {0.0}
  EXPECT_FALSE(sc->Included(Atom::Kind::kConcept, 3, 4));  // 0.0 vs -0.0
  EXPECT_TRUE(sc->Included(Atom::Kind::kConcept, 3, 2));
  EXPECT_TRUE(sc->Included(Atom::Kind::kConcept, 5, 6));   // NaN is NaN
  EXPECT_FALSE(sc->Included(Atom::Kind::kConcept, 5, 7));  // NaN vs -NaN
  EXPECT_TRUE(sc->Included(Atom::Kind::kConcept, 5, 9));   // = NaN: both
  EXPECT_FALSE(sc->Empty(Atom::Kind::kConcept, 9));
  EXPECT_TRUE(sc->DominatedView(9));  // concept 8's second NaN view
  EXPECT_TRUE(sc->DominatedView(28));  // role 5: {(0, 0.0)} ⊂ i = 0
  EXPECT_TRUE(sc->Included(Atom::Kind::kConcept, 16, 20));  // "a\x1f"
  EXPECT_TRUE(sc->Included(Atom::Kind::kConcept, 19, 4));   // 'a''b' → -0.0
  EXPECT_FALSE(sc->Included(Atom::Kind::kConcept, 19, 3));
  EXPECT_TRUE(sc->IncludedInverse(Atom::Kind::kRole, 0, 1));
  EXPECT_FALSE(sc->IsKeyColumn("dkeys", "d"));  // the NaNs are one value
  EXPECT_TRUE(sc->IsKeyColumn("dkeys", "s"));
  EXPECT_FALSE(sc->IsKeyColumn("dkeys", "dup"));
  EXPECT_FALSE(sc->IsKeyColumn("nums", "d"));
}


// Values the source index lacks (a constant projection, or statistics of
// another database) take overlay ids; verdicts do not change, and a
// refresh keeps the base's overlay ids meaningful.
TEST(ConstraintIdentity, OverlayIdsKeepVerdicts) {
  Database db;
  ASSERT_TRUE(db.CreateTable({"t", {{"s", ValueType::kString}}}).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Str("a")}).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Str("b")}).ok());
  auto tagged = [](const char* tag) {
    SelectBlock b = TableBlock("t", false);
    b.const_select = {{1, Value::Str(tag)}};
    return b;
  };
  MappingSet base_maps;
  ASSERT_TRUE(base_maps.Add(MappingAssertion::ForConcept(0, tagged("k"))).ok());
  ASSERT_TRUE(base_maps.Add(MappingAssertion::ForConcept(1, tagged("k"))).ok());
  MappingSet next = base_maps;
  ASSERT_TRUE(next.Add(MappingAssertion::ForConcept(2, tagged("z"))).ok());
  ASSERT_TRUE(next.Add(MappingAssertion::ForConcept(3, tagged("k"))).ok());
  ConstraintInferenceOptions opts;
  opts.retain_view_extensions = true;
  const Database empty_db;
  const Database* stats_dbs[] = {&db, &empty_db};
  for (const Database* stats_db : stats_dbs) {
    const auto stats = rdb::DatabaseStats::Collect(*stats_db);
    auto base = SourceConstraints::Infer(base_maps, db, stats, opts);
    uint64_t reused = 0;
    auto refreshed =
        SourceConstraints::Refresh(*base, next, db, stats, opts, &reused);
    auto scratch = SourceConstraints::Infer(next, db, stats, opts);
    EXPECT_EQ(reused, 2u);
    for (const auto* sc : {refreshed.get(), scratch.get()}) {
      EXPECT_TRUE(sc->Included(Atom::Kind::kConcept, 0, 1));
      EXPECT_TRUE(sc->Included(Atom::Kind::kConcept, 3, 0));
      EXPECT_FALSE(sc->Included(Atom::Kind::kConcept, 0, 2));
      EXPECT_FALSE(sc->Included(Atom::Kind::kConcept, 2, 3));
      EXPECT_EQ(sc->summary().inclusions, 6u);
    }
  }
}

// Chained refreshes over seeded delta sequences of three shapes (add-only,
// mixed, removal-heavy), each step checked against a scratch inference
// with its own statistics.
TEST(ConstraintIdentity, RefreshChainsEqualScratchInference) {
  uint64_t reused_total = 0;
  for (uint64_t seed = 0; seed < 24; ++seed) {
    benchgen::Workload w = benchgen::GenerateWorkload(PinSweepConfig(seed));
    benchgen::DeltaSequenceConfig dc;
    dc.seed = seed ^ 0x5EEDULL;
    dc.num_deltas = 6;
    dc.mapping_change_fraction = 0.8;
    dc.remove_fraction = 0.3 * static_cast<double>(seed % 3);
    dc.max_changes = 1 + static_cast<uint32_t>(seed % 6);
    const auto deltas = benchgen::GenerateDeltaSequence(w, dc);
    ConstraintInferenceOptions opts;
    opts.retain_view_extensions = true;
    const auto stats = rdb::DatabaseStats::Collect(w.database);
    std::unique_ptr<const SourceConstraints> prev =
        SourceConstraints::Infer(w.mappings, w.database, stats, opts);
    MappingSet maps = w.mappings;
    for (size_t d = 0; d < deltas.size(); ++d) {
      auto next = ApplyMappingDelta(maps, deltas[d]);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      uint64_t reused = 0;
      auto refreshed = SourceConstraints::Refresh(*prev, *next, w.database,
                                                  stats, opts, &reused);
      auto scratch = InferOver(*next, w.database, opts);
      ASSERT_EQ(
          FactListing(*refreshed, *next, w.database, w.ontology.vocab()),
          FactListing(*scratch, *next, w.database, w.ontology.vocab()))
          << "seed " << seed << ", delta " << d;
      reused_total += reused;
      maps = std::move(*next);
      prev = std::move(refreshed);
    }
  }
  EXPECT_GT(reused_total, 0u);
}

}  // namespace
}  // namespace olite::obda
