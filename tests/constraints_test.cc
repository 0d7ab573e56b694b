// Unit tests for obda::SourceConstraints — the constraint-inference pass
// that derives exact mappings, extension inclusions, empty/dominated views
// and key columns from a frozen OBDA specification — plus a never-crash
// fuzz through the rdb fault-injection site.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "benchgen/workload.h"
#include "common/fault_injection.h"
#include "mapping/mapping.h"
#include "obda/compiled_ontology.h"
#include "obda/constraints.h"
#include "obda/query_engine.h"
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

TEST(SourceConstraints, PairBudgetBoundsInclusionWork) {
  Database db;
  ASSERT_TRUE(db.CreateTable({"t", {{"s", ValueType::kString}}}).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Str("a")}).ok());
  MappingSet mappings;
  for (uint32_t c = 0; c < 6; ++c) {
    ASSERT_TRUE(
        mappings.Add(MappingAssertion::ForConcept(c, TableBlock("t", false)))
            .ok());
  }
  ConstraintInferenceOptions options;
  options.max_inclusion_pairs = 3;
  auto sc = InferOver(mappings, db, options);
  EXPECT_FALSE(sc->summary().complete);
  EXPECT_LE(sc->summary().inclusions, 3u);
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
  auto base = InferOver(fx.mappings, fx.db, opts);

  // Add one assertion; the three existing views must be reused, and every
  // derived fact must equal a from-scratch inference.
  MappingSet next = fx.mappings;
  ASSERT_TRUE(
      next.Add(MappingAssertion::ForConcept(2, TableBlock("tb", false))).ok());
  const auto stats = rdb::DatabaseStats::Collect(fx.db);
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
  auto base = InferOver(fx.mappings, fx.db, opts);
  ASSERT_FALSE(base->Empty(Atom::Kind::kConcept, 1));

  MappingSet next;
  for (const MappingAssertion& m : fx.mappings.assertions()) {
    if (m.kind == mapping::TargetKind::kConcept && m.predicate == 1) continue;
    ASSERT_TRUE(next.Add(m).ok());
  }
  const auto stats = rdb::DatabaseStats::Collect(fx.db);
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
  auto base = InferOver(fx.mappings, fx.db, opts);

  MappingSet next = fx.mappings;
  ASSERT_TRUE(
      next.Add(MappingAssertion::ForConcept(2, TableBlock("tb", false))).ok());
  const auto stats = rdb::DatabaseStats::Collect(fx.db);
  auto refreshed =
      SourceConstraints::Refresh(*base, next, fx.db, stats, opts, nullptr);

  std::vector<uint64_t> affected;
  ASSERT_TRUE(base->DiffAffectedPreds(*refreshed, fx.mappings, next,
                                      &affected));
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
  affected.clear();
  ASSERT_TRUE(
      base->DiffAffectedPreds(*base, fx.mappings, fx.mappings, &affected));
  EXPECT_TRUE(affected.empty());
}

TEST(SourceConstraintsRefresh, DiffRefusesWhenKeyFactsChange) {
  // Key columns prune by table, not predicate, so a diff across databases
  // whose distinct counts differ cannot be attributed — it must return
  // false rather than under-report.
  Database unique_db;
  ASSERT_TRUE(
      unique_db.CreateTable({"tr",
                             {{"s", ValueType::kString},
                              {"o", ValueType::kString}}})
          .ok());
  ASSERT_TRUE(
      unique_db.Insert("tr", {Value::Str("x"), Value::Str("y")}).ok());
  Database dup_db;
  ASSERT_TRUE(dup_db.CreateTable({"tr",
                                  {{"s", ValueType::kString},
                                   {"o", ValueType::kString}}})
                  .ok());
  ASSERT_TRUE(dup_db.Insert("tr", {Value::Str("x"), Value::Str("y")}).ok());
  ASSERT_TRUE(dup_db.Insert("tr", {Value::Str("x"), Value::Str("z")}).ok());

  MappingSet mappings;
  ASSERT_TRUE(
      mappings.Add(MappingAssertion::ForRole(0, TableBlock("tr", true))).ok());
  auto with_key = InferOver(mappings, unique_db);
  auto without_key = InferOver(mappings, dup_db);
  ASSERT_TRUE(with_key->IsKeyColumn("tr", "s"));
  ASSERT_FALSE(without_key->IsKeyColumn("tr", "s"));

  std::vector<uint64_t> affected;
  EXPECT_FALSE(with_key->DiffAffectedPreds(*without_key, mappings, mappings,
                                           &affected));
}

}  // namespace
}  // namespace olite::obda
