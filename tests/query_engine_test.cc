#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "mapping/mapping.h"
#include "obda/compiled_ontology.h"
#include "obda/query_engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace olite::obda {
namespace {

using dllite::Ontology;
using mapping::MappingAssertion;
using mapping::MappingSet;
using rdb::Database;
using rdb::SelectBlock;
using rdb::Value;
using rdb::ValueType;

// Same university instance as obda_test.cc, compiled into a shareable
// snapshot.
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
    SelectBlock all_profs;
    all_profs.from_tables = {"prof"};
    all_profs.select = {{0, "id"}};
    EXPECT_TRUE(mappings
                    .Add(MappingAssertion::ForConcept(cid("Professor"),
                                                      all_profs))
                    .ok());
    SelectBlock assistants = all_profs;
    assistants.filters = {{{0, "rank"}, Value::Str("assistant")}};
    EXPECT_TRUE(mappings
                    .Add(MappingAssertion::ForConcept(cid("AssistantProf"),
                                                      assistants))
                    .ok());
    SelectBlock teaching;
    teaching.from_tables = {"teaching"};
    teaching.select = {{0, "prof_id"}, {0, "course"}};
    EXPECT_TRUE(
        mappings
            .Add(MappingAssertion::ForRole(
                onto.vocab().FindRole("teaches").value(), teaching))
            .ok());
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
};

std::vector<AnswerTuple> Sorted(std::vector<AnswerTuple> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(QueryEngineTest, RepeatedQueryHitsCacheWithIdenticalAnswers) {
  QueryEngine engine(Fixture().Compile());
  const char* q = "q(x) :- Person(x)";

  AnswerStats cold;
  auto first = engine.Answer(q, &cold);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(cold.cache.hit);
  EXPECT_TRUE(cold.cache.stored);
  EXPECT_GT(cold.rewrite.iterations, 0u);

  AnswerStats hot;
  auto second = engine.Answer(q, &hot);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(hot.cache.hit);
  EXPECT_FALSE(hot.cache.stored);
  // Nothing was rewritten on the hot path…
  EXPECT_EQ(hot.rewrite.iterations, 0u);
  EXPECT_EQ(hot.rewrite.generated, 0u);
  // …but the plan shape is still reported.
  EXPECT_EQ(hot.rewrite.final_disjuncts, cold.rewrite.final_disjuncts);
  EXPECT_EQ(hot.sql, cold.sql);
  EXPECT_EQ(hot.sql_blocks, cold.sql_blocks);
  // Bit-identical answers.
  EXPECT_EQ(Sorted(*first), Sorted(*second));
  EXPECT_EQ(Sorted(*first),
            (std::vector<AnswerTuple>{{"ada"}, {"alan"}}));

  LruCacheMetrics m = engine.cache_metrics();
  EXPECT_EQ(m.hits, 1u);
  EXPECT_EQ(m.entries, 1u);
}

TEST(QueryEngineTest, AlphaRenamedQueryHitsSameEntry) {
  QueryEngine engine(Fixture().Compile());
  auto first = engine.Answer("q(x) :- Professor(x), teaches(x, y)");
  ASSERT_TRUE(first.ok());

  AnswerStats stats;
  auto renamed =
      engine.Answer("q(a) :- Professor(a), teaches(a, b)", &stats);
  ASSERT_TRUE(renamed.ok());
  EXPECT_TRUE(stats.cache.hit);
  EXPECT_EQ(Sorted(*first), Sorted(*renamed));
  EXPECT_EQ(engine.cache_metrics().entries, 1u);
}

// A caller may reuse one AnswerStats across calls: each call reports its
// own cache outcome, never one left over from the previous call.
TEST(QueryEngineTest, ReusedStatsReportEachCallsOwnCacheOutcome) {
  QueryEngine engine(Fixture().Compile());
  AnswerStats stats;
  ASSERT_TRUE(engine.Answer("q(x) :- Person(x)", &stats).ok());
  EXPECT_FALSE(stats.cache.hit);
  EXPECT_TRUE(stats.cache.stored);

  ASSERT_TRUE(engine.Answer("q(x) :- Person(x)", &stats).ok());
  EXPECT_TRUE(stats.cache.hit);
  EXPECT_FALSE(stats.cache.stored);

  ASSERT_TRUE(engine.Answer("q(x) :- Course(x)", &stats).ok());
  EXPECT_FALSE(stats.cache.hit);
  EXPECT_TRUE(stats.cache.stored);
}

TEST(QueryEngineTest, UncachedEngineOverSharedSnapshotRunsColdPath) {
  const auto snapshot = Fixture().Compile();
  QueryEngine engine(snapshot);
  ASSERT_TRUE(engine.Answer("q(x) :- Person(x)").ok());

  QueryEngineOptions no_cache;
  no_cache.plan_cache_capacity = 0;
  QueryEngine cold(snapshot, no_cache);
  for (int i = 0; i < 2; ++i) {
    AnswerStats stats;
    auto again = cold.Answer("q(x) :- Person(x)", &stats);
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(stats.cache.hit);
    EXPECT_FALSE(stats.cache.stored);
    EXPECT_GT(stats.rewrite.iterations, 0u);
  }
  EXPECT_EQ(cold.cache_metrics().entries, 0u);
  EXPECT_EQ(engine.cache_metrics().entries, 1u);  // nothing new stored
}

TEST(QueryEngineTest, DegradedResultsAreNeverCached) {
  QueryEngine engine(Fixture().Compile());

  AnswerOptions tight;
  tight.max_rewrite_iterations = 1;
  tight.allow_degraded = true;
  AnswerStats degraded;
  auto partial = engine.Answer("q(x) :- Person(x)", tight, &degraded);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  ASSERT_FALSE(degraded.degradation.events.empty());
  EXPECT_FALSE(degraded.cache.stored);
  EXPECT_EQ(engine.cache_metrics().entries, 0u);

  // The next unbudgeted call must recompile (miss), not replay the
  // truncated plan, and must return the complete answers.
  AnswerStats full;
  auto complete = engine.Answer("q(x) :- Person(x)", &full);
  ASSERT_TRUE(complete.ok());
  EXPECT_FALSE(full.cache.hit);
  EXPECT_TRUE(full.cache.stored);
  EXPECT_EQ(Sorted(*complete),
            (std::vector<AnswerTuple>{{"ada"}, {"alan"}}));
}

TEST(QueryEngineTest, CachedPlanStillHonoursEvalBudget) {
  QueryEngine engine(Fixture().Compile());
  auto warm = engine.Answer("q(x) :- Person(x)");
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->size(), 2u);

  AnswerOptions capped;
  capped.max_rows = 1;
  capped.allow_degraded = true;
  AnswerStats stats;
  auto rows = engine.Answer("q(x) :- Person(x)", capped, &stats);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(stats.cache.hit);
  EXPECT_LE(rows->size(), 1u);
  EXPECT_FALSE(stats.degradation.events.empty());
}

TEST(QueryEngineTest, EvictionUnderTinyCapacity) {
  QueryEngineOptions opts;
  opts.plan_cache_capacity = 1;
  opts.plan_cache_shards = 1;
  QueryEngine engine(Fixture().Compile(), opts);

  ASSERT_TRUE(engine.Answer("q(x) :- Person(x)").ok());
  ASSERT_TRUE(engine.Answer("q(x) :- Course(x)").ok());  // evicts Person plan

  AnswerStats stats;
  ASSERT_TRUE(engine.Answer("q(x) :- Person(x)", &stats).ok());
  EXPECT_FALSE(stats.cache.hit);  // was evicted
  EXPECT_GE(stats.cache.evictions, 1u);
  EXPECT_GE(engine.cache_metrics().evictions, 2u);
  EXPECT_EQ(engine.cache_metrics().entries, 1u);
}

// InheritPlans copies every plan avoiding the changed predicates, leaves
// the rest behind, and keeps the base's recency order: the plan the base
// used least recently is the first the successor evicts.
TEST(QueryEngineTest, InheritPlansSkipsChangedPredicatesAndKeepsRecency) {
  auto snapshot = Fixture().Compile();
  QueryEngineOptions opts;
  opts.enable_metrics = false;
  opts.plan_cache_capacity = 3;
  opts.plan_cache_shards = 1;
  QueryEngine base(snapshot, opts);
  for (const char* q : {"q(x) :- Course(x)", "q(x, s) :- salary(x, s)",
                        "q(x, y) :- teaches(x, y)", "q(x) :- Course(x)"}) {
    ASSERT_TRUE(base.Answer(q).ok()) << q;
  }
  // Most recent first: Course, teaches, salary.
  ASSERT_TRUE(base.Answer("q(x) :- Person(x)").ok());  // evicts salary
  const uint64_t person =
      (static_cast<uint64_t>(query::Atom::Kind::kConcept) << 32) |
      snapshot->ontology().vocab().FindConcept("Person").value();

  QueryEngine next(snapshot, opts);
  const PlanInheritance inherited = next.InheritPlans(base, {person});
  EXPECT_EQ(inherited.migrated, 2u);
  EXPECT_EQ(inherited.invalidated, 1u);
  EXPECT_EQ(next.cache_metrics().entries, 2u);

  // The Person plan was left behind; storing it fills the cache, and the
  // salary plan then evicts teaches, the least recent inherited plan.
  auto hit = [&next](const char* q) {
    AnswerStats stats;
    EXPECT_TRUE(next.Answer(q, &stats).ok()) << q;
    return stats.cache.hit;
  };
  EXPECT_FALSE(hit("q(x) :- Person(x)"));
  EXPECT_FALSE(hit("q(x, s) :- salary(x, s)"));
  EXPECT_TRUE(hit("q(x) :- Course(x)"));
  EXPECT_FALSE(hit("q(x, y) :- teaches(x, y)"));
}

TEST(QueryEngineTest, CapacityZeroDisablesCaching) {
  QueryEngineOptions opts;
  opts.plan_cache_capacity = 0;
  QueryEngine engine(Fixture().Compile(), opts);

  ASSERT_TRUE(engine.Answer("q(x) :- Person(x)").ok());
  AnswerStats stats;
  auto again = engine.Answer("q(x) :- Person(x)", &stats);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(stats.cache.hit);
  EXPECT_FALSE(stats.cache.stored);
  EXPECT_GT(stats.rewrite.iterations, 0u);
  EXPECT_EQ(Sorted(*again), (std::vector<AnswerTuple>{{"ada"}, {"alan"}}));
}

TEST(QueryEngineTest, EmptyUnfoldingIsCached) {
  // A concept no mapping (directly or via rewriting) can reach: its
  // unfolding is empty, and that empty plan is itself cacheable.
  auto onto = dllite::ParseOntology("concept Mapped Unmapped\n");
  ASSERT_TRUE(onto.ok());
  Database db;
  ASSERT_TRUE(db.CreateTable({"t", {{"a", ValueType::kString}}}).ok());
  ASSERT_TRUE(db.Insert("t", {Value::Str("x1")}).ok());
  MappingSet mappings;
  SelectBlock b;
  b.from_tables = {"t"};
  b.select = {{0, "a"}};
  ASSERT_TRUE(mappings
                  .Add(MappingAssertion::ForConcept(
                      onto->vocab().FindConcept("Mapped").value(), b))
                  .ok());
  auto compiled = CompiledOntology::Compile(std::move(onto).value(),
                                            std::move(mappings),
                                            std::move(db));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  QueryEngine engine(*compiled);

  const char* q = "q(x) :- Unmapped(x)";
  AnswerOptions opts;
  opts.capture_sql = true;  // the SQL text is opt-in
  AnswerStats cold;
  auto first = engine.Answer(q, opts, &cold);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->empty());
  EXPECT_TRUE(cold.cache.stored);
  EXPECT_EQ(cold.sql, "-- empty unfolding");
  AnswerStats hot;
  auto second = engine.Answer(q, opts, &hot);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hot.cache.hit);
  EXPECT_TRUE(second->empty());
  EXPECT_EQ(hot.sql, "-- empty unfolding");
}

TEST(QueryEngineTest, SharedSnapshotServesMultipleEngines) {
  auto snapshot = Fixture().Compile(query::RewriteMode::kClassified);
  QueryEngine a(snapshot);
  QueryEngine b(snapshot);
  auto ra = a.Answer("q(x, s) :- Person(x), salary(x, s)");
  auto rb = b.Answer("q(x, s) :- Person(x), salary(x, s)");
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(Sorted(*ra), Sorted(*rb));
  // The caches are per-engine.
  EXPECT_EQ(a.cache_metrics().entries, 1u);
  EXPECT_EQ(b.cache_metrics().entries, 1u);
}

TEST(QueryEngineTest, ConcurrentSameQueryStress) {
  QueryEngine engine(Fixture().Compile(query::RewriteMode::kClassified));
  const std::vector<AnswerTuple> want = {{"ada"}, {"alan"}};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&engine, &want, &failures] {
      for (int i = 0; i < 25; ++i) {
        auto r = engine.Answer("q(x) :- Person(x)");
        if (!r.ok() || Sorted(*r) != want) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  LruCacheMetrics m = engine.cache_metrics();
  EXPECT_EQ(m.hits + m.misses, 200u);
  EXPECT_GT(m.hits, 0u);
  EXPECT_EQ(m.entries, 1u);
}

TEST(QueryEngineTest, ConcurrentDistinctQueryStress) {
  QueryEngineOptions opts;
  opts.plan_cache_capacity = 4;  // force concurrent evictions
  opts.plan_cache_shards = 2;
  QueryEngine engine(Fixture().Compile(), opts);
  const std::vector<const char*> queries = {
      "q(x) :- Person(x)",
      "q(x) :- Professor(x)",
      "q(x) :- AssistantProf(x)",
      "q(x) :- Course(x)",
      "q(x, y) :- teaches(x, y)",
      "q(x, s) :- salary(x, s)",
      "q(x) :- Professor(x), teaches(x, y)",
      "q() :- teaches(x, y), Course(y)",
  };
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&engine, &queries, &failures, t] {
      for (int i = 0; i < 20; ++i) {
        const char* q = queries[(t + i) % queries.size()];
        auto r = engine.Answer(q);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(engine.cache_metrics().entries, 4u);
}

TEST(QueryEngineTest, ConcurrentColumnarEngineStress) {
  // Hammers engines over one snapshot from 8 threads: a caching columnar
  // engine (cache-hot executions of one shared PreparedPlan, whose
  // shared-subplan cache must be call-local), a nested-loop engine and
  // columnar engines with randomised join orders. Run under TSan in CI;
  // any shared mutable evaluator state shows up as a race, any engine
  // disagreement as a failure count.
  const auto snapshot = Fixture().Compile(query::RewriteMode::kClassified);
  auto make = [&snapshot](rdb::EvalEngine eval, uint64_t seed) {
    QueryEngineOptions opts;
    opts.engine = eval;
    opts.join_order_seed = seed;
    return std::make_unique<QueryEngine>(snapshot, opts);
  };
  const auto columnar = make(rdb::EvalEngine::kColumnar, 0);
  const auto nested = make(rdb::EvalEngine::kNestedLoop, 0);
  std::vector<std::unique_ptr<QueryEngine>> shuffled;
  for (uint64_t seed : {4u, 109u, 214u}) {
    shuffled.push_back(make(rdb::EvalEngine::kColumnar, seed));
  }
  const char* q = "q(x, y) :- Professor(x), teaches(x, y)";
  auto baseline = columnar->Answer(q);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::vector<AnswerTuple> want = Sorted(*baseline);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        const QueryEngine& engine =
            i % 3 == 2   ? *nested
            : i % 5 == 4 ? *shuffled[(t + i) % shuffled.size()]
                         : *columnar;
        AnswerStats stats;
        auto r = engine.Answer(q, &stats);
        if (!r.ok() || Sorted(*r) != want) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(columnar->cache_metrics().entries, 1u);
}

TEST(QueryEngineTest, AnswerStatsSurfaceEvaluatorCounters) {
  const auto snapshot = Fixture().Compile(query::RewriteMode::kClassified);
  QueryEngineOptions opts;
  opts.engine = rdb::EvalEngine::kColumnar;
  QueryEngine columnar(snapshot, opts);
  AnswerStats stats;
  auto r = columnar.Answer("q(x) :- Person(x)", &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_STREQ(stats.eval.engine, "columnar");
  EXPECT_GT(stats.eval.batches, 0u);
  EXPECT_GT(stats.eval.rows_scanned, 0u);
  opts.engine = rdb::EvalEngine::kNestedLoop;
  QueryEngine nested(snapshot, opts);
  auto n = nested.Answer("q(x) :- Person(x)", &stats);
  ASSERT_TRUE(n.ok());
  EXPECT_STREQ(stats.eval.engine, "nested_loop");
  EXPECT_EQ(Sorted(*r), Sorted(*n));
}

TEST(QueryEngineTest, StageTimingsColdVsCacheHit) {
  QueryEngine engine(Fixture().Compile());
  AnswerStats cold;
  ASSERT_TRUE(engine.Answer("q(x) :- Person(x)", &cold).ok());
  // The cold path runs every stage.
  EXPECT_GT(cold.stage.rewrite_us, 0.0);
  EXPECT_GT(cold.stage.unfold_us, 0.0);
  EXPECT_GT(cold.stage.prepare_us, 0.0);
  EXPECT_GT(cold.stage.execute_us, 0.0);

  AnswerStats hot;
  ASSERT_TRUE(engine.Answer("q(x) :- Person(x)", &hot).ok());
  ASSERT_TRUE(hot.cache.hit);
  // A hit skips compilation entirely: only evaluation time remains.
  EXPECT_EQ(hot.stage.rewrite_us, 0.0);
  EXPECT_EQ(hot.stage.minimize_us, 0.0);
  EXPECT_EQ(hot.stage.unfold_us, 0.0);
  EXPECT_EQ(hot.stage.prepare_us, 0.0);
  EXPECT_GT(hot.stage.execute_us, 0.0);
}

TEST(QueryEngineTest, MetricsRecordedIntoScopedRegistry) {
  obs::MetricsRegistry registry;
  QueryEngineOptions opts;
  opts.metrics = &registry;
  QueryEngine engine(Fixture().Compile(), opts);

  // 130 calls guarantees the paced refreshes fire at least once (the
  // hit-rate gauge updates every 64th call per thread, the per-block
  // histogram transfer every 8th — both counters are thread-local and
  // shared across engines, so we cross at least one full window).
  constexpr uint64_t kCalls = 130;
  for (uint64_t i = 0; i < kCalls; ++i) {
    AnswerStats stats;
    auto r = engine.Answer("q(x) :- Person(x)", &stats);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->size(), 2u);
  }

  const obs::Counter* answers = registry.FindCounter("obda.answers");
  ASSERT_NE(answers, nullptr);
  EXPECT_EQ(answers->Value(), kCalls);
  EXPECT_EQ(registry.FindCounter("obda.errors")->Value(), 0u);
  EXPECT_EQ(registry.FindCounter("obda.rows")->Value(), kCalls * 2);
  EXPECT_EQ(registry.FindCounter("plan_cache.misses")->Value(), 1u);
  EXPECT_EQ(registry.FindCounter("plan_cache.hits")->Value(), kCalls - 1);
  EXPECT_EQ(registry.FindCounter("plan_cache.insertions")->Value(), 1u);
  EXPECT_EQ(registry.FindGauge("plan_cache.entries")->Value(), 1.0);
  // The hit-rate gauge refreshes on a stride; after 130 calls it has
  // fired at least once with hits/(hits+misses) close to 1.
  EXPECT_GT(registry.FindGauge("plan_cache.hit_rate")->Value(), 0.5);

  // Whole-call latency: one sample per call. Stage histograms only see
  // the cold compile (hits record nothing for the compile stages).
  const obs::Histogram* answer_us = registry.FindHistogram("obda.answer_us");
  ASSERT_NE(answer_us, nullptr);
  EXPECT_EQ(answer_us->TakeSnapshot().count, kCalls);
  const obs::Histogram* rewrite_us =
      registry.FindHistogram("stage.rewrite_us");
  ASSERT_NE(rewrite_us, nullptr);
  EXPECT_EQ(rewrite_us->TakeSnapshot().count, 1u);
  const obs::Histogram* execute_us =
      registry.FindHistogram("stage.execute_us");
  ASSERT_NE(execute_us, nullptr);
  EXPECT_GT(execute_us->TakeSnapshot().count, 0u);
  // Per-block evaluation latency is sampled (every 8th call per thread),
  // so over 130 calls some blocks must have been transferred.
  const obs::Histogram* block_us = registry.FindHistogram("rdb.block_us");
  ASSERT_NE(block_us, nullptr);
  EXPECT_GT(block_us->TakeSnapshot().count, 0u);
}

TEST(QueryEngineTest, DegradationCountersByStage) {
  obs::MetricsRegistry registry;
  QueryEngineOptions eopts;
  eopts.metrics = &registry;
  QueryEngine engine(Fixture().Compile(), eopts);

  AnswerOptions tight;
  tight.max_rewrite_iterations = 1;
  tight.allow_degraded = true;
  AnswerStats stats;
  auto r = engine.Answer("q(x) :- Person(x)", tight, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(stats.degradation.events.empty());
  // Every degradation event bumped its per-stage counter.
  for (const auto& event : stats.degradation.events) {
    const obs::Counter* c =
        registry.FindCounter("degradation." + event.stage);
    ASSERT_NE(c, nullptr) << event.stage;
    EXPECT_GE(c->Value(), 1u);
  }
}

TEST(QueryEngineTest, DisabledMetricsTouchNoRegistry) {
  obs::MetricsRegistry registry;
  QueryEngineOptions opts;
  opts.enable_metrics = false;
  opts.metrics = &registry;  // ignored when disabled
  QueryEngine engine(Fixture().Compile(), opts);
  ASSERT_TRUE(engine.Answer("q(x) :- Person(x)").ok());
  EXPECT_EQ(registry.FindCounter("obda.answers"), nullptr);
  EXPECT_EQ(registry.FindHistogram("obda.answer_us"), nullptr);
}

TEST(QueryEngineTest, CaptureSqlIsOptIn) {
  QueryEngine engine(Fixture().Compile());
  AnswerStats plain;
  ASSERT_TRUE(engine.Answer("q(x) :- Person(x)", &plain).ok());
  EXPECT_TRUE(plain.sql.empty());  // default: no SQL copy

  AnswerOptions opts;
  opts.capture_sql = true;
  AnswerStats captured;
  ASSERT_TRUE(engine.Answer("q(x) :- Person(x)", opts, &captured).ok());
  EXPECT_FALSE(captured.sql.empty());
  EXPECT_NE(captured.sql.find("SELECT"), std::string::npos) << captured.sql;
  // The cache-hit path honours the flag the same way.
  AnswerStats hot;
  ASSERT_TRUE(engine.Answer("q(x) :- Person(x)", opts, &hot).ok());
  EXPECT_TRUE(hot.cache.hit);
  EXPECT_EQ(hot.sql, captured.sql);
}

TEST(QueryEngineTest, TraceSamplingEveryNthCall) {
  QueryEngine engine(Fixture().Compile());
  obs::VectorTraceSink sink;
  AnswerOptions opts;
  opts.trace_sink = &sink;
  opts.trace_sample_every = 2;  // calls 0, 2, 4 of the engine's sequence
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.Answer("q(x) :- Person(x)", opts).ok());
  }
  ASSERT_EQ(sink.size(), 3u);
  const std::vector<obs::QueryTrace> traces = sink.traces();
  // The first sampled call was the cold compile: its trace carries the
  // compile-stage spans and the rendered query text.
  const obs::QueryTrace& cold = traces[0];
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(cold.ok);
  EXPECT_EQ(cold.rows, 2u);
  EXPECT_GT(cold.total_us, 0.0);
  EXPECT_NE(cold.query.find("Person"), std::string::npos) << cold.query;
  EXPECT_NE(cold.fingerprint, 0u);
  bool has_rewrite = false, has_execute = false;
  for (const auto& span : cold.spans) {
    if (span.name == "rewrite") has_rewrite = true;
    if (span.name.rfind("execute", 0) == 0) has_execute = true;
    EXPECT_GE(span.elapsed_us, 0.0) << span.name;
  }
  EXPECT_TRUE(has_rewrite);
  EXPECT_TRUE(has_execute);
  // Later samples are cache hits: no compile spans.
  for (size_t i = 1; i < traces.size(); ++i) {
    EXPECT_TRUE(traces[i].cache_hit);
    for (const auto& span : traces[i].spans) {
      EXPECT_NE(span.name, "rewrite");
      EXPECT_NE(span.name, "unfold");
    }
  }
}

TEST(QueryEngineTest, NoSinkOrZeroSamplingTracesNothing) {
  QueryEngine engine(Fixture().Compile());
  obs::VectorTraceSink sink;
  AnswerOptions no_rate;
  no_rate.trace_sink = &sink;  // sink without a sampling rate: off
  ASSERT_TRUE(engine.Answer("q(x) :- Person(x)", no_rate).ok());
  EXPECT_EQ(sink.size(), 0u);
}

TEST(QueryEngineTest, ConcurrentMetricsAndTracingStress) {
  // 8 threads recording into one scoped registry and one shared sink:
  // the TSan job runs this to prove the whole observation path is clean,
  // and the counters must still be exact.
  obs::MetricsRegistry registry;
  QueryEngineOptions eopts;
  eopts.metrics = &registry;
  QueryEngine engine(Fixture().Compile(query::RewriteMode::kClassified), eopts);
  obs::VectorTraceSink sink;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&engine, &sink, &failures] {
      for (int i = 0; i < 25; ++i) {
        AnswerOptions opts;
        opts.trace_sink = &sink;
        opts.trace_sample_every = 1;  // trace every call
        auto r = engine.Answer("q(x) :- Person(x)", opts);
        if (!r.ok() || r->size() != 2) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(registry.FindCounter("obda.answers")->Value(), 200u);
  EXPECT_EQ(registry.FindCounter("obda.rows")->Value(), 400u);
  EXPECT_EQ(sink.size(), 200u);
  EXPECT_EQ(registry.FindHistogram("obda.answer_us")->TakeSnapshot().count,
            200u);
}

TEST(QueryEngineTest, ConsistencyReportIsAValue) {
  QueryEngine engine(Fixture().Compile());
  auto report = engine.CheckConsistency();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->consistent);
  EXPECT_TRUE(report->violations.empty());
  // Consistency probes bypass the plan cache entirely.
  EXPECT_EQ(engine.cache_metrics().entries, 0u);
}

}  // namespace
}  // namespace olite::obda
