#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "mapping/mapping.h"
#include "obda/compiled_ontology.h"
#include "obda/delta.h"
#include "obda/serving_engine.h"
#include "obs/metrics.h"

namespace olite::obda {
namespace {

using dllite::Ontology;
using mapping::MappingAssertion;
using mapping::MappingSet;
using rdb::Database;
using rdb::SelectBlock;
using rdb::Value;
using rdb::ValueType;

// Same university instance as query_engine_test.cc. `extra_prof` adds a
// third professor, giving a second snapshot whose answers visibly differ.
struct Fixture {
  Ontology onto;
  Database db;
  MappingSet mappings;

  explicit Fixture(bool extra_prof = false) {
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
    if (extra_prof) {
      EXPECT_TRUE(
          db.Insert("prof", {Value::Str("grace"), Value::Str("full"),
                             Value::Int(95)})
              .ok());
    }
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

std::shared_ptr<const CompiledOntology> SnapA() { return Fixture().Compile(); }
std::shared_ptr<const CompiledOntology> SnapB() {
  return Fixture(/*extra_prof=*/true).Compile();
}

const std::vector<AnswerTuple> kAnswersA = {{"ada"}, {"alan"}};
const std::vector<AnswerTuple> kAnswersB = {{"ada"}, {"alan"}, {"grace"}};
const char* kPersonQuery = "q(x) :- Person(x)";

std::vector<AnswerTuple> Sorted(std::vector<AnswerTuple> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Every test here may arm the global injector; always leave it clean.
class ServingEngineTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::Global().DisarmAll(); }

  // Spins until `pred` holds (the container is single-core: yields, never
  // busy-burns a full quantum). Fails the test after ~5 s.
  template <typename Pred>
  static bool WaitFor(Pred pred) {
    for (int i = 0; i < 5000; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }
};

TEST_F(ServingEngineTest, ServesInitialSnapshotAtEpochOne) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  ServingEngine serving(SnapA(), opts);
  EXPECT_EQ(serving.epoch(), 1u);

  AnswerStats stats;
  auto r = serving.Answer(kPersonQuery, AnswerOptions{}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Sorted(*r), kAnswersA);
  EXPECT_EQ(stats.serve.epoch, 1u);
  EXPECT_EQ(stats.serve.attempts, 1u);
  EXPECT_FALSE(stats.serve.shed);
  EXPECT_EQ(serving.admission().admitted, 1u);
  EXPECT_EQ(serving.admission().in_flight, 0u);
}

TEST_F(ServingEngineTest, SwapPublishesNewEpochWithNewAnswers) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  ServingEngine serving(SnapA(), opts);
  ASSERT_TRUE(serving.Answer(kPersonQuery).ok());  // warm epoch-1 cache
  EXPECT_EQ(serving.cache_metrics().entries, 1u);

  EXPECT_EQ(serving.Swap(SnapB()), 2u);
  EXPECT_EQ(serving.epoch(), 2u);
  // The swap cleared the shared cache (exact accounting: the dead entry
  // became an eviction).
  LruCacheMetrics m = serving.cache_metrics();
  EXPECT_EQ(m.entries, 0u);
  EXPECT_EQ(m.evictions, 1u);

  AnswerStats stats;
  auto r = serving.Answer(kPersonQuery, AnswerOptions{}, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Sorted(*r), kAnswersB);
  EXPECT_EQ(stats.serve.epoch, 2u);
  EXPECT_FALSE(stats.cache.hit);  // epoch 2 compiled its own plan
  EXPECT_TRUE(stats.cache.stored);
}

TEST_F(ServingEngineTest, InFlightQueryFinishesOnItsStartingSnapshot) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  ServingEngine serving(SnapA(), opts);

  // Make evaluation slow enough that the swap lands mid-query: every rdb
  // block sleeps 60 ms. Snapshot B is compiled before arming: its
  // constraint inference runs rdb blocks too, and would otherwise delay
  // the swap until the worker is done.
  auto snap_b = SnapB();
  fault::Injector::Global().Arm(fault::Site::kRdbExecute,
                                {.latency_every = 1, .latency_ms = 60});
  AnswerStats stats;
  Result<std::vector<AnswerTuple>> got = std::vector<AnswerTuple>{};
  std::thread worker([&] {
    got = serving.Answer(kPersonQuery, AnswerOptions{}, &stats);
  });
  // Once the injector has been hit, the worker holds its epoch-1 record
  // and is inside evaluation; the swap below cannot affect it.
  ASSERT_TRUE(WaitFor([] {
    return fault::Injector::Global().hits(fault::Site::kRdbExecute) >= 1;
  }));
  EXPECT_EQ(serving.Swap(snap_b), 2u);
  worker.join();
  fault::Injector::Global().DisarmAll();

  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(stats.serve.epoch, 1u);
  EXPECT_EQ(Sorted(*got), kAnswersA);  // old snapshot, not a blend
  // The worker stored its plan after the swap, into the retired epoch's
  // own cache: nothing of it reaches the serving engine's cache.
  EXPECT_TRUE(stats.cache.stored);
  EXPECT_EQ(serving.cache_metrics().entries, 0u);
  // New arrivals see the new epoch immediately.
  AnswerStats after;
  auto next = serving.Answer(kPersonQuery, AnswerOptions{}, &after);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(after.serve.epoch, 2u);
  EXPECT_EQ(Sorted(*next), kAnswersB);
}

TEST_F(ServingEngineTest, FailedCompileAndSwapKeepsServingOldEpoch) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  ServingEngine serving(SnapA(), opts);

  fault::Injector::Global().Arm(fault::Site::kSnapshotBuild,
                                {.fail_every = 1});
  Fixture next(/*extra_prof=*/true);
  auto swapped = serving.CompileAndSwap(std::move(next.onto),
                                        std::move(next.mappings),
                                        std::move(next.db));
  EXPECT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kInternal);
  fault::Injector::Global().DisarmAll();

  // Zero downtime: still on epoch 1, still answering.
  EXPECT_EQ(serving.epoch(), 1u);
  auto r = serving.Answer(kPersonQuery);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Sorted(*r), kAnswersA);

  // A clean retry of the same rollout succeeds.
  Fixture retry(/*extra_prof=*/true);
  auto ok = serving.CompileAndSwap(std::move(retry.onto),
                                   std::move(retry.mappings),
                                   std::move(retry.db));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, 2u);
  EXPECT_EQ(Sorted(*serving.Answer(kPersonQuery)), kAnswersB);
}

TEST_F(ServingEngineTest, SaturationShedsDeterministically) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  opts.admission.max_in_flight = 1;
  opts.admission.max_queue_depth = 0;  // no queue: saturation sheds on arrival
  opts.admission.retry_after_ms = 7;
  ServingEngine serving(SnapA(), opts);

  // Occupy the only token: a worker whose evaluation sleeps 150 ms.
  fault::Injector::Global().Arm(fault::Site::kRdbExecute,
                                {.latency_every = 1, .latency_ms = 150});
  std::thread worker([&] { (void)serving.Answer(kPersonQuery); });
  ASSERT_TRUE(WaitFor([&] { return serving.admission().in_flight == 1; }));

  AnswerStats stats;
  auto shed = serving.Answer(kPersonQuery, AnswerOptions{}, &stats);
  worker.join();
  fault::Injector::Global().DisarmAll();

  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status().ToString().find("retry after"), std::string::npos)
      << shed.status().ToString();
  EXPECT_NE(shed.status().ToString().find("7"), std::string::npos);
  EXPECT_TRUE(stats.serve.shed);
  AdmissionSnapshot adm = serving.admission();
  EXPECT_EQ(adm.shed, 1u);
  EXPECT_EQ(adm.admitted, 1u);
  EXPECT_LE(adm.in_flight_peak, 1u);  // the limit is never exceeded
}

TEST_F(ServingEngineTest, QueuedCallerAdmittedWhenTokenFrees) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  opts.admission.max_in_flight = 1;
  opts.admission.max_queue_depth = 2;
  opts.admission.max_queue_wait_ms = 5000;  // generous: single-core CI
  ServingEngine serving(SnapA(), opts);

  fault::Injector::Global().Arm(fault::Site::kRdbExecute,
                                {.latency_every = 1, .latency_ms = 80});
  std::thread worker([&] { (void)serving.Answer(kPersonQuery); });
  ASSERT_TRUE(WaitFor([&] { return serving.admission().in_flight == 1; }));
  fault::Injector::Global().Disarm(fault::Site::kRdbExecute);

  // This call queues behind the worker, then gets the token when the
  // worker's Release fires — no shed.
  AnswerStats stats;
  auto r = serving.Answer(kPersonQuery, AnswerOptions{}, &stats);
  worker.join();

  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Sorted(*r), kAnswersA);
  EXPECT_GT(stats.serve.queue_wait_us, 0.0);
  AdmissionSnapshot adm = serving.admission();
  EXPECT_EQ(adm.queued, 1u);
  EXPECT_EQ(adm.shed, 0u);
  EXPECT_EQ(adm.admitted, 2u);
  EXPECT_LE(adm.in_flight_peak, 1u);
}

TEST_F(ServingEngineTest, QueueWaitIsBoundedByCallerDeadline) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  opts.admission.max_in_flight = 1;
  opts.admission.max_queue_depth = 4;
  opts.admission.max_queue_wait_ms = 60000;  // effectively unbounded
  ServingEngine serving(SnapA(), opts);

  fault::Injector::Global().Arm(fault::Site::kRdbExecute,
                                {.latency_every = 1, .latency_ms = 400});
  std::thread worker([&] { (void)serving.Answer(kPersonQuery); });
  ASSERT_TRUE(WaitFor([&] { return serving.admission().in_flight == 1; }));

  AnswerOptions tight;
  tight.deadline_ms = 30;
  Stopwatch sw;
  AnswerStats stats;
  auto shed = serving.Answer(kPersonQuery, tight, &stats);
  const double elapsed_ms = sw.ElapsedMillis();
  worker.join();
  fault::Injector::Global().DisarmAll();

  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(stats.serve.shed);
  // The shed response came back in O(deadline), not O(max_queue_wait_ms).
  // Generous multiplier: single-core CI under load.
  EXPECT_LT(elapsed_ms, 300.0);
}

// Regression: a deadline that expires before the first attempt even
// starts must come back as a shed — never feed the initial OK status
// into Result, which would abort the process.
TEST_F(ServingEngineTest, DeadlineExpiredBeforeFirstAttemptShedsCleanly) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  ServingEngine serving(SnapA(), opts);
  AnswerOptions tight;
  tight.deadline_ms = 1e-7;  // gone by the first remaining-deadline check
  AnswerStats stats;
  auto r = serving.Answer(kPersonQuery, tight, &stats);
  if (r.ok()) return;  // clock had not ticked yet: the attempt simply ran
  // Pre-attempt expiry sheds; a raced-in attempt may instead blow the
  // engine budget — either way the code is kResourceExhausted.
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ServingEngineTest, RetryRedrivesTransientAdmissionFault) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  ServingEngine serving(SnapA(), opts);

  // Modular plan, hits numbered from 1: hit 2 fails. The first call
  // consumes hit 1 (success); the second call's first attempt is hit 2
  // (injected failure), its retry is hit 3 (success).
  fault::Injector::Global().Arm(fault::Site::kAdmission, {.fail_every = 2});
  ASSERT_TRUE(serving.Answer(kPersonQuery).ok());

  AnswerOptions retrying;
  retrying.retry.max_attempts = 3;
  retrying.retry.initial_backoff_ms = 0.5;
  AnswerStats stats;
  auto r = serving.Answer(kPersonQuery, retrying, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Sorted(*r), kAnswersA);
  EXPECT_EQ(stats.serve.attempts, 2u);
  EXPECT_GT(stats.serve.backoff_ms, 0.0);
  EXPECT_EQ(serving.admission().retries, 1u);
  // The injected admission failure was accounted as a shed.
  EXPECT_EQ(serving.admission().shed, 1u);
}

TEST_F(ServingEngineTest, RetryGivesUpAfterMaxAttempts) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  ServingEngine serving(SnapA(), opts);
  fault::Injector::Global().Arm(fault::Site::kAdmission, {.fail_every = 1});

  AnswerOptions retrying;
  retrying.retry.max_attempts = 3;
  retrying.retry.initial_backoff_ms = 0.5;
  retrying.retry.max_backoff_ms = 2;
  AnswerStats stats;
  auto r = serving.Answer(kPersonQuery, retrying, &stats);
  ASSERT_FALSE(r.ok());
  // Injected admission faults are normalised to the shed contract.
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().ToString().find("retry after"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(stats.serve.attempts, 3u);
  EXPECT_EQ(serving.admission().retries, 2u);
  EXPECT_EQ(fault::Injector::Global().hits(fault::Site::kAdmission), 3u);
}

TEST_F(ServingEngineTest, RetryNeverOutlivesCallerDeadline) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  ServingEngine serving(SnapA(), opts);
  fault::Injector::Global().Arm(fault::Site::kAdmission, {.fail_every = 1});

  AnswerOptions retrying;
  retrying.deadline_ms = 50;
  retrying.retry.max_attempts = 100;
  retrying.retry.initial_backoff_ms = 20;
  retrying.retry.backoff_multiplier = 1.0;
  retrying.retry.max_backoff_ms = 20;
  Stopwatch sw;
  AnswerStats stats;
  auto r = serving.Answer(kPersonQuery, retrying, &stats);
  const double elapsed_ms = sw.ElapsedMillis();
  ASSERT_FALSE(r.ok());
  EXPECT_LT(stats.serve.attempts, 100u);  // deadline cut the loop short
  EXPECT_LT(elapsed_ms, 500.0);           // generous single-core margin
}

TEST_F(ServingEngineTest, NonTransientErrorsAreNeverRetried) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  ServingEngine serving(SnapA(), opts);
  AnswerOptions retrying;
  retrying.retry.max_attempts = 5;
  AnswerStats stats;
  auto r = serving.Answer("q(x) :- NoSuchConcept(x)", retrying, &stats);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(stats.serve.attempts, 1u);  // parse errors are permanent
  EXPECT_EQ(serving.admission().retries, 0u);
}

TEST_F(ServingEngineTest, DegradedAnswerFromServingIsNotCached) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  ServingEngine serving(SnapA(), opts);

  AnswerOptions tight;
  tight.max_rewrite_iterations = 1;
  tight.allow_degraded = true;
  AnswerStats degraded;
  auto partial = serving.Answer(kPersonQuery, tight, &degraded);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  ASSERT_FALSE(degraded.degradation.events.empty());
  EXPECT_FALSE(degraded.cache.stored);
  EXPECT_EQ(serving.cache_metrics().entries, 0u);

  // Swapping after the degraded call must leave the fresh epoch serving
  // complete answers from a full recompile.
  serving.Swap(SnapB());
  AnswerStats full;
  auto complete = serving.Answer(kPersonQuery, AnswerOptions{}, &full);
  ASSERT_TRUE(complete.ok());
  EXPECT_FALSE(full.cache.hit);
  EXPECT_EQ(Sorted(*complete), kAnswersB);
}

TEST_F(ServingEngineTest, MetricsExportedThroughRegistry) {
  obs::MetricsRegistry registry;
  ServingEngineOptions opts;
  opts.engine.metrics = &registry;
  opts.admission.max_in_flight = 4;
  opts.admission.max_queue_depth = 4;
  ServingEngine serving(SnapA(), opts);

  ASSERT_TRUE(serving.Answer(kPersonQuery).ok());
  serving.Swap(SnapB());
  ASSERT_TRUE(serving.Answer(kPersonQuery).ok());

  ASSERT_NE(registry.FindGauge("snapshot.epoch"), nullptr);
  EXPECT_EQ(registry.FindGauge("snapshot.epoch")->Value(), 2.0);
  ASSERT_NE(registry.FindHistogram("snapshot.swap_us"), nullptr);
  EXPECT_EQ(registry.FindHistogram("snapshot.swap_us")->TakeSnapshot().count,
            1u);
  ASSERT_NE(registry.FindCounter("admission.admitted"), nullptr);
  EXPECT_EQ(registry.FindCounter("admission.admitted")->Value(), 2u);
  EXPECT_EQ(registry.FindCounter("admission.shed")->Value(), 0u);
  EXPECT_EQ(registry.FindCounter("admission.queued")->Value(), 0u);
  EXPECT_EQ(registry.FindCounter("admission.retries")->Value(), 0u);

  // The serving instruments ride the standard exports.
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"snapshot.epoch\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"admission.admitted\""), std::string::npos);
  EXPECT_NE(json.find("\"admission.shed\""), std::string::npos);
  EXPECT_NE(json.find("\"admission.queue_wait_us\""), std::string::npos);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("snapshot.epoch"), std::string::npos) << text;
  EXPECT_NE(text.find("admission.retries"), std::string::npos);
}

TEST_F(ServingEngineTest, AnswerSwapChurnStress) {
  // 8 answer threads hammering one ServingEngine while the main thread
  // hot-swaps between two snapshots. Run under TSan in CI. Every answer
  // must be exactly the answer set of the epoch it reports (odd = A,
  // even = B) — never an error, never a blend.
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  opts.admission.max_in_flight = 6;
  opts.admission.max_queue_depth = 16;
  opts.admission.max_queue_wait_ms = 5000;
  auto snap_a = SnapA();
  auto snap_b = SnapB();
  ServingEngine serving(snap_a, opts);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 15; ++i) {
        AnswerStats stats;
        auto r = serving.Answer(kPersonQuery, AnswerOptions{}, &stats);
        if (!r.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const auto& want =
            stats.serve.epoch % 2 == 1 ? kAnswersA : kAnswersB;
        if (Sorted(*r) != want) failures.fetch_add(1);
      }
    });
  }
  for (int s = 0; s < 6; ++s) {
    serving.Swap(s % 2 == 0 ? snap_b : snap_a);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(serving.epoch(), 7u);
  AdmissionSnapshot adm = serving.admission();
  EXPECT_LE(adm.in_flight_peak, 6u);
  EXPECT_EQ(adm.shed, 0u);  // the queue was deep enough for everyone
  // Post-churn: epoch 7 is snapshot A again.
  EXPECT_EQ(Sorted(*serving.Answer(kPersonQuery)), kAnswersA);
}

// ---- delta refresh (RefreshAndSwap) ---------------------------------------

// `Course <= Person` against the university fixture: it changes the
// rewriting of Person (which gains the Course subtree, hence the course
// constant) while leaving Course's own rewriting untouched — the exact
// split the selective plan invalidation must make.
OntologyDelta AddCoursePersonDelta(const CompiledOntology& snap) {
  const auto& vocab = snap.ontology().vocab();
  dllite::ConceptInclusion ax;
  ax.lhs = dllite::BasicConcept::Atomic(vocab.FindConcept("Course").value());
  ax.rhs = dllite::RhsConcept::Positive(
      dllite::BasicConcept::Atomic(vocab.FindConcept("Person").value()));
  OntologyDelta d;
  d.add_concept_inclusions.push_back(ax);
  return d;
}

OntologyDelta RemoveCoursePersonDelta(const CompiledOntology& snap) {
  OntologyDelta d;
  d.remove_concept_inclusions =
      AddCoursePersonDelta(snap).add_concept_inclusions;
  return d;
}

const char* kCourseQuery = "q(x) :- Course(x)";
const std::vector<AnswerTuple> kCourses = {{"db101"}};
const std::vector<AnswerTuple> kAnswersAPlusCourse = {
    {"ada"}, {"alan"}, {"db101"}};

TEST_F(ServingEngineTest, RefreshAndSwapInvalidatesOnlyAffectedPlans) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  ServingEngine serving(SnapA(), opts);
  ASSERT_TRUE(serving.Answer(kPersonQuery).ok());
  ASSERT_TRUE(serving.Answer(kCourseQuery).ok());
  const uint64_t cached = serving.cache_metrics().entries;
  ASSERT_EQ(cached, 2u);

  DeltaSwapStats ds;
  auto e =
      serving.RefreshAndSwap(AddCoursePersonDelta(*serving.snapshot()), &ds);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(*e, 2u);
  EXPECT_EQ(ds.plans_migrated + ds.plans_invalidated, cached);
  EXPECT_EQ(ds.plans_invalidated, 1u);  // Person touches the changed pred
  EXPECT_EQ(ds.plans_migrated, 1u);     // Course does not
  EXPECT_GE(ds.reused_stages, 2u);      // mappings + schema at minimum

  // The migrated Course plan is a cache hit on the new epoch.
  AnswerStats course;
  auto c = serving.Answer(kCourseQuery, AnswerOptions{}, &course);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_TRUE(course.cache.hit);
  EXPECT_EQ(course.serve.epoch, 2u);
  EXPECT_EQ(Sorted(*c), kCourses);

  // The invalidated Person plan recompiles and sees the new subsumption:
  // the course individual is now a Person.
  AnswerStats person;
  auto p = serving.Answer(kPersonQuery, AnswerOptions{}, &person);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_FALSE(person.cache.hit);
  EXPECT_EQ(Sorted(*p), kAnswersAPlusCourse);
}

TEST_F(ServingEngineTest, RefreshAndSwapAppliesMappingRemoval) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  ServingEngine serving(SnapA(), opts);
  ASSERT_EQ(Sorted(*serving.Answer("q(x) :- AssistantProf(x)")),
            (std::vector<AnswerTuple>{{"alan"}}));

  // Select the AssistantProf mapping straight off the served snapshot.
  std::shared_ptr<const CompiledOntology> snap = serving.snapshot();
  const uint32_t assistant =
      snap->ontology().vocab().FindConcept("AssistantProf").value();
  OntologyDelta d;
  for (const auto& m : snap->mappings().assertions()) {
    if (m.kind == mapping::TargetKind::kConcept && m.predicate == assistant) {
      d.remove_mappings.push_back(SelectorFor(m));
    }
  }
  ASSERT_EQ(d.remove_mappings.size(), 1u);

  DeltaSwapStats ds;
  auto e = serving.RefreshAndSwap(d, &ds);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(serving.epoch(), 2u);
  // The mapping is gone: no assistant answers any more, while Person still
  // finds both professors through the untouched Professor mapping.
  EXPECT_TRUE(serving.Answer("q(x) :- AssistantProf(x)")->empty());
  EXPECT_EQ(Sorted(*serving.Answer(kPersonQuery)), kAnswersA);
}

// Plan-shaping options are fixed per engine, so a serving layer built
// with constraint pruning off keys its plans exactly like the default one:
// a mapping-only delta must migrate the untouched plans (which stay cache
// hits on the new epoch) and every query must answer as a scratch compile
// of the edited specification does.
TEST_F(ServingEngineTest, RefreshAndSwapMigratesPlansWithPruningOff) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  opts.engine.disable_constraint_pruning = true;
  ServingEngine serving(SnapA(), opts);
  const std::vector<const char*> queries = {
      kPersonQuery, "q(x) :- AssistantProf(x)", kCourseQuery,
      "q(x, y) :- teaches(x, y)", "q(x, s) :- salary(x, s)"};
  for (const char* q : queries) ASSERT_TRUE(serving.Answer(q).ok()) << q;

  std::shared_ptr<const CompiledOntology> snap = serving.snapshot();
  const uint32_t assistant =
      snap->ontology().vocab().FindConcept("AssistantProf").value();
  OntologyDelta d;
  for (const auto& m : snap->mappings().assertions()) {
    if (m.kind == mapping::TargetKind::kConcept && m.predicate == assistant) {
      d.remove_mappings.push_back(SelectorFor(m));
    }
  }
  ASSERT_EQ(d.remove_mappings.size(), 1u);

  const uint64_t cached = serving.cache_metrics().entries;
  DeltaSwapStats ds;
  auto e = serving.RefreshAndSwap(d, &ds);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(ds.plans_migrated + ds.plans_invalidated, cached);
  EXPECT_GT(ds.plans_migrated, 0u);

  // A migrated plan is found under the new epoch's key and hash.
  AnswerStats course;
  ASSERT_TRUE(serving.Answer(kCourseQuery, AnswerOptions{}, &course).ok());
  EXPECT_TRUE(course.cache.hit);
  EXPECT_EQ(course.serve.epoch, *e);

  auto edited = ApplyMappingDelta(snap->mappings(), d);
  ASSERT_TRUE(edited.ok()) << edited.status().ToString();
  auto scratch = CompiledOntology::Compile(snap->ontology(), *edited,
                                           snap->database());
  ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  const QueryEngine reference(*scratch, opts.engine);
  for (const char* q : queries) {
    auto want = reference.Answer(q);
    auto got = serving.Answer(q);
    ASSERT_TRUE(want.ok() && got.ok()) << q;
    EXPECT_EQ(Sorted(*got), Sorted(*want)) << q;
  }
}

TEST_F(ServingEngineTest, RefreshAndSwapDetectsInterleavedSwap) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  ServingEngine serving(SnapA(), opts);

  // Slow the refresh (fault site kSnapshotBuild) so a plain Swap can land
  // while it runs; the delta swap must then refuse to publish — its base
  // is no longer the current snapshot. Snapshot B is compiled before
  // arming so only the refresh pays the injected latency.
  auto snap_b = SnapB();
  fault::Injector::Global().Arm(fault::Site::kSnapshotBuild,
                                {.latency_every = 1, .latency_ms = 150});
  Result<uint64_t> r = uint64_t{0};
  DeltaSwapStats ds;
  std::thread worker([&] {
    r = serving.RefreshAndSwap(AddCoursePersonDelta(*serving.snapshot()),
                               &ds);
  });
  ASSERT_TRUE(WaitFor([] {
    return fault::Injector::Global().hits(fault::Site::kSnapshotBuild) >= 1;
  }));
  EXPECT_EQ(serving.Swap(snap_b), 2u);
  worker.join();
  fault::Injector::Global().DisarmAll();

  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  // The interleaving swap's epoch serves untouched.
  EXPECT_EQ(serving.epoch(), 2u);
  EXPECT_EQ(Sorted(*serving.Answer(kPersonQuery)), kAnswersB);
}

TEST_F(ServingEngineTest, RefreshSwapChurnStress) {
  // Like AnswerSwapChurnStress, but the churn is delta refreshes: the main
  // thread alternately adds and removes `Course <= Person` through
  // RefreshAndSwap while 6 reader threads hammer Person. Run under TSan in
  // CI. Every answer must be exactly the answer set of the specification
  // at the epoch it reports (even epochs carry the axiom) — never an
  // error, never a blend — and plans migrated across the delta swaps must
  // stay correct.
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  ServingEngine serving(SnapA(), opts);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 15; ++i) {
        AnswerStats stats;
        auto r = serving.Answer(kPersonQuery, AnswerOptions{}, &stats);
        if (!r.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const auto& want = stats.serve.epoch % 2 == 0 ? kAnswersAPlusCourse
                                                      : kAnswersA;
        if (Sorted(*r) != want) failures.fetch_add(1);
      }
    });
  }
  for (int s = 0; s < 6; ++s) {
    std::shared_ptr<const CompiledOntology> snap = serving.snapshot();
    OntologyDelta d = s % 2 == 0 ? AddCoursePersonDelta(*snap)
                                 : RemoveCoursePersonDelta(*snap);
    auto e = serving.RefreshAndSwap(d);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(serving.epoch(), 7u);  // six delta swaps; axiom removed last
  EXPECT_EQ(Sorted(*serving.Answer(kPersonQuery)), kAnswersA);
}

// cache_metrics() spans every epoch: no counter goes down across any mix
// of swaps, and a retired epoch's entries count as evictions, so
// insertions == entries + evictions after each swap, and a delta swap
// accounts for every base entry as migrated or invalidated.
TEST_F(ServingEngineTest, CacheMetricsStayCumulativeAcrossSwaps) {
  ServingEngineOptions opts;
  opts.engine.enable_metrics = false;
  ServingEngine serving(SnapA(), opts);
  LruCacheMetrics last;
  auto check = [&](const char* step) {
    const LruCacheMetrics m = serving.cache_metrics();
    EXPECT_GE(m.hits, last.hits) << step;
    EXPECT_GE(m.misses, last.misses) << step;
    EXPECT_GE(m.insertions, last.insertions) << step;
    EXPECT_GE(m.evictions, last.evictions) << step;
    EXPECT_EQ(m.insertions, m.entries + m.evictions) << step;
    last = m;
  };
  auto serve = [&](const char* step) {
    for (const char* q : {kPersonQuery, kCourseQuery, kPersonQuery}) {
      ASSERT_TRUE(serving.Answer(q).ok()) << step << ": " << q;
    }
    check(step);
  };

  serve("epoch 1");
  EXPECT_EQ(last.hits, 1u);
  EXPECT_EQ(last.entries, 2u);
  serving.Swap(SnapA());
  check("swap");
  EXPECT_EQ(last.entries, 0u);
  EXPECT_EQ(last.evictions, 2u);

  serve("epoch 2");
  const uint64_t cached = serving.cache_metrics().entries;
  DeltaSwapStats ds;
  ASSERT_TRUE(
      serving.RefreshAndSwap(AddCoursePersonDelta(*serving.snapshot()), &ds)
          .ok());
  EXPECT_EQ(ds.plans_migrated + ds.plans_invalidated, cached);
  check("delta swap");
  EXPECT_EQ(last.entries, ds.plans_migrated);

  serve("epoch 3");
  Fixture next(/*extra_prof=*/true);
  ASSERT_TRUE(serving
                  .CompileAndSwap(std::move(next.onto),
                                  std::move(next.mappings),
                                  std::move(next.db))
                  .ok());
  check("compile and swap");
  EXPECT_EQ(last.entries, 0u);
  serve("epoch 4");
}

// A mapping-only delta shares the base's whole ontology, a TBox-only
// delta its mapping program: neither is copied.
TEST(CompiledOntologyRefresh, SharesTheUntouchedOntologyAndMappings) {
  std::shared_ptr<const CompiledOntology> base = SnapA();
  OntologyDelta mapping_only;
  mapping_only.remove_mappings.push_back(
      SelectorFor(base->mappings().assertions()[1]));
  auto after_mappings = CompiledOntology::Refresh(base, mapping_only);
  ASSERT_TRUE(after_mappings.ok()) << after_mappings.status().ToString();
  EXPECT_EQ(&(*after_mappings)->ontology(), &base->ontology());
  EXPECT_NE(&(*after_mappings)->mappings(), &base->mappings());

  auto after_tbox =
      CompiledOntology::Refresh(base, AddCoursePersonDelta(*base));
  ASSERT_TRUE(after_tbox.ok()) << after_tbox.status().ToString();
  EXPECT_EQ(&(*after_tbox)->mappings(), &base->mappings());
  EXPECT_NE(&(*after_tbox)->ontology(), &base->ontology());
}

// Refresh validates only the assertions a delta appends, yet fails exactly
// like a scratch Compile of the edited specification, which validates
// them all: the error names the assertion by its position in the new set.
TEST(CompiledOntologyRefresh, InvalidAddedAssertionFailsLikeCompile) {
  std::shared_ptr<const CompiledOntology> base = SnapA();
  OntologyDelta d;
  // Removing assertion #1 shifts the addition to position #3.
  d.remove_mappings.push_back(SelectorFor(base->mappings().assertions()[1]));
  SelectBlock bad;
  bad.from_tables = {"prof"};
  bad.select = {{0, "missing"}};
  d.add_mappings.push_back(MappingAssertion::ForConcept(
      base->ontology().vocab().FindConcept("Person").value(), bad));

  auto refreshed = CompiledOntology::Refresh(base, d);
  ASSERT_FALSE(refreshed.ok());
  auto edited = ApplyMappingDelta(base->mappings(), d);
  ASSERT_TRUE(edited.ok()) << edited.status().ToString();
  auto scratch = CompiledOntology::Compile(base->ontology(), *edited,
                                           base->database());
  ASSERT_FALSE(scratch.ok());
  EXPECT_EQ(refreshed.status().code(), scratch.status().code());
  EXPECT_EQ(refreshed.status().message(), scratch.status().message());
  EXPECT_NE(refreshed.status().message().find("mapping #3"),
            std::string::npos)
      << refreshed.status().ToString();
}

TEST_F(ServingEngineTest, DeltaInstrumentsExportedThroughRegistry) {
  obs::MetricsRegistry registry;
  ServingEngineOptions opts;
  opts.engine.metrics = &registry;
  ServingEngine serving(SnapA(), opts);
  ASSERT_TRUE(serving.Answer(kPersonQuery).ok());  // plans to drop/migrate
  ASSERT_TRUE(serving.Answer(kCourseQuery).ok());

  DeltaSwapStats ds;
  ASSERT_TRUE(
      serving.RefreshAndSwap(AddCoursePersonDelta(*serving.snapshot()), &ds)
          .ok());

  ASSERT_NE(registry.FindCounter("snapshot.delta_applied"), nullptr);
  EXPECT_EQ(registry.FindCounter("snapshot.delta_applied")->Value(), 1u);
  ASSERT_NE(registry.FindCounter("snapshot.delta_fallback_scratch"),
            nullptr);
  EXPECT_EQ(registry.FindCounter("snapshot.delta_fallback_scratch")->Value(),
            ds.fell_back_scratch ? 1u : 0u);
  ASSERT_NE(registry.FindCounter("snapshot.delta_reused_stages"), nullptr);
  EXPECT_EQ(registry.FindCounter("snapshot.delta_reused_stages")->Value(),
            ds.reused_stages);
  ASSERT_NE(registry.FindCounter("snapshot.delta_plans_invalidated"),
            nullptr);
  EXPECT_EQ(
      registry.FindCounter("snapshot.delta_plans_invalidated")->Value(),
      ds.plans_invalidated);
  ASSERT_NE(registry.FindCounter("snapshot.delta_plans_migrated"), nullptr);
  EXPECT_EQ(registry.FindCounter("snapshot.delta_plans_migrated")->Value(),
            ds.plans_migrated);
  ASSERT_NE(registry.FindCounter("snapshot.delta_patched_nodes"), nullptr);
  ASSERT_NE(registry.FindHistogram("snapshot.refresh_us"), nullptr);
  EXPECT_EQ(
      registry.FindHistogram("snapshot.refresh_us")->TakeSnapshot().count,
      1u);

  // The delta instruments ride the standard exports.
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"snapshot.delta_applied\""), std::string::npos);
  EXPECT_NE(json.find("\"snapshot.refresh_us\""), std::string::npos);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("snapshot.delta_plans_migrated"), std::string::npos);
  EXPECT_NE(text.find("snapshot.delta_fallback_scratch"), std::string::npos);
}

}  // namespace
}  // namespace olite::obda
