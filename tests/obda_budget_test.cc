// End-to-end tests for execution budgets, cooperative cancellation, the
// graceful-degradation ladder, and deterministic fault injection.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/exec_budget.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "mapping/mapping.h"
#include "obda/serving_engine.h"
#include "obda/compiled_ontology.h"
#include "obda/query_engine.h"

namespace olite::obda {
namespace {

using dllite::Ontology;
using mapping::MappingAssertion;
using mapping::MappingSet;
using rdb::Database;
using rdb::SelectBlock;
using rdb::Value;
using rdb::ValueType;

// University OBDA instance (same shape as obda_test.cc): a small concept
// hierarchy whose queries exercise every pipeline stage.
struct Fixture {
  Ontology onto;
  Database db;
  MappingSet mappings;

  Fixture() {
    auto r = dllite::ParseOntology(R"(
concept Professor AssistantProf Person Course
role teaches
AssistantProf <= Professor
Professor <= Person
Professor <= exists teaches
exists teaches- <= Course
)");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    onto = std::move(r).value();

    EXPECT_TRUE(db.CreateTable({"prof",
                                {{"id", ValueType::kString},
                                 {"rank", ValueType::kString}}})
                    .ok());
    EXPECT_TRUE(db.CreateTable({"teaching",
                                {{"prof_id", ValueType::kString},
                                 {"course", ValueType::kString}}})
                    .ok());
    EXPECT_TRUE(
        db.Insert("prof", {Value::Str("ada"), Value::Str("full")}).ok());
    EXPECT_TRUE(
        db.Insert("prof", {Value::Str("alan"), Value::Str("assistant")}).ok());
    EXPECT_TRUE(
        db.Insert("teaching", {Value::Str("ada"), Value::Str("db101")}).ok());

    auto cid = [&](const char* n) {
      return onto.vocab().FindConcept(n).value();
    };
    SelectBlock all_profs;
    all_profs.from_tables = {"prof"};
    all_profs.select = {{0, "id"}};
    EXPECT_TRUE(
        mappings.Add(MappingAssertion::ForConcept(cid("Professor"), all_profs))
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
  }

  std::unique_ptr<QueryEngine> Make(
      query::RewriteMode mode = query::RewriteMode::kPerfectRef,
      QueryEngineOptions engine_options = {}) {
    auto c = CompiledOntology::Compile(std::move(onto), std::move(mappings),
                                       std::move(db), mode);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::make_unique<QueryEngine>(std::move(c).value(),
                                         engine_options);
  }
};

// A rewriting-heavy instance: `width` concepts below A make the
// three-atom query expand to width^3-ish disjuncts, enough work for the
// deadline and cancellation paths to fire mid-flight.
struct HeavyFixture {
  Ontology onto;
  Database db;
  MappingSet mappings;

  explicit HeavyFixture(int width = 40) {
    std::string text = "concept A";
    for (int i = 0; i < width; ++i) text += " B" + std::to_string(i);
    text += "\n";
    for (int i = 0; i < width; ++i) {
      text += "B" + std::to_string(i) + " <= A\n";
    }
    auto r = dllite::ParseOntology(text);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    onto = std::move(r).value();

    EXPECT_TRUE(db.CreateTable({"t", {{"id", ValueType::kString}}}).ok());
    EXPECT_TRUE(db.Insert("t", {Value::Str("a1")}).ok());
    SelectBlock block;
    block.from_tables = {"t"};
    block.select = {{0, "id"}};
    EXPECT_TRUE(mappings
                    .Add(MappingAssertion::ForConcept(
                        onto.vocab().FindConcept("A").value(), block))
                    .ok());
  }

  std::unique_ptr<QueryEngine> Make() {
    auto c = CompiledOntology::Compile(std::move(onto), std::move(mappings),
                                       std::move(db));
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::make_unique<QueryEngine>(std::move(c).value());
  }
};

std::set<AnswerTuple> AsSet(const std::vector<AnswerTuple>& v) {
  return std::set<AnswerTuple>(v.begin(), v.end());
}

bool IsSubset(const std::vector<AnswerTuple>& small,
              const std::vector<AnswerTuple>& big) {
  std::set<AnswerTuple> big_set = AsSet(big);
  for (const auto& t : small) {
    if (big_set.count(t) == 0) return false;
  }
  return true;
}

class BudgetLadderTest : public ::testing::TestWithParam<query::RewriteMode> {
};

// (a) A generous budget changes nothing: identical answers, no
// degradation, for both rewriting strategies.
TEST_P(BudgetLadderTest, GenerousBudgetMatchesUnbudgeted) {
  Fixture fx;
  auto sys = fx.Make(GetParam());
  auto plain = sys->Answer("q(x) :- Person(x)");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  AnswerOptions opts;
  opts.deadline_ms = 60'000;
  opts.max_rewrite_iterations = 1'000'000;
  opts.max_containment_checks = 10'000'000;
  opts.max_sql_blocks = 1'000'000;
  opts.max_rows = 1'000'000;
  AnswerStats stats;
  auto budgeted = sys->Answer("q(x) :- Person(x)", opts, &stats);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  EXPECT_EQ(AsSet(*plain), AsSet(*budgeted));
  EXPECT_FALSE(stats.degradation.degraded()) << stats.degradation.ToString();
  EXPECT_EQ(plain->size(), 2u);  // ada + alan, via the subclass chain
}

// (b) A tight budget with allow_degraded yields a *sound* subset plus a
// non-empty degradation report.
TEST_P(BudgetLadderTest, TightIterationBudgetDegradesSoundly) {
  Fixture full_fx;
  auto full_sys = full_fx.Make(GetParam());
  auto full = full_sys->Answer("q(x) :- Person(x)");
  ASSERT_TRUE(full.ok());

  Fixture fx;
  auto sys = fx.Make(GetParam());
  AnswerOptions opts;
  opts.max_rewrite_iterations = 1;
  opts.allow_degraded = true;
  AnswerStats stats;
  auto degraded = sys->Answer("q(x) :- Person(x)", opts, &stats);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(IsSubset(*degraded, *full));
  EXPECT_TRUE(stats.degradation.degraded());
  EXPECT_FALSE(stats.rewrite.expansion_complete);
}

TEST_P(BudgetLadderTest, SqlBlockCapDegradesSoundly) {
  Fixture full_fx;
  auto full_sys = full_fx.Make(GetParam());
  auto full = full_sys->Answer("q(x) :- Person(x)");
  ASSERT_TRUE(full.ok());

  // This test exercises block-cap truncation; constraint pruning would
  // collapse the union below the cap and the truncation would never fire.
  QueryEngineOptions unpruned;
  unpruned.disable_constraint_pruning = true;
  Fixture fx;
  auto sys = fx.Make(GetParam(), unpruned);
  AnswerOptions opts;
  opts.max_sql_blocks = 1;
  opts.allow_degraded = true;
  AnswerStats stats;
  auto degraded = sys->Answer("q(x) :- Person(x)", opts, &stats);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(IsSubset(*degraded, *full));
  EXPECT_LE(stats.sql_blocks, 1u);
  EXPECT_TRUE(stats.degradation.degraded());
}

TEST_P(BudgetLadderTest, RowCapDegradesSoundly) {
  Fixture full_fx;
  auto full_sys = full_fx.Make(GetParam());
  auto full = full_sys->Answer("q(x) :- Professor(x)");
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), 2u);

  Fixture fx;
  auto sys = fx.Make(GetParam());
  AnswerOptions opts;
  opts.max_rows = 1;
  opts.allow_degraded = true;
  AnswerStats stats;
  auto degraded = sys->Answer("q(x) :- Professor(x)", opts, &stats);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_LE(degraded->size(), 1u);
  EXPECT_TRUE(IsSubset(*degraded, *full));
  EXPECT_TRUE(stats.degradation.degraded());
}

// (c) The same tight budget *without* allow_degraded refuses with
// kResourceExhausted instead of silently under-answering.
TEST_P(BudgetLadderTest, TightBudgetWithoutDegradationFails) {
  Fixture fx;
  auto sys = fx.Make(GetParam());
  AnswerOptions opts;
  opts.max_rewrite_iterations = 1;
  AnswerStats stats;
  auto res = sys->Answer("q(x) :- Person(x)", opts, &stats);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
      << res.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(Modes, BudgetLadderTest,
                         ::testing::Values(query::RewriteMode::kPerfectRef,
                                           query::RewriteMode::kClassified),
                         [](const auto& param_info) {
                           return std::string(
                               RewriteModeName(param_info.param));
                         });

// The deadline is honoured promptly: a heavyweight rewriting that cannot
// finish inside the budget returns kResourceExhausted well within 2x the
// requested deadline (the iteration cap is a second tripwire so the test
// cannot hang even on an absurdly fast machine).
TEST(BudgetDeadlineTest, ExhaustsWithinTwiceRequestedDeadline) {
  HeavyFixture fx(40);
  auto sys = fx.Make();
  constexpr double kDeadlineMs = 50;
  AnswerOptions opts;
  opts.deadline_ms = kDeadlineMs;
  opts.max_rewrite_iterations = 20'000;
  auto start = std::chrono::steady_clock::now();
  auto res = sys->Answer("q(x, y, z) :- A(x), A(y), A(z)", opts);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
      << res.status().ToString();
  EXPECT_LT(elapsed_ms, 2 * kDeadlineMs) << res.status().ToString();
}

// Under allow_degraded the same starved call degrades into a sound
// partial answer with a populated degradation trail.
TEST(BudgetDeadlineTest, StarvedCallDegradesWithTrail) {
  HeavyFixture fx(40);
  auto sys = fx.Make();
  AnswerOptions opts;
  opts.max_rewrite_iterations = 100;
  opts.allow_degraded = true;
  AnswerStats stats;
  auto res = sys->Answer("q(x, y, z) :- A(x), A(y), A(z)", opts, &stats);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(stats.degradation.degraded());
  // The only individual is a1; every (partial) disjunct can only find it.
  for (const auto& tuple : *res) {
    for (const auto& v : tuple) EXPECT_EQ(v, "a1");
  }
}

TEST(BudgetCancellationTest, PreCancelledBudgetFailsImmediately) {
  Fixture fx;
  auto sys = fx.Make();
  ExecBudget budget;
  budget.Cancel();
  AnswerOptions opts;
  opts.budget = &budget;
  auto res = sys->Answer("q(x) :- Person(x)", opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(res.status().ToString().find("cancel"), std::string::npos)
      << res.status().ToString();
}

TEST(BudgetCancellationTest, ConcurrentCancelUnblocksHeavyQuery) {
  HeavyFixture fx(40);
  auto sys = fx.Make();
  ExecBudget budget;
  AnswerOptions opts;
  opts.budget = &budget;
  std::thread canceller([&budget] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    budget.Cancel();
  });
  auto res = sys->Answer("q(x, y, z) :- A(x), A(y), A(z)", opts);
  canceller.join();
  // Either the query was genuinely interrupted, or (on a very fast
  // machine) it finished first; both are correct — what matters is that
  // the call returned and an interrupt surfaces as kResourceExhausted.
  if (!res.ok()) {
    EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
        << res.status().ToString();
  }
}

// --- deterministic fault injection --------------------------------------

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Injector::Global().DisarmAll(); }
};

TEST_F(FaultInjectionTest, RdbFaultSurfacesThroughAnswer) {
  Fixture fx;
  auto sys = fx.Make();
  fault::FaultPlan plan;
  plan.fail_every = 1;  // every block evaluation fails
  fault::Injector::Global().Arm(fault::Site::kRdbExecute, plan);
  auto res = sys->Answer("q(x) :- Professor(x)");
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInternal)
      << res.status().ToString();
  EXPECT_GE(fault::Injector::Global().failures(fault::Site::kRdbExecute), 1u);
}

TEST_F(FaultInjectionTest, RdbFaultIsNotMaskedByDegradedMode) {
  Fixture fx;
  auto sys = fx.Make();
  fault::FaultPlan plan;
  plan.fail_every = 1;
  fault::Injector::Global().Arm(fault::Site::kRdbExecute, plan);
  AnswerOptions opts;
  opts.allow_degraded = true;
  opts.deadline_ms = 60'000;
  auto res = sys->Answer("q(x) :- Professor(x)", opts);
  // Degradation trades completeness for resources; it must never swallow
  // a real evaluation failure.
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInternal);
}

TEST_F(FaultInjectionTest, UnfoldFaultSurfacesThroughAnswer) {
  Fixture fx;
  auto sys = fx.Make();
  fault::FaultPlan plan;
  plan.fail_every = 1;
  fault::Injector::Global().Arm(fault::Site::kUnfold, plan);
  auto res = sys->Answer("q(x) :- Professor(x)");
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInternal);
}

TEST_F(FaultInjectionTest, EveryNthPlanIsDeterministic) {
  Fixture fx;
  auto sys = fx.Make();
  fault::FaultPlan plan;
  plan.fail_every = 10'000;  // far beyond the hits this query generates
  fault::Injector::Global().Arm(fault::Site::kRdbExecute, plan);
  auto res = sys->Answer("q(x) :- Professor(x)");
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  uint64_t hits1 = fault::Injector::Global().hits(fault::Site::kRdbExecute);
  EXPECT_GE(hits1, 1u);
  // Re-arming resets the counter; an identical run observes identical hits.
  // The second system is built *before* re-arming: constraint inference at
  // compile time also evaluates mappings through kRdbExecute, and those
  // hits are not part of the per-query count under test.
  Fixture fx2;
  auto sys2 = fx2.Make();
  fault::Injector::Global().Arm(fault::Site::kRdbExecute, plan);
  EXPECT_TRUE(sys2->Answer("q(x) :- Professor(x)").ok());
  EXPECT_EQ(fault::Injector::Global().hits(fault::Site::kRdbExecute), hits1);
}

// --- cancellable ParallelFor ---------------------------------------------

TEST_F(FaultInjectionTest, ParallelForCancellableAllOk) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  Status s = pool.ParallelForCancellable(0, 1000, 16, nullptr, [&](size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(sum.load(), 1000u * 999u / 2);
}

TEST_F(FaultInjectionTest, ParallelForCancellableFirstErrorWinsSerial) {
  ThreadPool pool(1);  // serial: deterministic first-error index
  std::atomic<uint64_t> executed{0};
  Status s = pool.ParallelForCancellable(0, 1000, 16, nullptr, [&](size_t i) {
    executed.fetch_add(1, std::memory_order_relaxed);
    if (i >= 37) return Status::Internal("boom at " + std::to_string(i));
    return Status::Ok();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.ToString(), Status::Internal("boom at 37").ToString());
  EXPECT_LT(executed.load(), 1000u);
}

TEST_F(FaultInjectionTest, ParallelForCancellableStopsOnError) {
  ThreadPool pool(4);
  std::atomic<uint64_t> executed{0};
  Status s = pool.ParallelForCancellable(0, 100'000, 64, nullptr,
                                         [&](size_t i) {
    executed.fetch_add(1, std::memory_order_relaxed);
    if (i == 1000) return Status::Internal("boom");
    return Status::Ok();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  // Cancellation propagated: the vast majority of indices were skipped.
  EXPECT_LT(executed.load(), 100'000u);
}

TEST_F(FaultInjectionTest, ParallelForCancellableBudgetCancelMidLoop) {
  ThreadPool pool(4);
  ExecBudget budget;
  std::atomic<uint64_t> executed{0};
  Status s =
      pool.ParallelForCancellable(0, 100'000, 64, &budget, [&](size_t i) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (i == 500) budget.Cancel();
        return Status::Ok();
      });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_LT(executed.load(), 100'000u);
}

TEST_F(FaultInjectionTest, ParallelForCancellableInjectedPoolFault) {
  ThreadPool pool(4);
  fault::FaultPlan plan;
  plan.fail_every = 100;
  fault::Injector::Global().Arm(fault::Site::kPoolTask, plan);
  std::atomic<uint64_t> executed{0};
  Status s = pool.ParallelForCancellable(0, 10'000, 32, nullptr,
                                         [&](size_t /*i*/) {
    executed.fetch_add(1, std::memory_order_relaxed);
    return Status::Ok();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
  EXPECT_GE(fault::Injector::Global().failures(fault::Site::kPoolTask), 1u);
  EXPECT_LT(executed.load(), 10'000u);
}

TEST_F(FaultInjectionTest, SeededPlanIsReproducible) {
  fault::FaultPlan plan;
  plan.fail_every = 512;  // ~50% of hits, seeded draw
  plan.seed = 12345;
  auto run = [&] {
    fault::Injector::Global().Arm(fault::Site::kPoolTask, plan);
    std::vector<bool> failed;
    for (int i = 0; i < 200; ++i) {
      failed.push_back(!fault::InjectAt(fault::Site::kPoolTask).ok());
    }
    return failed;
  };
  std::vector<bool> first = run();
  std::vector<bool> second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST_F(FaultInjectionTest, SnapshotBuildFaultSurfacesThroughCompile) {
  Fixture fx;
  fault::FaultPlan plan;
  plan.fail_every = 1;
  fault::Injector::Global().Arm(fault::Site::kSnapshotBuild, plan);
  auto compiled = CompiledOntology::Compile(
      std::move(fx.onto), std::move(fx.mappings), std::move(fx.db));
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInternal);
  EXPECT_GE(
      fault::Injector::Global().failures(fault::Site::kSnapshotBuild), 1u);
}

TEST_F(FaultInjectionTest, AdmissionFaultSurfacesThroughServing) {
  Fixture fx;
  auto compiled = CompiledOntology::Compile(
      std::move(fx.onto), std::move(fx.mappings), std::move(fx.db));
  ASSERT_TRUE(compiled.ok());
  ServingEngineOptions sopts;
  sopts.engine.enable_metrics = false;
  ServingEngine serving(*compiled, sopts);

  fault::FaultPlan plan;
  plan.fail_every = 1;
  fault::Injector::Global().Arm(fault::Site::kAdmission, plan);
  auto res = serving.Answer("q(x) :- Professor(x)");
  ASSERT_FALSE(res.ok());
  // Injected admission rejections follow the shed contract:
  // kResourceExhausted with a retry-after hint, never the raw kInternal.
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(res.status().ToString().find("retry after"), std::string::npos)
      << res.status().ToString();
  EXPECT_EQ(serving.admission().shed, 1u);  // injected rejection = shed
  EXPECT_GE(fault::Injector::Global().failures(fault::Site::kAdmission), 1u);
}

TEST_F(FaultInjectionTest, RandomFaultsAcrossAllSitesNeverCrash) {
  // Seeded probabilistic faults armed at *every* site at once, hammered
  // through the full serving stack — answers with retry, hot swaps with
  // failing builds. Any injected error is acceptable; what is not is a
  // crash, a hang, or an error with a non-injected code. With the
  // injector disarmed the engine must serve exact answers again.
  const std::set<std::string> expected = {"ada", "alan"};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Fixture fx;
    auto compiled = CompiledOntology::Compile(
        std::move(fx.onto), std::move(fx.mappings), std::move(fx.db));
    ASSERT_TRUE(compiled.ok());
    ServingEngineOptions sopts;
    sopts.engine.enable_metrics = false;
    sopts.admission.max_in_flight = 2;
    sopts.admission.max_queue_depth = 2;
    ServingEngine serving(*compiled, sopts);

    fault::FaultPlan plan;
    plan.fail_every = 256;  // ~25% of hits, seeded draws
    plan.seed = seed;
    for (int s = 0; s < 5; ++s) {
      fault::Injector::Global().Arm(static_cast<fault::Site>(s), plan);
    }
    for (int i = 0; i < 20; ++i) {
      if (i % 5 == 4) {
        // Hot swap under fire: a failed build must leave serving intact.
        Fixture next;
        auto swapped = serving.CompileAndSwap(std::move(next.onto),
                                              std::move(next.mappings),
                                              std::move(next.db));
        if (!swapped.ok()) {
          EXPECT_EQ(swapped.status().code(), StatusCode::kInternal)
              << swapped.status().ToString();
        }
      }
      AnswerOptions opts;
      opts.retry.max_attempts = 2;
      opts.retry.initial_backoff_ms = 0.1;
      auto res = serving.Answer("q(x) :- Professor(x)", opts);
      if (res.ok()) {
        std::set<std::string> got;
        for (const auto& row : *res) got.insert(row[0]);
        EXPECT_EQ(got, expected);
      } else {
        const StatusCode code = res.status().code();
        EXPECT_TRUE(code == StatusCode::kInternal ||
                    code == StatusCode::kResourceExhausted)
            << res.status().ToString();
      }
    }
    fault::Injector::Global().DisarmAll();
    auto clean = serving.Answer("q(x) :- Professor(x)");
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    std::set<std::string> got;
    for (const auto& row : *clean) got.insert(row[0]);
    EXPECT_EQ(got, expected);
  }
}

}  // namespace
}  // namespace olite::obda
