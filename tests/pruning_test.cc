// Metamorphic tests for constraint-aware pruning (obda/constraints.h plus
// the rewriter/unfolder hooks): redundant mapping assertions never change
// answers, answers are invariant under any constraint-check budget,
// disabling pruning is answer-neutral on every checked-in corpus case,
// and concurrent answering through a pruned and an unpruned engine over
// one snapshot stays exact (the TSan target).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/workload.h"
#include "obda/compiled_ontology.h"
#include "obda/query_engine.h"
#include "testkit/corpus.h"
#include "testkit/differential.h"

#ifndef OLITE_CORPUS_DIR
#define OLITE_CORPUS_DIR "tests/corpus"
#endif

namespace olite::obda {
namespace {

using benchgen::Workload;
using benchgen::WorkloadConfig;

/// Constraint-rich generated workloads: redundant duplicate mappings and
/// source-materialised inclusions give the pruning oracle real work.
WorkloadConfig RichConfig(uint64_t seed) {
  WorkloadConfig cfg;
  cfg.ontology.name = "pruning";
  cfg.ontology.seed = 2 * seed + 1;
  cfg.ontology.num_concepts = 12;
  cfg.ontology.num_roles = 3;
  cfg.ontology.role_hierarchy_fraction = 0.5;
  cfg.seed = seed + 100;
  cfg.num_individuals = 12;
  cfg.num_concept_assertions = 24;
  cfg.num_role_assertions = 16;
  cfg.num_queries = 4;
  cfg.redundant_mapping_fraction = 0.6;
  cfg.source_inclusion_fraction = 0.6;
  return cfg;
}

using TupleSet = std::set<AnswerTuple>;

std::shared_ptr<const CompiledOntology> Compile(
    const Workload& w, const mapping::MappingSet& mappings) {
  auto c = CompiledOntology::Compile(w.ontology, mappings, w.database,
                                     query::RewriteMode::kClassified);
  EXPECT_TRUE(c.ok()) << c.status().ToString();
  return c.ok() ? *c : nullptr;
}

/// An engine with no plan cache (every call compiles cold), pruning on or
/// off.
QueryEngine ColdEngine(std::shared_ptr<const CompiledOntology> snapshot,
                       bool disable_pruning = false) {
  QueryEngineOptions opts;
  opts.plan_cache_capacity = 0;
  opts.disable_constraint_pruning = disable_pruning;
  return QueryEngine(std::move(snapshot), opts);
}

TupleSet AnswerSet(const QueryEngine& engine,
                   const query::ConjunctiveQuery& cq,
                   const AnswerOptions& opts = {},
                   AnswerStats* stats = nullptr) {
  auto rows = engine.Answer(cq, opts, stats);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (!rows.ok()) return {};
  return TupleSet(rows->begin(), rows->end());
}

// Adding a redundant copy of every mapping assertion retrieves no new
// facts, so answers must be identical — with pruning enabled (which
// should drop the duplicates as dominated views) and disabled alike.
TEST(PruningMetamorphic, RedundantMappingAssertionNeverChangesAnswers) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Workload w = benchgen::GenerateWorkload(RichConfig(seed));
    auto base = Compile(w, w.mappings);
    ASSERT_NE(base, nullptr);

    mapping::MappingSet doubled = w.mappings;
    for (const auto& assertion : w.mappings.assertions()) {
      ASSERT_TRUE(doubled.Add(assertion).ok());
    }
    auto redundant = Compile(w, doubled);
    ASSERT_NE(redundant, nullptr);

    for (bool disable : {false, true}) {
      const QueryEngine on_base = ColdEngine(base, disable);
      const QueryEngine on_redundant = ColdEngine(redundant, disable);
      for (const auto& cq : w.queries) {
        EXPECT_EQ(AnswerSet(on_base, cq), AnswerSet(on_redundant, cq))
            << "seed " << seed << ": " << cq.ToString(w.ontology.vocab())
            << (disable ? " (pruning off)" : " (pruning on)");
      }
    }
  }
}

// Answers are invariant under any cap on oracle consultations: a
// truncated pruning sweep keeps candidates it could not examine, so the
// compiled union only grows — never loses — disjuncts.
TEST(PruningMetamorphic, AnswersInvariantUnderConstraintCheckBudget) {
  Workload w = benchgen::GenerateWorkload(RichConfig(3));
  auto snapshot = Compile(w, w.mappings);
  ASSERT_NE(snapshot, nullptr);
  const QueryEngine engine = ColdEngine(snapshot);

  for (const auto& cq : w.queries) {
    AnswerStats full_stats;
    TupleSet want = AnswerSet(engine, cq, {}, &full_stats);

    uint64_t prev_disjuncts = 0;
    for (uint64_t cap : {1u, 2u, 4u, 16u, 256u}) {
      AnswerOptions opts;
      opts.allow_degraded = true;  // a truncated sweep is a degradation
      opts.max_constraint_checks = cap;
      AnswerStats stats;
      TupleSet got = AnswerSet(engine, cq, opts, &stats);
      EXPECT_EQ(want, got) << cq.ToString(w.ontology.vocab()) << " cap "
                           << cap;
      EXPECT_LE(stats.rewrite.constraint_checks, cap)
          << cq.ToString(w.ontology.vocab());
      // A larger budget never yields a *larger* union than a smaller one
      // (more oracle consultations can only suppress more).
      if (prev_disjuncts > 0) {
        EXPECT_LE(stats.rewrite.final_disjuncts, prev_disjuncts)
            << cq.ToString(w.ontology.vocab()) << " cap " << cap;
      }
      prev_disjuncts = stats.rewrite.final_disjuncts;
    }
    // The uncapped pass prunes at least as hard as any capped one.
    if (prev_disjuncts > 0) {
      EXPECT_LE(full_stats.rewrite.final_disjuncts, prev_disjuncts);
    }
  }
}

// Replay every checked-in corpus case with pruning enabled vs disabled
// (plus the chase/ABox referees inside CheckAnswerPaths): the two
// pipelines must agree on every case, including the recorded-discrepancy
// entries — their mutations corrupt a *classifier*, not answering.
TEST(PruningMetamorphic, DisabledEqualsEnabledOnEveryCorpusCase) {
  namespace fs = std::filesystem;
  std::set<fs::path> files;
  ASSERT_TRUE(fs::exists(OLITE_CORPUS_DIR))
      << "corpus directory missing: " << OLITE_CORPUS_DIR;
  for (const auto& entry : fs::directory_iterator(OLITE_CORPUS_DIR)) {
    if (entry.path().extension() == ".case") files.insert(entry.path());
  }
  ASSERT_FALSE(files.empty()) << "no .case files in " << OLITE_CORPUS_DIR;
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto c = testkit::ParseCase(buffer.str());
    ASSERT_TRUE(c.ok()) << path << ": " << c.status().ToString();
    testkit::AnswerPathOptions opts;
    opts.cache_paths = false;
    opts.pruning_paths = true;
    auto diffs = testkit::CheckAnswerPaths(testkit::ToWorkload(*c), opts);
    EXPECT_TRUE(diffs.empty()) << path << ":";
    for (const auto& d : diffs) ADD_FAILURE() << "  " << d;
  }
}

// Concurrency (the TSan target): a pruned and an unpruned engine over one
// snapshot, each with its own plan cache, and several threads
// interleaving calls on both — every answer must stay exact.
// SourceConstraints is immutable after Infer, so concurrent oracle reads
// are safe by construction; this test makes TSan check that claim.
TEST(PruningConcurrency, MixedPrunedAndUnprunedCallsStayExact) {
  Workload w = benchgen::GenerateWorkload(RichConfig(5));
  auto snapshot = Compile(w, w.mappings);
  ASSERT_NE(snapshot, nullptr);
  const QueryEngine pruned(snapshot);
  QueryEngineOptions unpruned_opts;
  unpruned_opts.disable_constraint_pruning = true;
  const QueryEngine unpruned(snapshot, unpruned_opts);

  std::vector<TupleSet> want;
  for (const auto& cq : w.queries) {
    want.push_back(AnswerSet(ColdEngine(snapshot), cq));
  }

  constexpr size_t kThreads = 4;
  constexpr size_t kItersPerThread = 12;
  std::vector<std::vector<std::string>> errors(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = 0; i < kItersPerThread; ++i) {
        size_t qi = (t + i) % w.queries.size();
        const bool pruning_off = (t + i) % 2 == 1;
        auto rows =
            (pruning_off ? unpruned : pruned).Answer(w.queries[qi]);
        if (!rows.ok()) {
          errors[t].push_back(rows.status().ToString());
          continue;
        }
        if (TupleSet(rows->begin(), rows->end()) != want[qi]) {
          errors[t].push_back(
              "wrong answers for query " + std::to_string(qi) +
              (pruning_off ? " (pruning off)" : " (pruning on)"));
        }
      }
    });
  }
  for (auto& th : workers) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (const auto& e : errors[t]) {
      ADD_FAILURE() << "thread " << t << ": " << e;
    }
  }
}

}  // namespace
}  // namespace olite::obda
