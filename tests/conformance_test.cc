// The conformance harness end-to-end (src/testkit): a seeded differential
// sweep (three classifiers refereed by the brute-force oracle; three
// answer paths refereed by the chase oracle), metamorphic properties,
// budget/fault monotonicity, delta-debugging shrinking of injected
// discrepancies, and replay of the checked-in tests/corpus/ cases.
//
// Sweep size and seed window are overridable without a rebuild:
//   OLITE_CONFORMANCE_SEEDS      number of seeds   (default 200)
//   OLITE_CONFORMANCE_SEED_BASE  first seed        (default 0)
// The nightly CI job uses these to sweep fresh seeds every run.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/workload.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/classifier.h"
#include "obda/answer.h"
#include "obda/compiled_ontology.h"
#include "query/abox_eval.h"
#include "testkit/chase_oracle.h"
#include "testkit/corpus.h"
#include "testkit/differential.h"
#include "testkit/shrinker.h"
#include "testkit/subsumption_oracle.h"

#ifndef OLITE_CORPUS_DIR
#define OLITE_CORPUS_DIR "tests/corpus"
#endif

namespace olite {
namespace {

using benchgen::Workload;
using benchgen::WorkloadConfig;
using testkit::ConformanceCase;

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// Seed-varied small workloads: big enough to exercise joins, shared
/// tables, unmapped predicates and existential axioms; small enough that
/// 200 of them (plus a tableau run every 8th) stay well inside tier-1.
WorkloadConfig SweepConfig(uint64_t seed) {
  WorkloadConfig cfg;
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
  cfg.num_queries = 3;
  cfg.max_atoms_per_query = 3;
  return cfg;
}

std::string JoinDiffs(const std::vector<std::string>& diffs) {
  std::ostringstream os;
  for (const auto& d : diffs) os << "\n  " << d;
  return os.str();
}

// ---------------------------------------------------------------------------
// Workload generator invariants (tentpole prerequisite: the differential
// drivers rely on these).
// ---------------------------------------------------------------------------

TEST(WorkloadGenerator, IsDeterministic) {
  WorkloadConfig cfg = SweepConfig(7);
  Workload a = benchgen::GenerateWorkload(cfg);
  Workload b = benchgen::GenerateWorkload(cfg);
  EXPECT_EQ(testkit::SerializeCase(testkit::CaseFromWorkload(a)).value(),
            testkit::SerializeCase(testkit::CaseFromWorkload(b)).value());
  EXPECT_EQ(a.abox.NumAssertions(), b.abox.NumAssertions());
}

TEST(WorkloadGenerator, QueriesAreAnchoredAndWellFormed) {
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Workload w = benchgen::GenerateWorkload(SweepConfig(seed));
    for (const auto& cq : w.queries) {
      ASSERT_FALSE(cq.head_vars.empty());
      ASSERT_FALSE(cq.atoms.empty());
      // Every head variable occurs in the body.
      for (const auto& h : cq.head_vars) {
        EXPECT_GT(cq.CountOccurrences(h), 0u)
            << cq.ToString(w.ontology.vocab()) << " seed " << seed;
      }
      // Every atom reaches a head variable or a constant through shared
      // variables (the anchoring invariant the chase oracle needs).
      auto anchored_atom = [&](const query::Atom& atom) {
        for (const auto& t : atom.args) {
          if (!t.IsVar()) return true;
          for (const auto& h : cq.head_vars) {
            if (h == t.name) return true;
          }
        }
        return false;
      };
      std::vector<bool> anchored(cq.atoms.size(), false);
      for (size_t i = 0; i < cq.atoms.size(); ++i) {
        anchored[i] = anchored_atom(cq.atoms[i]);
      }
      bool changed = true;
      while (changed) {
        changed = false;
        for (size_t i = 0; i < cq.atoms.size(); ++i) {
          if (anchored[i]) continue;
          for (size_t j = 0; j < cq.atoms.size(); ++j) {
            if (!anchored[j]) continue;
            for (const auto& a : cq.atoms[i].args) {
              for (const auto& b : cq.atoms[j].args) {
                if (a.IsVar() && b.IsVar() && a.name == b.name) {
                  anchored[i] = changed = true;
                }
              }
            }
          }
        }
      }
      for (size_t i = 0; i < cq.atoms.size(); ++i) {
        EXPECT_TRUE(anchored[i])
            << cq.ToString(w.ontology.vocab()) << " atom " << i << " seed "
            << seed;
      }
    }
  }
}

TEST(WorkloadGenerator, MaterialisedABoxMatchesMappings) {
  Workload w = benchgen::GenerateWorkload(SweepConfig(3));
  EXPECT_GT(w.abox.NumAssertions(), 0u);
  EXPECT_GT(w.queries.size(), 0u);
}

// ---------------------------------------------------------------------------
// Chase oracle semantics on a hand-built ontology.
// ---------------------------------------------------------------------------

TEST(ChaseOracle, ExistentialSuccessorsAnswerExistentialQueries) {
  dllite::Ontology onto;
  onto.DeclareConcept("County");
  onto.DeclareConcept("State");
  onto.DeclareRole("isPartOf");
  ASSERT_TRUE(onto.AddAxiom("County <= exists isPartOf . State").ok());
  ASSERT_TRUE(onto.AddAxiom("exists isPartOf- <= State").ok());
  dllite::ABox abox;
  abox.AddConceptAssertion({0, onto.vocab().InternIndividual("viterbo")});

  testkit::ChaseOracle chase(onto.tbox(), onto.vocab(), abox, 4);
  // q(x) :- isPartOf(x, y): y is satisfied by the labelled null.
  auto q1 = query::ParseQuery("q(x) :- isPartOf(x, y)", onto.vocab());
  ASSERT_TRUE(q1.ok());
  auto rows = chase.CertainAnswers(*q1);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "viterbo");
  // q(x, y) :- isPartOf(x, y): the null may not appear in an answer.
  auto q2 = query::ParseQuery("q(x, y) :- isPartOf(x, y)", onto.vocab());
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(chase.CertainAnswers(*q2).empty());
  // q(x) :- State(x): the *null* is a State, but it is not named; no
  // named individual is entailed to be a State.
  auto q3 = query::ParseQuery("q(x) :- State(x)", onto.vocab());
  ASSERT_TRUE(q3.ok());
  EXPECT_TRUE(chase.CertainAnswers(*q3).empty());
}

TEST(ChaseOracle, AgreesWithRewritingOnHandExample) {
  dllite::Ontology onto;
  onto.DeclareConcept("Professor");
  onto.DeclareConcept("Person");
  onto.DeclareRole("teaches");
  ASSERT_TRUE(onto.AddAxiom("Professor <= Person").ok());
  ASSERT_TRUE(onto.AddAxiom("Professor <= exists teaches").ok());
  dllite::ABox abox;
  abox.AddConceptAssertion({0, onto.vocab().InternIndividual("ada")});
  testkit::ChaseOracle chase(onto.tbox(), onto.vocab(), abox, 4);
  for (const char* text :
       {"q(x) :- Person(x)", "q(x) :- teaches(x, y)", "q(x) :- Professor(x)"}) {
    auto cq = query::ParseQuery(text, onto.vocab());
    ASSERT_TRUE(cq.ok());
    auto via_rewrite = query::AnswerOverABox(*cq, onto.tbox(), abox,
                                             onto.vocab());
    ASSERT_TRUE(via_rewrite.ok());
    auto via_chase = chase.CertainAnswers(*cq);
    EXPECT_EQ(*via_rewrite, via_chase) << text;
  }
}

// ---------------------------------------------------------------------------
// The tier-1 differential sweep: >= 200 seeded workloads, all classifier
// pairs and both answer-path comparisons, plus metamorphic properties.
// ---------------------------------------------------------------------------

TEST(ConformanceSweep, DifferentialAndMetamorphicAgreement) {
  const uint64_t num_seeds = EnvOr("OLITE_CONFORMANCE_SEEDS", 200);
  const uint64_t base = EnvOr("OLITE_CONFORMANCE_SEED_BASE", 0);
  for (uint64_t seed = base; seed < base + num_seeds; ++seed) {
    Workload w = benchgen::GenerateWorkload(SweepConfig(seed));

    testkit::ClassifierDiffOptions copts;
    copts.run_tableau = (seed % 8 == 0);  // tableau pairs, every 8th seed
    auto diffs = testkit::CompareClassifiers(w.ontology, copts);
    ASSERT_TRUE(diffs.empty())
        << "classifier discrepancies at seed " << seed << JoinDiffs(diffs);

    testkit::AnswerPathOptions aopts;
    aopts.chase_depth = SweepConfig(seed).max_atoms_per_query + 1;
    diffs = testkit::CheckAnswerPaths(w, aopts);
    ASSERT_TRUE(diffs.empty())
        << "answer discrepancies at seed " << seed << JoinDiffs(diffs);

    diffs = testkit::CheckPiMonotonicity(w.ontology, seed);
    ASSERT_TRUE(diffs.empty())
        << "PI monotonicity violated at seed " << seed << JoinDiffs(diffs);

    diffs = testkit::CheckRenamingInvariance(w.ontology, seed);
    ASSERT_TRUE(diffs.empty())
        << "renaming invariance violated at seed " << seed
        << JoinDiffs(diffs);

    if (seed % 16 == 0) {
      diffs = testkit::CheckApproxSoundness(w);
      ASSERT_TRUE(diffs.empty())
          << "approximation soundness violated at seed " << seed
          << JoinDiffs(diffs);
    }
  }
}

// ---------------------------------------------------------------------------
// Constraint-pruning conformance: pruned vs unpruned pipeline vs oracles.
// ---------------------------------------------------------------------------

/// Constraint-rich variant of the sweep config: redundant duplicate
/// mappings and source-materialised inclusions make the pruning oracle
/// fire on most seeds (a sweep that never prunes anything tests nothing).
WorkloadConfig PruningSweepConfig(uint64_t seed) {
  WorkloadConfig cfg = SweepConfig(seed);
  cfg.redundant_mapping_fraction = 0.5;
  cfg.source_inclusion_fraction = 0.5;
  return cfg;
}

// Differential pruning sweep: on >= 200 constraint-rich seeded workloads,
// answering with constraint-aware pruning (the default) must agree with
// the unpruned pipeline and with the chase/ABox oracles on every query.
// A failing seed is ddmin-shrunk to a minimal replayable repro and
// reported in tests/corpus format, ready to be checked in.
TEST(ConformanceSweep, ConstraintPruningAgreesWithOracles) {
  const uint64_t num_seeds = EnvOr("OLITE_PRUNING_CONFORMANCE_SEEDS", 200);
  const uint64_t base = EnvOr("OLITE_CONFORMANCE_SEED_BASE", 0);
  uint64_t pruned_total = 0;
  for (uint64_t seed = base; seed < base + num_seeds; ++seed) {
    Workload w = benchgen::GenerateWorkload(PruningSweepConfig(seed));
    testkit::AnswerPathOptions opts;
    opts.chase_depth = PruningSweepConfig(seed).max_atoms_per_query + 1;
    opts.cache_paths = false;
    opts.pruning_paths = true;
    opts.pruned_accumulator = &pruned_total;
    auto diffs = testkit::CheckAnswerPaths(w, opts);
    if (!diffs.empty()) {
      // Shrink before failing: the report carries a minimal corpus-format
      // repro instead of a 20-concept workload.
      ConformanceCase c = testkit::CaseFromWorkload(w);
      testkit::AnswerPathOptions ropts = opts;
      ropts.pruned_accumulator = nullptr;
      auto fails = [&](const ConformanceCase& candidate) {
        return !testkit::CheckAnswerPaths(testkit::ToWorkload(candidate),
                                          ropts)
                    .empty();
      };
      ConformanceCase shrunk = testkit::Shrink(c, fails);
      FAIL() << "pruning discrepancies at seed " << seed << JoinDiffs(diffs)
             << "\nshrunk repro (save as tests/corpus/pruning_seed"
             << seed << ".case):\n"
             << testkit::SerializeCase(shrunk).value_or("(not writable)\n");
    }
  }
  EXPECT_GT(pruned_total, 0u)
      << "the constraint-rich sweep never pruned a single disjunct";
}

// Evaluator conformance: the batched columnar engine (cold, plan-cache-hot
// and under randomised join orders) against the nested-loop baseline,
// refereed by the chase oracle and direct ABox evaluation.
TEST(EvaluatorConformance, ColumnarAgreesWithNestedLoopAndOracles) {
  const uint64_t num_seeds = EnvOr("OLITE_EVAL_CONFORMANCE_SEEDS", 60);
  const uint64_t base = EnvOr("OLITE_CONFORMANCE_SEED_BASE", 0);
  for (uint64_t seed = base; seed < base + num_seeds; ++seed) {
    Workload w = benchgen::GenerateWorkload(SweepConfig(seed));
    testkit::AnswerPathOptions opts;
    opts.chase_depth = SweepConfig(seed).max_atoms_per_query + 1;
    opts.cache_paths = false;
    opts.evaluator_paths = true;
    // Two fixed seeds plus one varying with the sweep seed keep the
    // join-order metamorphic check cheap but fresh.
    opts.join_order_seeds = {1, 0xBADCAFE, seed + 17};
    auto diffs = testkit::CheckAnswerPaths(w, opts);
    ASSERT_TRUE(diffs.empty())
        << "evaluator discrepancies at seed " << seed << JoinDiffs(diffs);
  }
}

// Hot-swap serving conformance: while the serving layer churns between
// the generated snapshot and a perturbed (rows-dropped) copy, every
// concurrent answer must be exactly one snapshot's oracle answer set —
// the epoch the call reports — never an error and never a blend. Sweeps
// >= 200 seeds by default (override with OLITE_SWAP_CONFORMANCE_SEEDS);
// per-seed work is tiny (2 threads, a few answers, 3 swaps). A failing
// (workload, seed) pair shrinks like any other checker: wrap it in a
// ConformanceCase and ddmin with CheckSwapLinearizability over
// ToWorkload(candidate) as the failure predicate.
TEST(ServingConformance, AnswersAreSwapLinearizable) {
  const uint64_t num_seeds = EnvOr("OLITE_SWAP_CONFORMANCE_SEEDS", 200);
  const uint64_t base = EnvOr("OLITE_CONFORMANCE_SEED_BASE", 0);
  for (uint64_t seed = base; seed < base + num_seeds; ++seed) {
    Workload w = benchgen::GenerateWorkload(SweepConfig(seed));
    auto diffs = testkit::CheckSwapLinearizability(w, seed);
    ASSERT_TRUE(diffs.empty())
        << "swap linearizability violated at seed " << seed
        << JoinDiffs(diffs);
  }
}

/// The delta sequence and rewrite mode the delta sweep runs for `seed`.
testkit::DeltaCompileOptions DeltaSweepOptions(uint64_t seed) {
  testkit::DeltaCompileOptions opts;
  opts.sequence.seed = seed ^ 0xDE17A5EEDULL;
  opts.sequence.num_deltas = 6;
  opts.sequence.functionality_fraction = (seed % 4 == 0) ? 0.15 : 0.0;
  if (seed % 8 == 3) {
    // Planted last so the fallback path is swept without every later
    // generation inheriting (and re-paying for) the densified closure.
    opts.sequence.large_delta_index = 5;
    opts.sequence.large_delta_changes = 24;
  }
  opts.mode = (seed % 3 == 0) ? query::RewriteMode::kPerfectRef
                              : query::RewriteMode::kClassified;
  return opts;
}

// Delta-compilation conformance: on >= 200 seeded workloads, a chain of
// seeded specification deltas is compiled twice per generation — once by
// `CompiledOntology::Refresh` building on the previous refreshed snapshot
// (the serving path) and once from scratch on the identically edited
// specification — and everything observable must agree: TBox text,
// mapping program, table statistics, subsumer/unsat listings, constraint
// facts, and every workload query's answers. Every 8th seed plants one
// oversized delta so the scratch-fallback path is swept too; mode and
// functionality churn vary with the seed. Override the sweep size with
// OLITE_DELTA_CONFORMANCE_SEEDS. A failing seed is ddmin-shrunk to a
// minimal corpus-format repro before the test reports it.
TEST(DeltaConformance, RefreshAgreesWithScratchCompile) {
  const uint64_t num_seeds = EnvOr("OLITE_DELTA_CONFORMANCE_SEEDS", 200);
  const uint64_t base = EnvOr("OLITE_CONFORMANCE_SEED_BASE", 0);
  for (uint64_t seed = base; seed < base + num_seeds; ++seed) {
    Workload w = benchgen::GenerateWorkload(SweepConfig(seed));
    const testkit::DeltaCompileOptions opts = DeltaSweepOptions(seed);
    auto diffs = testkit::CheckDeltaCompile(w, opts);
    if (!diffs.empty()) {
      ConformanceCase c = testkit::CaseFromWorkload(w);
      auto fails = [&](const ConformanceCase& candidate) {
        return !testkit::CheckDeltaCompile(testkit::ToWorkload(candidate),
                                           opts)
                    .empty();
      };
      ConformanceCase shrunk = testkit::Shrink(c, fails);
      FAIL() << "delta-compile discrepancies at seed " << seed
             << JoinDiffs(diffs)
             << "\nshrunk repro (save as tests/corpus/delta_seed" << seed
             << ".case):\n"
             << testkit::SerializeCase(shrunk).value_or("(not writable)\n");
    }
  }
}

// What every refresh of the delta sweep's first 20 sequences reports
// about itself, pinned: which predicates its changed-predicate bound names
// (the set that drives selective plan invalidation), how many compile
// stages and constraint views it shared with its base, and whether the
// closure patch fell back to scratch.
// Fixed seeds, so OLITE_CONFORMANCE_SEED_BASE does not move it.
TEST(RefreshTelemetry, DeltaSweepSequencesKeepTheirTelemetry) {
  std::string listing;
  size_t refreshes = 0, scratch_fallbacks = 0;
  uint64_t reused_stages = 0, reused_views = 0, changed_preds = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Workload w = benchgen::GenerateWorkload(SweepConfig(seed));
    const testkit::DeltaCompileOptions opts = DeltaSweepOptions(seed);
    const auto deltas = benchgen::GenerateDeltaSequence(w, opts.sequence);
    auto compiled = obda::CompiledOntology::Compile(w.ontology, w.mappings,
                                                    w.database, opts.mode);
    ASSERT_TRUE(compiled.ok()) << "seed " << seed;
    std::shared_ptr<const obda::CompiledOntology> chained = *compiled;
    for (size_t di = 0; di < deltas.size(); ++di) {
      auto next = obda::CompiledOntology::Refresh(chained, deltas[di]);
      ASSERT_TRUE(next.ok()) << "seed " << seed << " delta " << di << ": "
                             << next.status().ToString();
      const obda::RefreshInfo& info = (*next)->refresh_info();
      uint64_t preds = kFnv1aBasis;
      for (uint64_t token : info.changed_preds) preds = Fnv1aWord(token, preds);
      std::ostringstream line;
      line << seed << "/" << di << " preds=" << info.changed_preds.size()
           << ":" << std::hex << preds << std::dec
           << " stages=" << info.reused_stages
           << " views=" << info.reused_views
           << " scratch=" << info.fell_back_scratch << "\n";
      listing += line.str();
      ++refreshes;
      scratch_fallbacks += info.fell_back_scratch ? 1 : 0;
      reused_stages += info.reused_stages;
      reused_views += info.reused_views;
      changed_preds += info.changed_preds.size();
      chained = *std::move(next);
    }
  }
  EXPECT_EQ(refreshes, 120u);
  EXPECT_EQ(scratch_fallbacks, 24u) << listing;
  EXPECT_EQ(reused_stages, 245u) << listing;
  EXPECT_EQ(reused_views, 1363u) << listing;
  EXPECT_EQ(changed_preds, 934u) << listing;
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(Fnv1a(listing)));
  EXPECT_EQ(std::string(digest), "3e54265a97d0eea6") << listing;
}

// Satellite: cross-engine agreement on deliberately unsatisfiable
// ontologies — computeUnsat (graph) vs tableau vs completion vs oracle.
TEST(ConformanceSweep, UnsatisfiableOntologyAgreement) {
  size_t total_unsat = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    WorkloadConfig cfg = SweepConfig(seed);
    cfg.ontology.disjointness_fraction = 0.4;
    cfg.ontology.unsatisfiable_fraction = 0.25;
    dllite::Ontology onto = benchgen::Generate(cfg.ontology);

    testkit::ClassifierDiffOptions copts;
    copts.run_tableau = (seed % 4 == 0);
    auto diffs = testkit::CompareClassifiers(onto, copts);
    ASSERT_TRUE(diffs.empty())
        << "unsat disagreement at seed " << seed << JoinDiffs(diffs);
    total_unsat +=
        core::Classify(onto.tbox(), onto.vocab()).UnsatisfiableConcepts()
            .size();
  }
  // The sweep must actually exercise the Ω_T path.
  EXPECT_GT(total_unsat, 0u);
}

// ---------------------------------------------------------------------------
// Budget monotonicity: degraded answers are row-by-row subsets.
// ---------------------------------------------------------------------------

TEST(BudgetMonotonicity, DegradedAnswersAreSubsetsAcrossBudgets) {
  Workload w = benchgen::GenerateWorkload(SweepConfig(11));
  for (uint64_t rows : {1u, 2u, 8u}) {
    for (uint64_t iters : {1u, 2u, 16u}) {
      obda::AnswerOptions options;
      options.allow_degraded = true;
      options.max_rows = rows;
      options.max_rewrite_iterations = iters;
      options.max_sql_blocks = 3;
      auto diffs = testkit::CheckBudgetMonotonicity(w, options);
      ASSERT_TRUE(diffs.empty())
          << "rows=" << rows << " iters=" << iters << JoinDiffs(diffs);
    }
  }
}

TEST(BudgetMonotonicity, HoldsUnderRdbFaultInjection) {
  Workload w = benchgen::GenerateWorkload(SweepConfig(12));
  obda::AnswerOptions options;
  options.allow_degraded = true;
  options.max_rows = 4;
  auto diffs = testkit::CheckBudgetMonotonicity(w, options, [] {
    fault::Injector::Global().Arm(fault::Site::kRdbExecute,
                                  {.fail_every = 2});
  });
  uint64_t hits = fault::Injector::Global().hits(fault::Site::kRdbExecute);
  fault::Injector::Global().DisarmAll();
  EXPECT_GT(hits, 0u) << "fault site never reached";
  ASSERT_TRUE(diffs.empty()) << JoinDiffs(diffs);
}

TEST(BudgetMonotonicity, HoldsUnderUnfoldFaultInjection) {
  Workload w = benchgen::GenerateWorkload(SweepConfig(13));
  obda::AnswerOptions options;
  options.allow_degraded = true;
  options.max_rewrite_iterations = 8;
  auto diffs = testkit::CheckBudgetMonotonicity(w, options, [] {
    fault::Injector::Global().Arm(fault::Site::kUnfold, {.fail_every = 3});
  });
  uint64_t hits = fault::Injector::Global().hits(fault::Site::kUnfold);
  fault::Injector::Global().DisarmAll();
  EXPECT_GT(hits, 0u) << "fault site never reached";
  ASSERT_TRUE(diffs.empty()) << JoinDiffs(diffs);
}

// ---------------------------------------------------------------------------
// Shrinker: an injected discrepancy in a 1000-concept ontology minimises
// to a handful of axioms.
// ---------------------------------------------------------------------------

TEST(Shrinker, ReducesInjectedDiscrepancyToFewAxioms) {
  benchgen::GeneratorConfig big;
  big.name = "shrink";
  big.seed = 17;
  big.num_concepts = 1000;
  big.num_roles = 10;
  big.num_roots = 5;
  big.avg_branching = 8.0;
  ConformanceCase c;
  c.ontology = benchgen::Generate(big);
  ASSERT_EQ(c.ontology.vocab().NumConcepts(), 1000u);

  // Victim: any concept with a genuinely non-empty subsumer set; the
  // mutation hook drops the graph engine's report for it.
  core::Classification cls =
      core::Classify(c.ontology.tbox(), c.ontology.vocab());
  std::string victim;
  for (uint32_t a = 0; a < c.ontology.vocab().NumConcepts(); ++a) {
    if (!cls.SuperConcepts(a).empty()) {
      victim = c.ontology.vocab().ConceptName(a);
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  c.mutation.drop_concept_supers_of = victim;
  c.expect_discrepancy = true;

  const std::string marker = "SuperConcepts(" + victim + ")";
  auto fails = [&](const ConformanceCase& candidate) {
    testkit::ClassifierDiffOptions o;
    o.run_tableau = false;
    o.mutation = candidate.mutation;
    for (const auto& d :
         testkit::CompareClassifiers(candidate.ontology, o)) {
      if (d.find(marker) != std::string::npos &&
          d.find("graph") != std::string::npos) {
        return true;
      }
    }
    return false;
  };
  ASSERT_TRUE(fails(c));

  testkit::ShrinkStats stats;
  ConformanceCase shrunk = testkit::Shrink(c, fails, {}, &stats);
  EXPECT_GT(stats.initial_axioms, 900u);
  EXPECT_LE(stats.final_axioms, 10u) << "shrinker left too many axioms";
  EXPECT_GT(stats.initial_predicates, 1000u);
  EXPECT_LE(stats.final_predicates, 20u)
      << "dead vocabulary survived shrinking";
  EXPECT_TRUE(fails(shrunk));
  EXPECT_LT(stats.iterations, 20000u);

  // The shrunk repro survives a corpus round trip and still fails.
  auto reparsed = testkit::ParseCase(testkit::SerializeCase(shrunk).value());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(fails(*reparsed));
}

// ---------------------------------------------------------------------------
// Corpus round trip + replay of the checked-in cases.
// ---------------------------------------------------------------------------

TEST(Corpus, SerialisationRoundTripsExactly) {
  Workload w = benchgen::GenerateWorkload(SweepConfig(5));
  ConformanceCase c = testkit::CaseFromWorkload(w);
  // Cells whose literal alone does not tell their type: a DOUBLE that
  // renders as an integer, ±0.0, NaNs and infinity, and quoted strings.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(c.database
                  .CreateTable({"edge",
                                {{"s", rdb::ValueType::kString},
                                 {"d", rdb::ValueType::kDouble}}})
                  .ok());
  const std::pair<const char*, double> edge[] = {
      {"2", 2.0},     {"-0", -0.0}, {"it's", nan},
      {"''", -nan},   {"a b", std::numeric_limits<double>::infinity()},
      {"", 1.5}};
  for (const auto& [str, d] : edge) {
    ASSERT_TRUE(
        c.database.Insert("edge", {rdb::Value::Str(str), rdb::Value::Double(d)})
            .ok());
  }
  std::string text = testkit::SerializeCase(c).value();
  auto parsed = testkit::ParseCase(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(testkit::SerializeCase(*parsed).value(), text);
  EXPECT_EQ((*parsed->database.GetTable("edge"))->rows(),
            (*c.database.GetTable("edge"))->rows());
  // A literal that is no value of its column's type is a parse error.
  auto parse_row = [](const std::string& row) {
    return testkit::ParseCase(
        "begin ontology\nconcept C\nend ontology\nbegin tables\n"
        "table edge s:str d:double\nrow edge " + row + "\nend tables\n");
  };
  EXPECT_TRUE(parse_row("'x' -nan").ok());
  for (const char* row :
       {"'x' abc", "x 1", "'x' '1'", "'x' 1e5", "'x", "'x' 1 2"}) {
    EXPECT_FALSE(parse_row(row).ok()) << row;
  }
  // The reparsed case drives the differential harness identically.
  EXPECT_EQ(testkit::RunCase(*parsed, /*run_tableau=*/false),
            testkit::RunCase(c, /*run_tableau=*/false));
}

// Filter constants whose spelling alone is easy to get wrong: a quote in
// TEXT (written doubled), DOUBLE 2.0 and -0.0 (written with a decimal
// point, so they do not lex as INT). The text round-trips exactly, and the
// parsed filters keep their types. NaN and ±infinity have no spelling in
// the mapping grammar, so a case filtering on one is not writable.
TEST(Corpus, FilterConstantsRoundTrip) {
  const std::string text =
      "# olite conformance corpus case\n"
      "expect agree\n"
      "begin ontology\n"
      "concept C0 C1 C2 C3\n"
      "end ontology\n"
      "begin tables\n"
      "table t s:str d:double n:int\n"
      "row t 'a''b' 2 2\n"
      "row t 'x' -0 3\n"
      "row t 'y' 0 2\n"
      "end tables\n"
      "begin mappings\n"
      "C0(x) <- SELECT t0.s FROM t t0 WHERE t0.s = 'a''b'\n"
      "C1(x) <- SELECT t0.s FROM t t0 WHERE t0.d = 2.0\n"
      "C2(x) <- SELECT t0.s FROM t t0 WHERE t0.d = -0.0\n"
      "C3(x) <- SELECT t0.s FROM t t0 WHERE t0.n = 2 AND t0.d = 0.5\n"
      "end mappings\n"
      "begin queries\n"
      "q(x) :- C0(x)\n"
      "q(x) :- C1(x)\n"
      "q(x) :- C2(x)\n"
      "end queries\n";
  auto parsed = testkit::ParseCase(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(testkit::SerializeCase(*parsed).value(), text);
  const auto& maps = parsed->mappings.assertions();
  ASSERT_EQ(maps.size(), 4u);
  EXPECT_EQ(maps[0].source.filters[0].value, rdb::Value::Str("a'b"));
  EXPECT_EQ(maps[1].source.filters[0].value, rdb::Value::Double(2.0));
  EXPECT_EQ(maps[2].source.filters[0].value, rdb::Value::Double(-0.0));
  EXPECT_EQ(maps[3].source.filters[0].value, rdb::Value::Int(2));
  EXPECT_TRUE(parsed->mappings.Validate(parsed->database).ok());
  EXPECT_TRUE(testkit::RunCase(*parsed, /*run_tableau=*/false).empty());

  // Magnitudes `Value::ToString` writes with an exponent, which the lexer
  // does not read, are written in fixed notation.
  for (double d : {1e300, -1e-7, 5e-324, 123456.75}) {
    ConformanceCase c = *parsed;
    rdb::SelectBlock block = maps[1].source;
    block.filters[0].value = rdb::Value::Double(d);
    ASSERT_TRUE(
        c.mappings.Add(mapping::MappingAssertion::ForConcept(1, block)).ok());
    auto again = testkit::ParseCase(testkit::SerializeCase(c).value());
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->mappings.assertions().back().source.filters[0].value,
              rdb::Value::Double(d));
  }
  for (double unwritable : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()}) {
    ConformanceCase c = *parsed;
    rdb::SelectBlock block = maps[1].source;
    block.filters[0].value = rdb::Value::Double(unwritable);
    ASSERT_TRUE(
        c.mappings.Add(mapping::MappingAssertion::ForConcept(1, block)).ok());
    auto serialized = testkit::SerializeCase(c);
    EXPECT_EQ(serialized.status().code(), StatusCode::kInvalidArgument)
        << unwritable;
  }
}

TEST(Corpus, ReplaysAllCheckedInCases) {
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
    auto diffs = testkit::RunCase(*c, /*run_tableau=*/true);
    if (c->expect_discrepancy) {
      EXPECT_FALSE(diffs.empty())
          << path << ": recorded discrepancy no longer reproduces";
    } else {
      EXPECT_TRUE(diffs.empty()) << path << JoinDiffs(diffs);
    }
  }
}

}  // namespace
}  // namespace olite
