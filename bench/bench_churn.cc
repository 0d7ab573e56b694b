// Hot-swap churn + overload-shedding benchmark for the serving layer
// (ServingEngine). Two measured phases, one JSON row each:
//
// Phase 1 — churn. Reader threads answer a benchgen workload continuously
// while the main thread performs `--swaps` CompileAndSwap refreshes that
// alternate between the full database and a perturbed copy (a seeded
// subset of rows dropped). Every answer is checked against the quiescent
// oracle of the epoch it reports (odd epochs = full DB, even = perturbed),
// so the row carries a hard zero-downtime result: `errors` (answers that
// failed during churn) and `discrepancies` (answers that matched neither
// snapshot) must both be 0. Swap publish latency comes from the engine's
// own `snapshot.swap_us` histogram; end-to-end refresh cost (compile +
// publish) is timed around each CompileAndSwap call.
//
// Phase 2 — delta refresh (opt-in, `--delta=on|both`). A seeded
// specification-churn sequence (`benchgen::GenerateDeltaSequence`, the
// oversized delta planted last) is chained through `RefreshAndSwap`
// while reader threads answer continuously; every answer is checked
// against the scratch-compiled oracle of the generation its epoch
// reports, so the delta path carries the same hard zero-discrepancy
// result as phase 1. Under `--delta=both` each generation is also
// scratch-compiled with a stopwatch around it, giving the head-to-head
// refresh-vs-recompile comparison the `--delta-gate` speedup gate runs
// on. The row carries the engine's own `snapshot.delta_*` instruments
// (applied / fallback / patched nodes / reused stages / plans
// invalidated vs migrated) and the `snapshot.refresh_us` histogram.
//
// Phase 3 — overload. A fresh ServingEngine is given `--max-in-flight`
// tokens and a `--queue-depth` wait queue; injected evaluator latency
// (`--latency-ms` per rdb execute, fault::Site::kRdbExecute) makes every
// admitted request slow, and `--saturation` × max_in_flight closed-loop
// threads drive it past saturation. The row reports the shed rate, the
// p50/p99 request latency under overload, and the slowest shed response.
//
// Gates (exit 1 on violation — CI smoke-runs this binary):
//   churn:    errors == 0, discrepancies == 0, final epoch == swaps + 1
//   delta (only with --delta-gate, which needs --delta=both):
//             errors == 0, discrepancies == 0, the planted large delta
//             fell back to scratch while the small deltas did not, final
//             epoch == deltas + 1, and p50 refresh is at least
//             --delta-min-speedup times faster than p50 scratch compile
//   overload: no status other than ok / admission-shed, sheds happened,
//             in_flight_peak <= max_in_flight, and every shed response
//             returned within 1.1 × deadline (+ --shed-slack-ms of
//             scheduler grace).
//
// Flags: --queries=<n>        distinct queries in the pool   (default 12)
//        --seed=<n>           workload + perturbation seed   (default 1)
//        --churn-threads=<n>  reader threads during churn    (default 4)
//        --swaps=<n>          CompileAndSwap refreshes       (default 12)
//        --drop-fraction=<f>  rows dropped in perturbed DB   (default 0.4)
//        --max-in-flight=<n>  admission tokens (phase 2)     (default 4)
//        --queue-depth=<n>    admission queue slots          (default 4)
//        --queue-wait-ms=<f>  max queued wait                (default 100)
//        --saturation=<n>     threads per token              (default 4)
//        --overload-requests=<n>  requests per thread        (default 25)
//        --deadline-ms=<f>    per-request deadline           (default 200)
//        --latency-ms=<f>     injected per-execute latency   (default 20)
//        --shed-slack-ms=<f>  scheduler grace on the shed
//                             latency gate                   (default 50)
//        --delta=<m>          off|on|both — delta phase      (default off)
//        --delta-count=<n>    deltas in the churn sequence   (default 10)
//        --delta-min-speedup=<f>  gate: p50 scratch / p50
//                             refresh ratio floor            (default 5)
//        --delta-gate         enforce the delta gates (needs
//                             --delta=both)
//        --out=<path>         results (default BENCH_churn.json)
//
// The JSON output is an array of one row per phase run ("phase": churn,
// delta, overload), each ending with the build stamp (bench_util.h).
//
// The readers and the overload clients are not bench_util's closed-loop
// runner: readers run until the refreshes end and check every answer
// against an epoch's oracle, and overload clients expect sheds, where the
// runner fails on the first error.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "benchgen/workload.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "obda/compiled_ontology.h"
#include "obda/delta.h"
#include "obda/serving_engine.h"
#include "obs/metrics.h"

namespace {

using olite::Rng;
using olite::Stopwatch;
using olite::obda::CompiledOntology;
using olite::obda::ServingEngine;
using olite::obda::ServingEngineOptions;

using TupleSet = std::set<std::vector<std::string>>;

struct ChurnRow {
  int threads = 0;
  uint64_t answers = 0;
  uint64_t swaps = 0;
  uint64_t errors = 0;
  uint64_t discrepancies = 0;
  uint64_t final_epoch = 0;
  double qps = 0;
  double hit_rate = 0;
  double answer_p50_ms = 0;
  double answer_p99_ms = 0;
  double swap_p50_us = 0;
  double swap_p99_us = 0;
  double refresh_p50_ms = 0;
  double refresh_max_ms = 0;
};

struct DeltaRow {
  std::string mode;  // "on" or "both"
  int threads = 0;
  uint64_t generations = 0;
  uint64_t answers = 0;
  uint64_t errors = 0;
  uint64_t discrepancies = 0;
  uint64_t final_epoch = 0;
  // Accumulated DeltaSwapStats across the sequence; `applied` is read
  // back from the snapshot.delta_applied counter to prove the registry
  // wiring end to end.
  uint64_t applied = 0;
  uint64_t fallbacks = 0;
  uint64_t patched_nodes = 0;
  uint64_t reused_stages = 0;
  uint64_t reused_views = 0;
  uint64_t plans_invalidated = 0;
  uint64_t plans_migrated = 0;
  double refresh_p50_ms = 0;
  double refresh_max_ms = 0;
  double refresh_us_p50 = 0;  // snapshot.refresh_us histogram
  double refresh_us_p99 = 0;
  double scratch_p50_ms = 0;  // --delta=both only
  double speedup = 0;         // --delta=both only
};

struct OverloadRow {
  int threads = 0;
  size_t max_in_flight = 0;
  size_t queue_depth = 0;
  double deadline_ms = 0;
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;
  uint64_t queued = 0;
  size_t in_flight_peak = 0;
  double shed_rate = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double shed_max_ms = 0;
  double shed_bound_ms = 0;
};

}  // namespace

int main(int argc, char** argv) {
  olite::bench::Flags flags(argc, argv);
  const uint32_t num_queries = flags.Int<uint32_t>("queries", 12);
  const uint64_t seed = flags.Int<uint64_t>("seed", 1);
  const int churn_threads = flags.Int("churn-threads", 4, 0);
  const uint64_t swaps = flags.Int<uint64_t>("swaps", 12);
  const double drop_fraction = flags.Double("drop-fraction", 0.4);
  const size_t max_in_flight = flags.Int<size_t>("max-in-flight", 4);
  const size_t queue_depth = flags.Int<size_t>("queue-depth", 4);
  const double queue_wait_ms = flags.Double("queue-wait-ms", 100);
  const int saturation = flags.Int("saturation", 4, 0);
  const uint64_t overload_requests =
      flags.Int<uint64_t>("overload-requests", 25);
  const double deadline_ms = flags.Double("deadline-ms", 200);
  const double latency_ms = flags.Double("latency-ms", 20);
  const double shed_slack_ms = flags.Double("shed-slack-ms", 50);
  const std::string delta_mode =
      flags.String("delta", "off", {"off", "on", "both"});
  const uint32_t delta_count = flags.Int<uint32_t>("delta-count", 10);
  const double delta_min_speedup = flags.Double("delta-min-speedup", 5);
  const bool delta_gate = flags.Has("delta-gate");
  const std::string out_path = flags.String("out", "BENCH_churn.json");
  if (!flags.Finish()) return 1;
  if (delta_gate && delta_mode != "both") {
    std::fprintf(stderr, "--delta-gate needs --delta=both\n");
    return 1;
  }
  if (delta_mode != "off" && delta_count < 4) {
    std::fprintf(stderr, "--delta-count must be at least 4\n");
    return 1;
  }

  olite::benchgen::WorkloadConfig config;
  config.ontology.name = "churn";
  config.ontology.seed = seed;
  config.ontology.num_concepts = 40;
  config.ontology.num_roles = 5;
  config.ontology.num_attributes = 2;
  config.ontology.num_roots = 3;
  config.ontology.avg_branching = 3.0;
  config.ontology.domain_range_fraction = 0.3;
  config.ontology.unqualified_exists_per_concept = 0.2;
  config.seed = seed;
  config.num_individuals = 80;
  config.num_concept_assertions = 160;
  config.num_role_assertions = 160;
  config.num_attribute_assertions = 40;
  config.num_queries = num_queries;
  config.max_atoms_per_query = 3;
  olite::benchgen::Workload workload =
      olite::benchgen::GenerateWorkload(config);
  if (workload.queries.empty()) {
    std::fprintf(stderr, "workload has no queries\n");
    return 1;
  }

  // Perturbed database: same schema, a seeded subset of rows dropped —
  // the "new data" each even-epoch refresh publishes.
  olite::rdb::Database perturbed;
  {
    Rng rng(seed ^ 0x5AFE5EEDULL);
    for (const auto& [name, table] : workload.database.tables()) {
      (void)perturbed.CreateTable(table.schema());
      for (const auto& row : table.rows()) {
        if (rng.Chance(drop_fraction)) continue;
        (void)perturbed.Insert(name, row);
      }
    }
  }

  auto snap_a = CompiledOntology::Compile(workload.ontology,
                                          workload.mappings,
                                          workload.database);
  auto snap_b = CompiledOntology::Compile(workload.ontology,
                                          workload.mappings, perturbed);
  if (!snap_a.ok() || !snap_b.ok()) {
    std::fprintf(stderr, "compile failed\n");
    return 1;
  }

  // Quiescent oracles: the exact answer set of every query on each
  // snapshot, computed before any concurrency starts.
  std::vector<TupleSet> want_a, want_b;
  {
    olite::obda::QueryEngineOptions qopts;
    qopts.enable_metrics = false;
    olite::obda::QueryEngine oracle_a(*snap_a, qopts);
    olite::obda::QueryEngine oracle_b(*snap_b, qopts);
    for (const auto& cq : workload.queries) {
      auto ra = oracle_a.Answer(cq);
      auto rb = oracle_b.Answer(cq);
      if (!ra.ok() || !rb.ok()) {
        std::fprintf(stderr, "oracle answering failed\n");
        return 1;
      }
      want_a.emplace_back(ra->begin(), ra->end());
      want_b.emplace_back(rb->begin(), rb->end());
    }
  }

  // ---- Phase 1: churn ----------------------------------------------------
  ChurnRow churn;
  churn.threads = churn_threads;
  churn.swaps = swaps;
  std::vector<double> refresh_ms;
  {
    olite::obs::MetricsRegistry registry;
    ServingEngineOptions sopts;
    sopts.engine.metrics = &registry;
    ServingEngine serving(*snap_a, sopts);
    olite::obs::Histogram& request_us =
        registry.histogram(olite::bench::kRequestUs);

    std::atomic<bool> done{false};
    std::atomic<uint64_t> answers{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> discrepancies{0};
    // The construction snapshot is epoch 1 on the full DB and the
    // refreshes alternate perturbed, full, perturbed, … — so odd epochs
    // always serve the full DB and even epochs the perturbed one.
    auto check_one = [&](size_t qi) {
      olite::obda::AnswerStats stats;
      Stopwatch sw;
      auto got = serving.Answer(workload.queries[qi],
                                olite::obda::AnswerOptions{}, &stats);
      request_us.Record(sw.ElapsedMicros());
      answers.fetch_add(1, std::memory_order_relaxed);
      if (!got.ok()) {
        errors.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const TupleSet& want =
          stats.serve.epoch % 2 == 1 ? want_a[qi] : want_b[qi];
      if (TupleSet(got->begin(), got->end()) != want) {
        discrepancies.fetch_add(1, std::memory_order_relaxed);
      }
    };

    Stopwatch wall;
    std::vector<std::thread> readers;
    for (int t = 0; t < churn_threads; ++t) {
      readers.emplace_back([&, t] {
        size_t i = 0;
        while (!done.load(std::memory_order_relaxed)) {
          check_one((static_cast<size_t>(t) + i++) %
                    workload.queries.size());
        }
      });
    }
    for (uint64_t s = 0; s < swaps; ++s) {
      Stopwatch sw;
      auto r = serving.CompileAndSwap(
          workload.ontology, workload.mappings,
          s % 2 == 0 ? perturbed : workload.database);
      refresh_ms.push_back(sw.ElapsedMillis());
      if (!r.ok()) {
        std::fprintf(stderr, "CompileAndSwap failed: %s\n",
                     r.status().ToString().c_str());
        done.store(true);
        for (auto& th : readers) th.join();
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done.store(true);
    for (auto& th : readers) th.join();
    double total_ms = wall.ElapsedMillis();

    // Post-churn quiescent pass: the surviving epoch must still serve its
    // oracle answers exactly.
    for (size_t qi = 0; qi < workload.queries.size(); ++qi) check_one(qi);

    churn.answers = answers.load();
    churn.errors = errors.load();
    churn.discrepancies = discrepancies.load();
    churn.final_epoch = serving.epoch();
    churn.qps = total_ms > 0
                    ? 1000.0 * static_cast<double>(churn.answers) / total_ms
                    : 0;
    auto metrics = serving.cache_metrics();
    uint64_t lookups = metrics.hits + metrics.misses;
    churn.hit_rate = lookups > 0 ? static_cast<double>(metrics.hits) /
                                       static_cast<double>(lookups)
                                 : 0;
    churn.answer_p50_ms =
        olite::bench::QuantileMs(registry, olite::bench::kRequestUs, 0.50);
    churn.answer_p99_ms =
        olite::bench::QuantileMs(registry, olite::bench::kRequestUs, 0.99);
    churn.swap_p50_us = registry.HistogramQuantile(
        olite::obda::metric_names::kSnapshotSwapUs, 0.50);
    churn.swap_p99_us = registry.HistogramQuantile(
        olite::obda::metric_names::kSnapshotSwapUs, 0.99);
    std::sort(refresh_ms.begin(), refresh_ms.end());
    if (!refresh_ms.empty()) {
      churn.refresh_p50_ms = refresh_ms[refresh_ms.size() / 2];
      churn.refresh_max_ms = refresh_ms.back();
    }
  }
  std::printf("churn: %llu answers across %d threads, %llu swaps, "
              "errors %llu, discrepancies %llu, swap p99 %.1f us, "
              "refresh max %.1f ms\n",
              static_cast<unsigned long long>(churn.answers), churn.threads,
              static_cast<unsigned long long>(churn.swaps),
              static_cast<unsigned long long>(churn.errors),
              static_cast<unsigned long long>(churn.discrepancies),
              churn.swap_p99_us, churn.refresh_max_ms);

  // ---- Phase 2: delta refresh churn --------------------------------------
  DeltaRow delta_row;
  const bool run_delta = delta_mode != "off";
  if (run_delta) {
    delta_row.mode = delta_mode;
    delta_row.threads = churn_threads;
    delta_row.generations = delta_count;

    // The delta phase gets a larger twin of the churn workload: delta
    // compilation's whole point is that scratch-compile cost grows with
    // the specification and data while a small-delta refresh stays flat,
    // so the head-to-head needs a spec big enough for that gap to show.
    olite::benchgen::WorkloadConfig dconfig = config;
    dconfig.ontology.name = "delta-churn";
    dconfig.ontology.num_concepts = 120;
    dconfig.num_individuals = 400;
    dconfig.num_concept_assertions = 1200;
    dconfig.num_role_assertions = 1200;
    dconfig.num_attribute_assertions = 200;
    olite::benchgen::Workload dwork =
        olite::benchgen::GenerateWorkload(dconfig);
    if (dwork.queries.empty()) {
      std::fprintf(stderr, "delta workload has no queries\n");
      return 1;
    }

    // Seeded specification churn. The oversized delta goes last so every
    // earlier generation measures the small-delta fast path (a large delta
    // planted early densifies the closure for everything after it).
    olite::benchgen::DeltaSequenceConfig dcfg;
    dcfg.seed = seed * 31 + 7;
    dcfg.num_deltas = delta_count;
    dcfg.functionality_fraction = 0.15;
    dcfg.large_delta_index = static_cast<int32_t>(delta_count) - 1;
    dcfg.large_delta_changes = 96;
    std::vector<olite::obda::OntologyDelta> deltas =
        olite::benchgen::GenerateDeltaSequence(dwork, dcfg);

    // Generation 0, compiled kClassified so refreshes can patch the
    // closure in place (and the large delta can exercise the fallback).
    auto base = CompiledOntology::Compile(dwork.ontology,
                                          dwork.mappings,
                                          dwork.database,
                                          olite::query::RewriteMode::kClassified);
    if (!base.ok()) {
      std::fprintf(stderr, "delta base compile failed: %s\n",
                   base.status().ToString().c_str());
      return 1;
    }

    // Evolve the specification quiescently: per-generation (ontology,
    // mappings) pairs for the scratch churn pass and the oracle answer
    // sets the concurrent checkers compare against. Untimed — both
    // measured passes run under identical reader load below.
    std::vector<std::vector<TupleSet>> gen_want;
    std::vector<olite::dllite::Ontology> gen_onto;
    std::vector<olite::mapping::MappingSet> gen_maps;
    {
      std::vector<std::shared_ptr<const CompiledOntology>> gens;
      gens.push_back(*base);
      olite::dllite::TBox tbox = dwork.ontology.tbox();
      olite::mapping::MappingSet mappings = dwork.mappings;
      for (size_t g = 0; g < deltas.size(); ++g) {
        auto nt = olite::obda::ApplyTBoxDelta(tbox, deltas[g]);
        auto nm = olite::obda::ApplyMappingDelta(mappings, deltas[g]);
        if (!nt.ok() || !nm.ok()) {
          std::fprintf(stderr, "delta %zu does not apply\n", g);
          return 1;
        }
        tbox = *std::move(nt);
        mappings = *std::move(nm);
        olite::dllite::Ontology onto = dwork.ontology;
        onto.tbox() = tbox;
        auto snap = CompiledOntology::Compile(
            onto, mappings, dwork.database,
            olite::query::RewriteMode::kClassified);
        if (!snap.ok()) {
          std::fprintf(stderr,
                       "scratch compile of generation %zu failed: %s\n",
                       g + 1, snap.status().ToString().c_str());
          return 1;
        }
        gen_onto.push_back(std::move(onto));
        gen_maps.push_back(mappings);
        gens.push_back(*std::move(snap));
      }
      olite::obda::QueryEngineOptions qopts;
      qopts.enable_metrics = false;
      for (const auto& gen : gens) {
        olite::obda::QueryEngine oracle(gen, qopts);
        std::vector<TupleSet> want;
        for (const auto& cq : dwork.queries) {
          auto r = oracle.Answer(cq);
          if (!r.ok()) {
            std::fprintf(stderr, "delta oracle answering failed\n");
            return 1;
          }
          want.emplace_back(r->begin(), r->end());
        }
        gen_want.push_back(std::move(want));
      }
    }

    // One churn pass: reader threads answer continuously — each answer
    // checked against the oracle of the generation its epoch reports
    // (epoch e serves generation e-1) — while the main thread advances
    // the engine one generation at a time through `advance`, timed.
    auto churn_pass = [&](ServingEngine& engine, auto&& advance,
                          std::vector<double>* step_ms) -> bool {
      std::atomic<bool> done{false};
      std::atomic<uint64_t> answers{0};
      std::atomic<uint64_t> errors{0};
      std::atomic<uint64_t> discrepancies{0};
      auto check_one = [&](size_t qi) {
        olite::obda::AnswerStats stats;
        auto got = engine.Answer(dwork.queries[qi],
                                 olite::obda::AnswerOptions{}, &stats);
        answers.fetch_add(1, std::memory_order_relaxed);
        if (!got.ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        const TupleSet& want = gen_want[stats.serve.epoch - 1][qi];
        if (TupleSet(got->begin(), got->end()) != want) {
          discrepancies.fetch_add(1, std::memory_order_relaxed);
        }
      };
      // Warm the plan cache so the selective-invalidation split (drop vs
      // migrate) has entries to work on from the first refresh.
      for (size_t qi = 0; qi < dwork.queries.size(); ++qi) check_one(qi);
      std::vector<std::thread> readers;
      for (int t = 0; t < churn_threads; ++t) {
        readers.emplace_back([&, t] {
          size_t i = 0;
          while (!done.load(std::memory_order_relaxed)) {
            check_one((static_cast<size_t>(t) + i++) %
                      dwork.queries.size());
          }
        });
      }
      bool ok = true;
      for (size_t g = 0; g < deltas.size() && ok; ++g) {
        Stopwatch sw;
        ok = advance(g);
        step_ms->push_back(sw.ElapsedMillis());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      done.store(true);
      for (auto& th : readers) th.join();
      // Post-churn quiescent pass on the surviving generation.
      if (ok) {
        for (size_t qi = 0; qi < dwork.queries.size(); ++qi) check_one(qi);
      }
      delta_row.answers += answers.load();
      delta_row.errors += errors.load();
      delta_row.discrepancies += discrepancies.load();
      return ok;
    };

    // Scratch pass (--delta=both): the same generations recompiled from
    // scratch via CompileAndSwap under the same reader load — the
    // baseline the refresh pass's speedup gate divides by.
    std::vector<double> scratch_step_ms;
    if (delta_mode == "both") {
      ServingEngine scratch_serving(*base, ServingEngineOptions{});
      bool ok = churn_pass(
          scratch_serving,
          [&](size_t g) {
            auto r = scratch_serving.CompileAndSwap(
                gen_onto[g], gen_maps[g], dwork.database,
                olite::query::RewriteMode::kClassified);
            if (!r.ok()) {
              std::fprintf(stderr, "CompileAndSwap %zu failed: %s\n", g,
                           r.status().ToString().c_str());
              return false;
            }
            return true;
          },
          &scratch_step_ms);
      if (!ok) return 1;
    }

    // Refresh pass: identical load, RefreshAndSwap per generation.
    olite::obs::MetricsRegistry registry;
    ServingEngineOptions sopts;
    sopts.engine.metrics = &registry;
    ServingEngine serving(*base, sopts);
    std::vector<double> delta_refresh_ms;
    {
      bool ok = churn_pass(
          serving,
          [&](size_t g) {
            olite::obda::DeltaSwapStats ds;
            auto r = serving.RefreshAndSwap(deltas[g], &ds);
            if (!r.ok()) {
              std::fprintf(stderr, "RefreshAndSwap %zu failed: %s\n", g,
                           r.status().ToString().c_str());
              return false;
            }
            if (ds.fell_back_scratch) ++delta_row.fallbacks;
            delta_row.patched_nodes += ds.patched_nodes;
            delta_row.reused_stages += ds.reused_stages;
            delta_row.reused_views += ds.reused_views;
            delta_row.plans_invalidated += ds.plans_invalidated;
            delta_row.plans_migrated += ds.plans_migrated;
            return true;
          },
          &delta_refresh_ms);
      if (!ok) return 1;
    }

    delta_row.final_epoch = serving.epoch();
    const olite::obs::Counter* applied = registry.FindCounter(
        olite::obda::metric_names::kSnapshotDeltaApplied);
    delta_row.applied = applied != nullptr ? applied->Value() : 0;
    delta_row.refresh_us_p50 = registry.HistogramQuantile(
        olite::obda::metric_names::kSnapshotRefreshUs, 0.50);
    delta_row.refresh_us_p99 = registry.HistogramQuantile(
        olite::obda::metric_names::kSnapshotRefreshUs, 0.99);
    std::sort(delta_refresh_ms.begin(), delta_refresh_ms.end());
    delta_row.refresh_p50_ms = delta_refresh_ms[delta_refresh_ms.size() / 2];
    delta_row.refresh_max_ms = delta_refresh_ms.back();
    if (delta_mode == "both") {
      std::sort(scratch_step_ms.begin(), scratch_step_ms.end());
      delta_row.scratch_p50_ms = scratch_step_ms[scratch_step_ms.size() / 2];
      delta_row.speedup = delta_row.refresh_p50_ms > 0
                              ? delta_row.scratch_p50_ms /
                                    delta_row.refresh_p50_ms
                              : 0;
    }
    std::printf(
        "delta: %llu refreshes (%llu fell back), %llu answers, errors "
        "%llu, discrepancies %llu, refresh p50 %.2f ms (max %.2f), "
        "scratch p50 %.2f ms, speedup %.1fx, plans invalidated %llu / "
        "migrated %llu\n",
        static_cast<unsigned long long>(delta_row.generations),
        static_cast<unsigned long long>(delta_row.fallbacks),
        static_cast<unsigned long long>(delta_row.answers),
        static_cast<unsigned long long>(delta_row.errors),
        static_cast<unsigned long long>(delta_row.discrepancies),
        delta_row.refresh_p50_ms, delta_row.refresh_max_ms,
        delta_row.scratch_p50_ms, delta_row.speedup,
        static_cast<unsigned long long>(delta_row.plans_invalidated),
        static_cast<unsigned long long>(delta_row.plans_migrated));
  }

  // ---- Phase 3: overload -------------------------------------------------
  OverloadRow over;
  over.threads = saturation * static_cast<int>(max_in_flight);
  over.max_in_flight = max_in_flight;
  over.queue_depth = queue_depth;
  over.deadline_ms = deadline_ms;
  {
    olite::obs::MetricsRegistry registry;
    ServingEngineOptions sopts;
    sopts.engine.metrics = &registry;
    sopts.admission.max_in_flight = max_in_flight;
    sopts.admission.max_queue_depth = queue_depth;
    sopts.admission.max_queue_wait_ms = queue_wait_ms;
    sopts.admission.retry_after_ms = queue_wait_ms / 2;
    ServingEngine serving(*snap_a, sopts);
    olite::obs::Histogram& request_us =
        registry.histogram(olite::bench::kRequestUs);

    // Every admitted request now sleeps `latency_ms` per rdb execute, so
    // max_in_flight tokens saturate far below the closed-loop demand.
    olite::fault::Injector::Global().Arm(
        olite::fault::Site::kRdbExecute,
        {.latency_every = 1, .latency_ms = latency_ms});

    std::atomic<uint64_t> ok{0}, degraded{0}, shed{0}, failed{0};
    std::mutex mu;  // guards shed_max_ms
    double shed_max_ms = 0;
    std::vector<std::thread> pool;
    for (int t = 0; t < over.threads; ++t) {
      pool.emplace_back([&, t] {
        Rng rng(seed * 7919 + static_cast<uint64_t>(t));
        olite::obda::AnswerOptions aopts;
        aopts.deadline_ms = deadline_ms;
        aopts.allow_degraded = true;  // deadline expiry degrades, not fails
        for (uint64_t i = 0; i < overload_requests; ++i) {
          size_t pick = static_cast<size_t>(
              rng.Uniform(workload.queries.size()));
          olite::obda::AnswerStats stats;
          Stopwatch sw;
          auto r = serving.Answer(workload.queries[pick], aopts, &stats);
          double elapsed = sw.ElapsedMillis();
          request_us.Record(elapsed * 1000.0);
          if (r.ok()) {
            ok.fetch_add(1, std::memory_order_relaxed);
            if (stats.degradation.degraded()) {
              degraded.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (stats.serve.shed) {
            shed.fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(mu);
            if (elapsed > shed_max_ms) shed_max_ms = elapsed;
          } else {
            failed.fetch_add(1, std::memory_order_relaxed);
            std::fprintf(stderr, "unexpected failure: %s\n",
                         r.status().ToString().c_str());
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    olite::fault::Injector::Global().DisarmAll();

    auto adm = serving.admission();
    over.requests = static_cast<uint64_t>(over.threads) * overload_requests;
    over.ok = ok.load();
    over.degraded = degraded.load();
    over.shed = shed.load();
    over.failed = failed.load();
    over.queued = adm.queued;
    over.in_flight_peak = adm.in_flight_peak;
    over.shed_rate = over.requests > 0
                         ? static_cast<double>(over.shed) /
                               static_cast<double>(over.requests)
                         : 0;
    over.p50_ms =
        olite::bench::QuantileMs(registry, olite::bench::kRequestUs, 0.50);
    over.p99_ms =
        olite::bench::QuantileMs(registry, olite::bench::kRequestUs, 0.99);
    over.shed_max_ms = shed_max_ms;
    over.shed_bound_ms = 1.1 * deadline_ms + shed_slack_ms;
  }
  std::printf("overload: %llu requests at %dx saturation, ok %llu "
              "(degraded %llu), shed %llu (rate %.2f), failed %llu, "
              "peak in-flight %zu/%zu, p99 %.1f ms, slowest shed %.1f ms "
              "(bound %.1f ms)\n",
              static_cast<unsigned long long>(over.requests), saturation,
              static_cast<unsigned long long>(over.ok),
              static_cast<unsigned long long>(over.degraded),
              static_cast<unsigned long long>(over.shed), over.shed_rate,
              static_cast<unsigned long long>(over.failed),
              over.in_flight_peak, over.max_in_flight, over.p99_ms,
              over.shed_max_ms, over.shed_bound_ms);

  std::vector<olite::bench::JsonObject> rows;
  rows.push_back(olite::bench::JsonObject()
                     .Add("phase", "churn")
                     .Add("threads", churn.threads)
                     .Add("answers", churn.answers)
                     .Add("swaps", churn.swaps)
                     .Add("errors", churn.errors)
                     .Add("discrepancies", churn.discrepancies)
                     .Add("final_epoch", churn.final_epoch)
                     .Add("qps", churn.qps)
                     .Add("hit_rate", churn.hit_rate)
                     .Add("answer_p50_ms", churn.answer_p50_ms)
                     .Add("answer_p99_ms", churn.answer_p99_ms)
                     .Add("swap_p50_us", churn.swap_p50_us)
                     .Add("swap_p99_us", churn.swap_p99_us)
                     .Add("refresh_p50_ms", churn.refresh_p50_ms)
                     .Add("refresh_max_ms", churn.refresh_max_ms));
  if (run_delta) {
    const DeltaRow& d = delta_row;
    rows.push_back(olite::bench::JsonObject()
                       .Add("phase", "delta")
                       .Add("mode", d.mode)
                       .Add("threads", d.threads)
                       .Add("generations", d.generations)
                       .Add("answers", d.answers)
                       .Add("errors", d.errors)
                       .Add("discrepancies", d.discrepancies)
                       .Add("final_epoch", d.final_epoch)
                       .Add("delta_applied", d.applied)
                       .Add("delta_fallback_scratch", d.fallbacks)
                       .Add("delta_patched_nodes", d.patched_nodes)
                       .Add("delta_reused_stages", d.reused_stages)
                       .Add("delta_reused_views", d.reused_views)
                       .Add("delta_plans_invalidated", d.plans_invalidated)
                       .Add("delta_plans_migrated", d.plans_migrated)
                       .Add("refresh_p50_ms", d.refresh_p50_ms)
                       .Add("refresh_max_ms", d.refresh_max_ms)
                       .Add("refresh_us_p50", d.refresh_us_p50)
                       .Add("refresh_us_p99", d.refresh_us_p99)
                       .Add("scratch_p50_ms", d.scratch_p50_ms)
                       .Add("speedup", d.speedup));
  }
  rows.push_back(olite::bench::JsonObject()
                     .Add("phase", "overload")
                     .Add("threads", over.threads)
                     .Add("max_in_flight", over.max_in_flight)
                     .Add("queue_depth", over.queue_depth)
                     .Add("deadline_ms", over.deadline_ms)
                     .Add("requests", over.requests)
                     .Add("ok", over.ok)
                     .Add("degraded", over.degraded)
                     .Add("shed", over.shed)
                     .Add("failed", over.failed)
                     .Add("queued", over.queued)
                     .Add("in_flight_peak", over.in_flight_peak)
                     .Add("shed_rate", over.shed_rate)
                     .Add("p50_ms", over.p50_ms)
                     .Add("p99_ms", over.p99_ms)
                     .Add("shed_max_ms", over.shed_max_ms)
                     .Add("shed_bound_ms", over.shed_bound_ms));
  if (!olite::bench::WriteRows(out_path, std::move(rows))) return 1;

  // ---- Gates -------------------------------------------------------------
  bool gate_failed = false;
  auto gate = [&](bool pass, const char* what) {
    if (!pass) {
      std::fprintf(stderr, "GATE: %s\n", what);
      gate_failed = true;
    }
  };
  gate(churn.errors == 0, "answers failed during churn (downtime)");
  gate(churn.discrepancies == 0,
       "answers matched neither snapshot during churn");
  gate(churn.final_epoch == swaps + 1, "unexpected final epoch");
  if (delta_gate) {
    gate(delta_row.errors == 0, "answers failed during delta churn");
    gate(delta_row.discrepancies == 0,
         "delta refresh answers diverged from the scratch oracle");
    gate(delta_row.final_epoch == delta_count + 1,
         "unexpected final epoch after delta churn");
    gate(delta_row.applied == delta_count,
         "snapshot.delta_applied does not count every refresh");
    gate(delta_row.fallbacks >= 1,
         "the planted large delta never fell back to scratch");
    gate(delta_row.fallbacks < delta_row.generations,
         "every delta fell back — the incremental path never ran");
    gate(delta_row.speedup >= delta_min_speedup,
         "p50 refresh is not enough faster than p50 scratch compile");
  }
  gate(over.failed == 0,
       "overload produced a status other than ok/shed");
  gate(over.shed > 0, "overload at saturation never shed");
  gate(over.in_flight_peak <= max_in_flight,
       "in-flight exceeded max_in_flight");
  gate(over.shed_max_ms <= over.shed_bound_ms,
       "a shed response exceeded 1.1x deadline + slack");
  if (gate_failed) return 1;
  std::printf("all gates passed\n");
  return 0;
}
