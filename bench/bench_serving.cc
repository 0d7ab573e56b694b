// Serving-path throughput: the compile-once/serve-many split under a
// repeated-query workload (the regime the plan cache targets — a fixed
// application asking the same parametric questions over and over).
//
// One synthetic OBDA workload (benchgen) supplies a pool of distinct
// queries; the request stream picks from the pool with a Zipf-ish skew so
// a few queries dominate, as in real serving. For every rewriting mode ×
// thread count × cache on/off the harness answers `--requests` requests
// against ONE shared QueryEngine and records throughput, the plan-cache
// hit rate, and per-request latency percentiles.
//
// Each cell owns a scoped obs::MetricsRegistry: the engine records its
// per-stage histograms there, the harness records per-request wall-clock
// into `bench.request_us` in the same registry, and the JSON row's
// percentiles are read back from those histograms — no latency vectors.
//
// Flags: --requests=<n>     requests per cell            (default 2000)
//        --threads=<list>   thread counts to sweep       (default 1,4,8)
//        --queries=<n>      distinct queries in the pool (default 16)
//        --skew=<z>         Zipf skew of the stream      (default 1.5)
//        --seed=<n>         workload + stream seed       (default 1)
//        --engine=<name>    rdb evaluator: columnar, nested_loop or
//                           default (env-resolved)       (default default)
//        --metrics=on|off   engine-side instrumentation  (default on)
//        --print-metrics    dump each cell's registry as text
//        --overhead-gate-pct=<f>  run the instrumentation-overhead gate
//                           instead of the sweep: interleaved metrics-off /
//                           metrics-on pairs of one cell; fail when the
//                           median per-pair ratio of client CPU time per
//                           request exceeds 1 + <f>/100
//        --out=<path>       machine-readable results
//                           (default BENCH_serving.json)
//
// The JSON output is a flat array of rows
//   {"mode", "engine", "threads", "cache", "metrics", "requests", "qps",
//    "hit_rate", "p50_ms", "p95_ms", "p99_ms", "total_ms", "eval_batches",
//    "eval_rows_scanned", "shared_node_hits", "join_reorders",
//    "stages": {<stage>: {"count", "p50_us", "p95_us", "p99_us"}, …}}
// where "stages" covers rewrite/minimize/unfold/prepare/execute plus the
// whole-call ("answer") and per-union-block ("block") histograms, and
// every row ends with the build stamp (bench_util.h).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchgen/workload.h"
#include "common/rng.h"
#include "obda/compiled_ontology.h"
#include "obda/query_engine.h"
#include "obs/metrics.h"
#include "query/rewriter.h"

namespace {

using olite::Rng;
using olite::bench::JsonObject;
using olite::obda::CompiledOntology;
using olite::obda::QueryEngine;
using olite::obda::QueryEngineOptions;
using olite::query::RewriteMode;

struct CellConfig {
  RewriteMode mode;
  olite::rdb::EvalEngine engine_choice;
  const char* engine_name;
  int threads;
  bool cache_on;
  bool metrics_on;
  uint64_t requests;
  double skew;
  uint64_t seed;
};

struct Measured {
  olite::bench::ClosedLoopTotals totals;
  double qps = 0;
  double hit_rate = 0;
  JsonObject row;
};

// One measured cell: `requests` answers split across `threads` against a
// fresh engine. The harness side of the timing (the bench.request_us
// histogram) is identical whether engine metrics are on or off, so
// metrics-on vs metrics-off rows isolate the instrumentation overhead.
Measured RunCell(const std::shared_ptr<const CompiledOntology>& compiled,
                 const olite::benchgen::Workload& workload,
                 const CellConfig& cell,
                 olite::obs::MetricsRegistry* registry) {
  QueryEngineOptions eopts;
  if (!cell.cache_on) eopts.plan_cache_capacity = 0;
  eopts.enable_metrics = cell.metrics_on;
  eopts.metrics = registry;
  eopts.engine = cell.engine_choice;
  QueryEngine engine(compiled, eopts);

  // Zipf-ish stream per client: rank 0 dominates, long tail follows.
  std::vector<Rng> rngs;
  for (int t = 0; t < cell.threads; ++t) {
    rngs.emplace_back(cell.seed * 7919 + static_cast<uint64_t>(t));
  }
  auto run = olite::bench::RunClosedLoop(
      engine, cell.threads, cell.requests, registry,
      [&](int t, uint64_t) -> const olite::query::ConjunctiveQuery& {
        return workload.queries[rngs[t].SkewedPick(workload.queries.size(),
                                                   cell.skew)];
      });
  if (!run.ok()) {
    std::fprintf(stderr, "answer failed: %s\n",
                 run.status().ToString().c_str());
    std::exit(1);
  }

  Measured m;
  m.totals = *run;
  const olite::bench::ClosedLoopTotals& t = m.totals;
  auto metrics = engine.cache_metrics();
  uint64_t lookups = metrics.hits + metrics.misses;
  m.qps = t.wall_ms > 0 ? 1000.0 * static_cast<double>(t.requests) / t.wall_ms
                        : 0;
  m.hit_rate = lookups > 0 ? static_cast<double>(metrics.hits) /
                                 static_cast<double>(lookups)
                           : 0;
  m.row.Add("mode", RewriteModeName(cell.mode))
      .Add("engine", cell.engine_name)
      .Add("threads", cell.threads)
      .Add("cache", cell.cache_on)
      .Add("metrics", cell.metrics_on)
      .Add("requests", t.requests)
      .Add("qps", m.qps)
      .Add("hit_rate", m.hit_rate)
      .Add("p50_ms", t.p50_ms)
      .Add("p95_ms", t.p95_ms)
      .Add("p99_ms", t.p99_ms)
      .Add("total_ms", t.wall_ms)
      .Add("eval_batches", t.eval.batches)
      .Add("eval_rows_scanned", t.eval.rows_scanned)
      .Add("shared_node_hits", t.eval.shared_node_hits)
      .Add("join_reorders", t.eval.join_reorders)
      .Add("stages", olite::bench::StagePercentiles(*registry));
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  olite::bench::Flags flags(argc, argv);
  const uint64_t requests = flags.Int<uint64_t>("requests", 2000, 1);
  const std::vector<int> thread_counts =
      flags.List<int>("threads", {1, 4, 8}, 1);
  const uint32_t num_queries = flags.Int<uint32_t>("queries", 16, 1);
  const double skew = flags.Double("skew", 1.5);
  const uint64_t seed = flags.Int<uint64_t>("seed", 1);
  const olite::rdb::EvalEngine engine_choice = flags.Engine("engine");
  const bool metrics_on = flags.String("metrics", "on", {"on", "off"}) == "on";
  const bool print_metrics = flags.Has("print-metrics");
  const double overhead_gate_pct = flags.Double("overhead-gate-pct", 0);
  const std::string out_path = flags.String("out", "BENCH_serving.json");
  if (!flags.Finish()) return 1;

  olite::benchgen::WorkloadConfig config;
  config.ontology.name = "serving";
  config.ontology.seed = seed;
  config.ontology.num_concepts = 60;
  config.ontology.num_roles = 6;
  config.ontology.num_attributes = 2;
  config.ontology.num_roots = 4;
  config.ontology.avg_branching = 3.0;
  config.ontology.domain_range_fraction = 0.3;
  config.ontology.unqualified_exists_per_concept = 0.2;
  config.seed = seed;
  config.num_individuals = 120;
  config.num_concept_assertions = 240;
  config.num_role_assertions = 240;
  config.num_attribute_assertions = 60;
  config.num_queries = num_queries;
  config.max_atoms_per_query = 3;
  olite::benchgen::Workload workload =
      olite::benchgen::GenerateWorkload(config);

  const char* engine_name =
      olite::rdb::EvalEngineName(olite::rdb::ResolveEvalEngine(engine_choice));
  std::vector<JsonObject> rows;
  std::printf("engine: %s\n", engine_name);

  if (overhead_gate_pct > 0) {
    // Instrumentation-overhead gate: one representative cell (classified
    // mode, cache on, first thread count) run in interleaved metrics-off /
    // metrics-on pairs, the order alternating per pair so drift hits both
    // sides alike. The reading is client CPU time per request, not wall
    // clock: on a shared host a descheduled client inflates wall time by
    // far more than the instruments cost, and CPU time does not count it.
    // Each pair gives one on/off ratio and the gate reads their median.
    // One pair's ratio still spreads by about 6% on a shared 4-vCPU host;
    // the median of 51 pairs still moved by ±1.5%, hence 101.
    auto compiled = CompiledOntology::Compile(workload.ontology,
                                              workload.mappings,
                                              workload.database,
                                              RewriteMode::kClassified);
    if (!compiled.ok()) {
      std::fprintf(stderr, "compile failed: %s\n",
                   compiled.status().ToString().c_str());
      return 1;
    }
    CellConfig cell;
    cell.mode = RewriteMode::kClassified;
    cell.engine_choice = engine_choice;
    cell.engine_name = engine_name;
    cell.threads = thread_counts.front();
    cell.cache_on = true;
    cell.requests = requests;
    cell.skew = skew;
    cell.seed = seed;
    {
      // Untimed warmup: page in the tables and let the allocator settle,
      // so pair 0 is not structurally slower than the rest.
      cell.metrics_on = false;
      olite::obs::MetricsRegistry registry;
      RunCell(*compiled, workload, cell, &registry);
    }
    constexpr int kPairs = 101;
    std::vector<double> ratios;
    for (int pair = 0; pair < kPairs; ++pair) {
      double cpu_us[2] = {0, 0};  // indexed by metrics on
      for (bool on : {pair % 2 == 1, pair % 2 == 0}) {
        cell.metrics_on = on;
        olite::obs::MetricsRegistry registry;
        Measured m = RunCell(*compiled, workload, cell, &registry);
        cpu_us[on] = 1000.0 * m.totals.cpu_ms /
                     static_cast<double>(m.totals.requests);
        rows.push_back(std::move(m.row));
        std::printf("gate pair %d metrics=%-3s %10.1f qps %8.3f cpu_us/req\n",
                    pair, on ? "on" : "off", m.qps, cpu_us[on]);
      }
      ratios.push_back(cpu_us[1] / cpu_us[0]);
    }
    std::sort(ratios.begin(), ratios.end());
    const double overhead_pct = 100.0 * (ratios[kPairs / 2] - 1.0);
    std::printf("metrics overhead: %.2f%% (median of %d on/off CPU-per-"
                "request ratios, gate %.2f%%)\n",
                overhead_pct, kPairs, overhead_gate_pct);
    if (!olite::bench::WriteRows(out_path, std::move(rows))) return 1;
    if (overhead_pct > overhead_gate_pct) {
      std::fprintf(stderr, "GATE: metrics overhead %.2f%% > %.2f%%\n",
                   overhead_pct, overhead_gate_pct);
      return 1;
    }
    std::printf("overhead gate passed\n");
    return 0;
  }

  std::printf("%-12s %8s %6s %12s %10s %10s %10s %10s %10s\n", "mode",
              "threads", "cache", "qps", "hit_rate", "p50_ms", "p99_ms",
              "shared_hit", "reorders");
  for (RewriteMode mode : {RewriteMode::kPerfectRef, RewriteMode::kClassified}) {
    auto compiled = CompiledOntology::Compile(workload.ontology,
                                              workload.mappings,
                                              workload.database, mode);
    if (!compiled.ok()) {
      std::fprintf(stderr, "compile failed: %s\n",
                   compiled.status().ToString().c_str());
      return 1;
    }
    for (int threads : thread_counts) {
      for (bool cache_on : {false, true}) {
        CellConfig cell;
        cell.mode = mode;
        cell.engine_choice = engine_choice;
        cell.engine_name = engine_name;
        cell.threads = threads;
        cell.cache_on = cache_on;
        cell.metrics_on = metrics_on;
        cell.requests = requests;
        cell.skew = skew;
        cell.seed = seed;
        olite::obs::MetricsRegistry registry;
        Measured m = RunCell(*compiled, workload, cell, &registry);
        std::printf("%-12s %8d %6s %12.1f %10.4f %10.4f %10.4f %10llu "
                    "%10llu\n",
                    RewriteModeName(mode), threads, cache_on ? "on" : "off",
                    m.qps, m.hit_rate, m.totals.p50_ms, m.totals.p99_ms,
                    static_cast<unsigned long long>(
                        m.totals.eval.shared_node_hits),
                    static_cast<unsigned long long>(
                        m.totals.eval.join_reorders));
        if (print_metrics) {
          std::printf("--- metrics (%s, %d threads, cache %s) ---\n%s",
                      RewriteModeName(mode), threads,
                      cache_on ? "on" : "off", registry.ToText().c_str());
        }
        rows.push_back(std::move(m.row));
      }
    }
  }
  return olite::bench::WriteRows(out_path, std::move(rows)) ? 0 : 1;
}
