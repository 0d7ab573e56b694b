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
//                           instead of the sweep: alternate metrics-off /
//                           metrics-on reps of one cell and fail when the
//                           best-of qps drop exceeds <f> percent
//        --out=<path>       machine-readable results
//                           (default BENCH_serving.json)
//
// The JSON output is a flat array of rows
//   {"mode", "engine", "threads", "cache", "metrics", "requests", "qps",
//    "hit_rate", "p50_ms", "p95_ms", "p99_ms", "total_ms", "eval_batches",
//    "eval_rows_scanned", "shared_node_hits", "join_reorders",
//    "stages": {<stage>: {"count", "p50_us", "p95_us", "p99_us"}, …}}
// where "stages" covers rewrite/minimize/unfold/prepare/execute plus the
// whole-call ("answer") and per-union-block ("block") histograms.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "benchgen/workload.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "obda/compiled_ontology.h"
#include "obda/query_engine.h"
#include "obs/metrics.h"
#include "query/rewriter.h"

namespace {

using olite::Rng;
using olite::Stopwatch;
using olite::obda::CompiledOntology;
using olite::obda::QueryEngine;
using olite::obda::QueryEngineOptions;
using olite::query::RewriteMode;

struct JsonRow {
  std::string mode;
  std::string engine;
  int threads = 1;
  bool cache = true;
  bool metrics = true;
  uint64_t requests = 0;
  double qps = 0;
  double hit_rate = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double total_ms = 0;
  uint64_t eval_batches = 0;
  uint64_t eval_rows_scanned = 0;
  uint64_t shared_node_hits = 0;
  uint64_t join_reorders = 0;
  /// Per-stage percentile object rendered from the cell's registry.
  std::string stages = "{}";
};

void WriteJson(const std::string& path, const std::vector<JsonRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    std::fprintf(f,
                 "  {\"mode\": \"%s\", \"engine\": \"%s\", \"threads\": %d, "
                 "\"cache\": %s, \"metrics\": %s, "
                 "\"requests\": %llu, \"qps\": %.1f, \"hit_rate\": %.4f, "
                 "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, "
                 "\"total_ms\": %.2f, "
                 "\"eval_batches\": %llu, \"eval_rows_scanned\": %llu, "
                 "\"shared_node_hits\": %llu, \"join_reorders\": %llu, "
                 "\"stages\": %s}%s\n",
                 r.mode.c_str(), r.engine.c_str(), r.threads,
                 r.cache ? "true" : "false", r.metrics ? "true" : "false",
                 static_cast<unsigned long long>(r.requests), r.qps,
                 r.hit_rate, r.p50_ms, r.p95_ms, r.p99_ms, r.total_ms,
                 static_cast<unsigned long long>(r.eval_batches),
                 static_cast<unsigned long long>(r.eval_rows_scanned),
                 static_cast<unsigned long long>(r.shared_node_hits),
                 static_cast<unsigned long long>(r.join_reorders),
                 r.stages.c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
}

olite::rdb::EvalEngine ParseEngine(const char* name) {
  if (std::strcmp(name, "columnar") == 0) {
    return olite::rdb::EvalEngine::kColumnar;
  }
  if (std::strcmp(name, "nested_loop") == 0) {
    return olite::rdb::EvalEngine::kNestedLoop;
  }
  if (std::strcmp(name, "default") != 0) {
    std::fprintf(stderr, "unknown engine '%s', using default\n", name);
  }
  return olite::rdb::EvalEngine::kDefault;
}

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

// One measured cell: `requests` answers split across `threads` against a
// fresh engine. The harness side of the timing (the bench.request_us
// histogram) is identical whether engine metrics are on or off, so
// metrics-on vs metrics-off rows isolate the instrumentation overhead.
JsonRow RunCell(const std::shared_ptr<const CompiledOntology>& compiled,
                const olite::benchgen::Workload& workload,
                const CellConfig& cell, olite::obs::MetricsRegistry* registry) {
  QueryEngineOptions eopts;
  if (!cell.cache_on) eopts.plan_cache_capacity = 0;
  eopts.enable_metrics = cell.metrics_on;
  eopts.metrics = registry;
  eopts.engine = cell.engine_choice;
  QueryEngine engine(compiled, eopts);

  olite::obs::Histogram& request_us =
      registry->histogram(olite::bench::kRequestUs);
  std::vector<olite::rdb::EvalStats> eval_sums(cell.threads);
  uint64_t per_thread = cell.requests / static_cast<uint64_t>(cell.threads);
  Stopwatch wall;
  std::vector<std::thread> pool;
  for (int t = 0; t < cell.threads; ++t) {
    pool.emplace_back([&, t] {
      // Zipf-ish stream: rank 0 dominates, long tail follows.
      Rng rng(cell.seed * 7919 + static_cast<uint64_t>(t));
      for (uint64_t i = 0; i < per_thread; ++i) {
        size_t pick = static_cast<size_t>(
            rng.SkewedPick(workload.queries.size(), cell.skew));
        Stopwatch sw;
        olite::obda::AnswerStats astats;
        auto r = engine.Answer(workload.queries[pick], &astats);
        request_us.Record(sw.ElapsedMicros());
        if (!r.ok()) {
          std::fprintf(stderr, "answer failed: %s\n",
                       r.status().ToString().c_str());
          std::exit(1);
        }
        eval_sums[t].batches += astats.eval.batches;
        eval_sums[t].rows_scanned += astats.eval.rows_scanned;
        eval_sums[t].shared_nodes += astats.eval.shared_nodes;
        eval_sums[t].shared_node_hits += astats.eval.shared_node_hits;
        eval_sums[t].join_reorders += astats.eval.join_reorders;
      }
    });
  }
  for (auto& th : pool) th.join();
  double total_ms = wall.ElapsedMillis();
  olite::rdb::EvalStats eval_sum;
  for (const auto& s : eval_sums) {
    eval_sum.batches += s.batches;
    eval_sum.rows_scanned += s.rows_scanned;
    eval_sum.shared_nodes += s.shared_nodes;
    eval_sum.shared_node_hits += s.shared_node_hits;
    eval_sum.join_reorders += s.join_reorders;
  }

  auto metrics = engine.cache_metrics();
  uint64_t lookups = metrics.hits + metrics.misses;
  uint64_t total_requests =
      per_thread * static_cast<uint64_t>(cell.threads);

  JsonRow row;
  row.mode = RewriteModeName(cell.mode);
  row.engine = cell.engine_name;
  row.threads = cell.threads;
  row.cache = cell.cache_on;
  row.metrics = cell.metrics_on;
  row.requests = total_requests;
  row.qps = total_ms > 0
                ? 1000.0 * static_cast<double>(total_requests) / total_ms
                : 0;
  row.hit_rate = lookups > 0 ? static_cast<double>(metrics.hits) /
                                   static_cast<double>(lookups)
                             : 0;
  row.p50_ms = olite::bench::QuantileMs(*registry, olite::bench::kRequestUs,
                                        0.50);
  row.p95_ms = olite::bench::QuantileMs(*registry, olite::bench::kRequestUs,
                                        0.95);
  row.p99_ms = olite::bench::QuantileMs(*registry, olite::bench::kRequestUs,
                                        0.99);
  row.total_ms = total_ms;
  row.eval_batches = eval_sum.batches;
  row.eval_rows_scanned = eval_sum.rows_scanned;
  row.shared_node_hits = eval_sum.shared_node_hits;
  row.join_reorders = eval_sum.join_reorders;
  row.stages = olite::bench::StagePercentilesJson(*registry);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t requests = 2000;
  std::vector<int> thread_counts = {1, 4, 8};
  uint32_t num_queries = 16;
  double skew = 1.5;
  uint64_t seed = 1;
  olite::rdb::EvalEngine engine_choice = olite::rdb::EvalEngine::kDefault;
  bool metrics_on = true;
  bool print_metrics = false;
  double overhead_gate_pct = 0;
  std::string out_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      requests = std::strtoull(argv[i] + 11, nullptr, 10);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      thread_counts = olite::bench::ParseIntList(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--queries=", 10) == 0) {
      num_queries = static_cast<uint32_t>(std::atoi(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--skew=", 7) == 0) {
      skew = std::atof(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--engine=", 9) == 0) {
      engine_choice = ParseEngine(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      metrics_on = std::strcmp(argv[i] + 10, "off") != 0;
    } else if (std::strcmp(argv[i], "--print-metrics") == 0) {
      print_metrics = true;
    } else if (std::strncmp(argv[i], "--overhead-gate-pct=", 20) == 0) {
      overhead_gate_pct = std::atof(argv[i] + 20);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }

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
  std::vector<JsonRow> rows;
  std::printf("engine: %s\n", engine_name);

  if (overhead_gate_pct > 0) {
    // Instrumentation-overhead gate: one representative cell (classified
    // mode, cache on, first thread count), run three times each with
    // metrics off and on, interleaved so frequency scaling and cache
    // warmth hit both sides alike. Best-of comparison — the gate asks
    // "what does instrumentation cost at peak", not "how noisy is the
    // machine".
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
    cell.threads = thread_counts.empty() ? 1 : thread_counts.front();
    cell.cache_on = true;
    cell.requests = requests;
    cell.skew = skew;
    cell.seed = seed;
    {
      // Untimed warmup: page in the tables and let the allocator settle,
      // so rep 0 is not structurally slower than the rest.
      cell.metrics_on = false;
      olite::obs::MetricsRegistry registry;
      RunCell(*compiled, workload, cell, &registry);
    }
    double best_off = 0;
    double best_on = 0;
    for (int rep = 0; rep < 5; ++rep) {
      for (bool on : {false, true}) {
        cell.metrics_on = on;
        olite::obs::MetricsRegistry registry;
        JsonRow row = RunCell(*compiled, workload, cell, &registry);
        double& best = on ? best_on : best_off;
        if (row.qps > best) best = row.qps;
        rows.push_back(row);
        std::printf("gate rep %d metrics=%-3s %10.1f qps\n", rep,
                    on ? "on" : "off", row.qps);
      }
    }
    double overhead_pct =
        best_off > 0 ? 100.0 * (best_off - best_on) / best_off : 0;
    std::printf("metrics overhead: %.2f%% (off %.1f qps, on %.1f qps, "
                "gate %.2f%%)\n",
                overhead_pct, best_off, best_on, overhead_gate_pct);
    WriteJson(out_path, rows);
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
        JsonRow row = RunCell(*compiled, workload, cell, &registry);
        rows.push_back(row);
        std::printf("%-12s %8d %6s %12.1f %10.4f %10.4f %10.4f %10llu "
                    "%10llu\n",
                    row.mode.c_str(), row.threads, row.cache ? "on" : "off",
                    row.qps, row.hit_rate, row.p50_ms, row.p99_ms,
                    static_cast<unsigned long long>(row.shared_node_hits),
                    static_cast<unsigned long long>(row.join_reorders));
        if (print_metrics) {
          std::printf("--- metrics (%s, %d threads, cache %s) ---\n%s",
                      row.mode.c_str(), row.threads,
                      row.cache ? "on" : "off",
                      registry.ToText().c_str());
        }
      }
    }
  }
  WriteJson(out_path, rows);
  return 0;
}
