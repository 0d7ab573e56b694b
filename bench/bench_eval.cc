// Evaluator benchmark: columnar vs nested-loop over UCQ workloads whose
// union blocks share join prefixes — the regime the shared-subplan DAG
// targets (§4: one rewritten query, many structurally similar disjuncts).
//
// The hand-built OBDA instance expands a 3-atom join query
//     q(x, y) :- A(x), rel(x, y), B(y)
// through two `--fan`-wide concept hierarchies, so the unfolded SQL UCQ
// has fan×fan blocks that all join src ⋈ edge ⋈ dst and differ only in
// their constant filters; every group of `fan` blocks shares the
// (src ⋈ edge) prefix exactly. Four workloads bracket the space:
//
//   shared_prefix   fan×fan blocks with shared join prefixes (the target)
//   selective_join  a single selective 3-table join (raw join speed)
//   scan_union      a fan-wide union of filtered scans (no joins)
//   benchgen_mix    a seeded random benchgen workload (the conformance
//                   generator's multi-join CQ pool, answered round-robin)
//
// Each workload is compiled once; one QueryEngine per evaluator serves it
// from that shared snapshot. For every workload × engine × thread count
// the harness answers `--requests` requests on that evaluator's engine
// (plan cache on, so the shared-subplan programs are compiled once) and
// records throughput plus the evaluator counters from AnswerStats. Before
// timing, both engines answer every pooled query once — which also warms
// both plan caches — and the sorted answer sets are compared;
// `discrepancies` must be 0 in every row.
//
// Flags: --requests=<n>   requests per cell               (default 24)
//        --threads=<list> thread counts to sweep          (default 1,4)
//        --fan=<n>        subclasses per hierarchy        (default 4)
//        --rows=<n>       entities in the source tables   (default 800)
//        --seed=<n>       benchgen workload seed          (default 1)
//        --out=<path>     machine-readable results (default BENCH_eval.json)
//
// The JSON output is a flat array of rows
//   {"workload", "engine", "threads", "requests", "total_ms", "qps",
//    "p50_ms", "p95_ms", "p99_ms",
//    "disjuncts", "batches", "rows_scanned", "shared_nodes",
//    "shared_node_hits", "prefix_hit_rate", "join_reorders",
//    "discrepancies", "speedup_vs_nested_loop",
//    "stages": {<stage>: {"count", "p50_us", "p95_us", "p99_us"}, …}}
// where speedup_vs_nested_loop is filled on columnar rows (same workload
// and thread count, identical request streams). Latency percentiles come
// from the cell's obs registry (bench.request_us plus the engine's
// per-stage histograms; the registry is reset between cells). The binary
// exits non-zero when the shared_prefix acceptance gates fail (>=8
// disjuncts, shared_node_hits > 0, >=2x speedup) or any engines disagree.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "benchgen/workload.h"
#include "common/stopwatch.h"
#include "dllite/ontology.h"
#include "mapping/mapping.h"
#include "obda/compiled_ontology.h"
#include "obda/query_engine.h"
#include "obs/metrics.h"
#include "query/cq.h"
#include "query/rewriter.h"

namespace {

using olite::Stopwatch;
using olite::dllite::Ontology;
using olite::obda::AnswerTuple;
using olite::obda::CompiledOntology;
using olite::obda::QueryEngine;
using olite::query::RewriteMode;
using Snapshot = std::shared_ptr<const CompiledOntology>;

struct JsonRow {
  std::string workload;
  std::string engine;
  int threads = 1;
  uint64_t requests = 0;
  double total_ms = 0;
  double qps = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  uint64_t disjuncts = 0;
  olite::rdb::EvalStats eval;
  double prefix_hit_rate = 0;
  uint64_t discrepancies = 0;
  double speedup = 0;  // vs nested_loop, columnar rows only
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
    std::fprintf(
        f,
        "  {\"workload\": \"%s\", \"engine\": \"%s\", \"threads\": %d, "
        "\"requests\": %llu, \"total_ms\": %.2f, \"qps\": %.1f, "
        "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, "
        "\"disjuncts\": %llu, \"batches\": %llu, \"rows_scanned\": %llu, "
        "\"shared_nodes\": %llu, \"shared_node_hits\": %llu, "
        "\"prefix_hit_rate\": %.4f, \"join_reorders\": %llu, "
        "\"discrepancies\": %llu, \"speedup_vs_nested_loop\": %.2f, "
        "\"stages\": %s}%s\n",
        r.workload.c_str(), r.engine.c_str(), r.threads,
        static_cast<unsigned long long>(r.requests), r.total_ms, r.qps,
        r.p50_ms, r.p95_ms, r.p99_ms,
        static_cast<unsigned long long>(r.disjuncts),
        static_cast<unsigned long long>(r.eval.batches),
        static_cast<unsigned long long>(r.eval.rows_scanned),
        static_cast<unsigned long long>(r.eval.shared_nodes),
        static_cast<unsigned long long>(r.eval.shared_node_hits),
        r.prefix_hit_rate,
        static_cast<unsigned long long>(r.eval.join_reorders),
        static_cast<unsigned long long>(r.discrepancies), r.speedup,
        r.stages.c_str(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
}

// The hand-built OBDA instance: concepts A and B, each with `fan` mapped
// subclasses filtering one shared table on a tag column, and a role `rel`
// mapped to the edge table. A and B themselves carry no mapping, so every
// unfolded block comes from a (A_i, B_j) subclass pair.
Snapshot MakeSnapshot(int fan, int rows) {
  Ontology onto;
  onto.DeclareRole("rel");
  onto.DeclareConcept("A");
  onto.DeclareConcept("B");
  for (int i = 0; i < fan; ++i) {
    onto.DeclareConcept("A" + std::to_string(i));
    onto.DeclareConcept("B" + std::to_string(i));
    (void)onto.AddAxiom("A" + std::to_string(i) + " <= A");
    (void)onto.AddAxiom("B" + std::to_string(i) + " <= B");
  }

  olite::rdb::Database db;
  using olite::rdb::Value;
  using olite::rdb::ValueType;
  (void)db.CreateTable({"src",
                        {{"id", ValueType::kString},
                         {"tag", ValueType::kString}}});
  (void)db.CreateTable({"dst",
                        {{"id", ValueType::kString},
                         {"tag", ValueType::kString}}});
  (void)db.CreateTable({"edge",
                        {{"s", ValueType::kString},
                         {"d", ValueType::kString}}});
  for (int k = 0; k < rows; ++k) {
    std::string e = "e" + std::to_string(k);
    (void)db.Insert("src", {Value::Str(e),
                            Value::Str("a" + std::to_string(k % fan))});
    (void)db.Insert("dst", {Value::Str(e),
                            Value::Str("b" + std::to_string((k / 3) % fan))});
    // Two outgoing edges per entity: a local ring plus a long hop, so
    // joins fan out without blowing up the result set.
    std::string n1 = "e" + std::to_string((k + 1) % rows);
    std::string n2 = "e" + std::to_string((k + 7) % rows);
    (void)db.Insert("edge", {Value::Str(e), Value::Str(n1)});
    (void)db.Insert("edge", {Value::Str(e), Value::Str(n2)});
  }

  olite::mapping::MappingSet mappings;
  auto concept_block = [](const std::string& table, const std::string& tag) {
    olite::rdb::SelectBlock block;
    block.from_tables = {table};
    block.select = {{0, "id"}};
    block.filters = {{{0, "tag"}, Value::Str(tag)}};
    return block;
  };
  for (int i = 0; i < fan; ++i) {
    (void)mappings.Add(olite::mapping::MappingAssertion::ForConcept(
        onto.vocab().FindConcept("A" + std::to_string(i)).value(),
        concept_block("src", "a" + std::to_string(i))));
    (void)mappings.Add(olite::mapping::MappingAssertion::ForConcept(
        onto.vocab().FindConcept("B" + std::to_string(i)).value(),
        concept_block("dst", "b" + std::to_string(i))));
  }
  olite::rdb::SelectBlock edge_block;
  edge_block.from_tables = {"edge"};
  edge_block.select = {{0, "s"}, {0, "d"}};
  (void)mappings.Add(olite::mapping::MappingAssertion::ForRole(
      onto.vocab().FindRole("rel").value(), edge_block));

  auto compiled =
      CompiledOntology::Compile(std::move(onto), std::move(mappings),
                                std::move(db), RewriteMode::kClassified);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 compiled.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(compiled).value();
}

// The random counterpart: the conformance generator's seeded workload —
// hierarchy-heavy TBox, multi-atom CQ pool — moved into a snapshot.
Snapshot MakeBenchgenSnapshot(
    uint64_t seed, uint32_t num_queries,
    std::vector<olite::query::ConjunctiveQuery>* pool) {
  olite::benchgen::WorkloadConfig config;
  config.ontology.name = "eval_mix";
  config.ontology.seed = seed;
  config.ontology.num_concepts = 60;
  config.ontology.num_roles = 6;
  config.ontology.num_attributes = 2;
  config.ontology.num_roots = 4;
  config.ontology.avg_branching = 3.0;
  config.ontology.domain_range_fraction = 0.3;
  config.ontology.unqualified_exists_per_concept = 0.2;
  config.seed = seed;
  config.num_individuals = 240;
  config.num_concept_assertions = 720;
  config.num_role_assertions = 720;
  config.num_attribute_assertions = 120;
  config.num_queries = num_queries;
  config.max_atoms_per_query = 3;
  olite::benchgen::Workload workload =
      olite::benchgen::GenerateWorkload(config);
  *pool = workload.queries;
  auto compiled = CompiledOntology::Compile(std::move(workload.ontology),
                                            std::move(workload.mappings),
                                            std::move(workload.database),
                                            RewriteMode::kClassified);
  if (!compiled.ok()) {
    std::fprintf(stderr, "benchgen compile failed: %s\n",
                 compiled.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(compiled).value();
}

std::vector<AnswerTuple> Sorted(std::vector<AnswerTuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

// Parses hand-written query texts against the snapshot's vocabulary.
std::vector<olite::query::ConjunctiveQuery> ParsePool(
    const CompiledOntology& snapshot,
    std::initializer_list<const char*> texts) {
  std::vector<olite::query::ConjunctiveQuery> pool;
  for (const char* text : texts) {
    auto cq = olite::query::ParseQuery(text, snapshot.ontology().vocab());
    if (!cq.ok()) {
      std::fprintf(stderr, "bad query %s: %s\n", text,
                   cq.status().ToString().c_str());
      std::exit(1);
    }
    pool.push_back(std::move(cq).value());
  }
  return pool;
}

constexpr olite::rdb::EvalEngine kEngines[] = {
    olite::rdb::EvalEngine::kNestedLoop,
    olite::rdb::EvalEngine::kColumnar,
};

/// One engine per evaluator, indexed like kEngines.
using Engines = std::array<std::unique_ptr<QueryEngine>, 2>;

// One engine per evaluator over `snapshot`. Both record into `registry`,
// the workload's own; RunCell resets it between cells so the exported
// percentiles stay per-cell.
Engines MakeEngines(const Snapshot& snapshot,
                    olite::obs::MetricsRegistry* registry) {
  Engines engines;
  for (size_t e = 0; e < engines.size(); ++e) {
    olite::obda::QueryEngineOptions opts;
    opts.metrics = registry;
    opts.engine = kEngines[e];
    engines[e] = std::make_unique<QueryEngine>(snapshot, opts);
  }
  return engines;
}

// Both engines answer every pooled query once, which stores each plan in
// both caches before the timed cells; sorted answer sets must match
// pairwise.
uint64_t CountDiscrepancies(
    const Engines& engines, const char* workload,
    const std::vector<olite::query::ConjunctiveQuery>& pool) {
  uint64_t discrepancies = 0;
  for (const olite::query::ConjunctiveQuery& query : pool) {
    std::vector<AnswerTuple> reference;
    for (size_t e = 0; e < engines.size(); ++e) {
      auto r = engines[e]->Answer(query);
      if (!r.ok()) {
        std::fprintf(stderr, "answer failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(1);
      }
      std::vector<AnswerTuple> got = Sorted(std::move(r).value());
      if (e == 0) {
        reference = std::move(got);
      } else if (got != reference) {
        ++discrepancies;
        std::fprintf(stderr, "engine disagreement on %s: %zu vs %zu rows\n",
                     workload, reference.size(), got.size());
      }
    }
  }
  return discrepancies;
}

// One timed cell: `requests` answers split across `threads`, round-robin
// over the query pool, aggregating the per-call evaluator counters.
JsonRow RunCell(const Engines& engines, size_t e, const char* workload,
                const std::vector<olite::query::ConjunctiveQuery>& pool,
                int threads, uint64_t requests, uint64_t discrepancies,
                olite::obs::MetricsRegistry* registry) {
  // Cells share one registry per workload; reset between cells so the
  // exported histograms cover exactly this cell.
  registry->Reset();
  olite::obs::Histogram& request_us =
      registry->histogram(olite::bench::kRequestUs);
  const QueryEngine& engine = *engines[e];
  uint64_t per_thread = requests / static_cast<uint64_t>(threads);
  if (per_thread == 0) per_thread = 1;

  std::vector<olite::rdb::EvalStats> eval_sums(threads);
  std::vector<uint64_t> disjuncts(threads, 0);
  Stopwatch wall;
  std::vector<std::thread> threads_pool;
  for (int t = 0; t < threads; ++t) {
    threads_pool.emplace_back([&, t] {
      for (uint64_t i = 0; i < per_thread; ++i) {
        const olite::query::ConjunctiveQuery& query =
            pool[(static_cast<uint64_t>(t) * per_thread + i) % pool.size()];
        Stopwatch sw;
        olite::obda::AnswerStats astats;
        auto r = engine.Answer(query, &astats);
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
        if (astats.rewrite.final_disjuncts > disjuncts[t]) {
          disjuncts[t] = astats.rewrite.final_disjuncts;
        }
      }
    });
  }
  for (auto& th : threads_pool) th.join();
  double total_ms = wall.ElapsedMillis();

  JsonRow row;
  row.workload = workload;
  row.engine = olite::rdb::EvalEngineName(kEngines[e]);
  row.threads = threads;
  row.requests = per_thread * static_cast<uint64_t>(threads);
  row.total_ms = total_ms;
  row.qps =
      total_ms > 0 ? 1000.0 * static_cast<double>(row.requests) / total_ms : 0;
  for (const auto& s : eval_sums) {
    row.eval.batches += s.batches;
    row.eval.rows_scanned += s.rows_scanned;
    row.eval.shared_nodes += s.shared_nodes;
    row.eval.shared_node_hits += s.shared_node_hits;
    row.eval.join_reorders += s.join_reorders;
  }
  for (uint64_t d : disjuncts) {
    if (d > row.disjuncts) row.disjuncts = d;
  }
  uint64_t prefix_lookups = row.eval.shared_nodes + row.eval.shared_node_hits;
  row.prefix_hit_rate =
      prefix_lookups > 0 ? static_cast<double>(row.eval.shared_node_hits) /
                               static_cast<double>(prefix_lookups)
                         : 0;
  row.discrepancies = discrepancies;
  row.p50_ms = olite::bench::QuantileMs(*registry, olite::bench::kRequestUs,
                                        0.50);
  row.p95_ms = olite::bench::QuantileMs(*registry, olite::bench::kRequestUs,
                                        0.95);
  row.p99_ms = olite::bench::QuantileMs(*registry, olite::bench::kRequestUs,
                                        0.99);
  row.stages = olite::bench::StagePercentilesJson(*registry);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t requests = 24;
  std::vector<int> thread_counts = {1, 4};
  int fan = 4;
  int rows = 800;
  uint64_t seed = 1;
  std::string out_path = "BENCH_eval.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      requests = std::strtoull(argv[i] + 11, nullptr, 10);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      thread_counts = olite::bench::ParseIntList(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--fan=", 6) == 0) {
      fan = std::atoi(argv[i] + 6);
    } else if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      rows = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  olite::obs::MetricsRegistry hand_registry;
  olite::obs::MetricsRegistry mix_registry;
  const Snapshot hand = MakeSnapshot(fan, rows);
  const Engines hand_engines = MakeEngines(hand, &hand_registry);
  std::vector<olite::query::ConjunctiveQuery> benchgen_pool;
  const Engines mix_engines = MakeEngines(
      MakeBenchgenSnapshot(seed, 12, &benchgen_pool), &mix_registry);

  const struct {
    const char* name;
    const Engines* engines;
    olite::obs::MetricsRegistry* registry;
    std::vector<olite::query::ConjunctiveQuery> pool;
  } kWorkloads[] = {
      {"shared_prefix", &hand_engines, &hand_registry,
       ParsePool(*hand, {"q(x, y) :- A(x), rel(x, y), B(y)"})},
      {"selective_join", &hand_engines, &hand_registry,
       ParsePool(*hand, {"q(x, y) :- A0(x), rel(x, y), B0(y)"})},
      {"scan_union", &hand_engines, &hand_registry,
       ParsePool(*hand, {"q(x) :- A(x)"})},
      {"benchgen_mix", &mix_engines, &mix_registry,
       std::move(benchgen_pool)},
  };

  std::vector<JsonRow> rows_out;
  // total_ms per (workload, threads) for the nested-loop baseline, so the
  // columnar row of the same cell can report its speedup.
  std::map<std::pair<std::string, int>, double> baseline_ms;
  std::printf("%-16s %-12s %8s %10s %12s %10s %10s %10s\n", "workload",
              "engine", "threads", "total_ms", "qps", "shared_hit",
              "hit_rate", "speedup");
  bool gates_ok = true;
  for (const auto& workload : kWorkloads) {
    uint64_t discrepancies =
        CountDiscrepancies(*workload.engines, workload.name, workload.pool);
    for (int threads : thread_counts) {
      for (size_t e = 0; e < workload.engines->size(); ++e) {
        const olite::rdb::EvalEngine engine = kEngines[e];
        JsonRow row = RunCell(*workload.engines, e, workload.name,
                              workload.pool, threads, requests,
                              discrepancies, workload.registry);
        auto cell = std::make_pair(row.workload, threads);
        if (engine == olite::rdb::EvalEngine::kNestedLoop) {
          baseline_ms[cell] = row.total_ms;
        } else if (baseline_ms.count(cell) != 0 && row.total_ms > 0) {
          row.speedup = baseline_ms[cell] / row.total_ms;
        }
        rows_out.push_back(row);
        std::printf("%-16s %-12s %8d %10.2f %12.1f %10llu %10.4f %10.2f\n",
                    row.workload.c_str(), row.engine.c_str(), row.threads,
                    row.total_ms, row.qps,
                    static_cast<unsigned long long>(row.eval.shared_node_hits),
                    row.prefix_hit_rate, row.speedup);

        // Acceptance gates for the headline workload: the shared-prefix
        // union must actually share (hits > 0) and the columnar engine
        // must win by >=2x.
        if (row.workload == "shared_prefix" &&
            engine == olite::rdb::EvalEngine::kColumnar) {
          if (row.disjuncts < 8) {
            std::fprintf(stderr, "GATE: expected >=8 disjuncts, got %llu\n",
                         static_cast<unsigned long long>(row.disjuncts));
            gates_ok = false;
          }
          if (row.eval.shared_node_hits == 0) {
            std::fprintf(stderr, "GATE: shared_node_hits == 0\n");
            gates_ok = false;
          }
          if (row.speedup < 2.0) {
            std::fprintf(stderr, "GATE: speedup %.2f < 2.0\n", row.speedup);
            gates_ok = false;
          }
        }
        if (discrepancies != 0) gates_ok = false;
      }
    }
  }
  WriteJson(out_path, rows_out);
  if (!gates_ok) {
    std::fprintf(stderr, "acceptance gates FAILED\n");
    return 1;
  }
  std::printf("acceptance gates passed\n");
  return 0;
}
