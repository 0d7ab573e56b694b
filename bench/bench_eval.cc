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
// per-stage histograms; the registry is reset between cells). Every row
// ends with the build stamp (bench_util.h). The binary exits non-zero when
// the shared_prefix acceptance gates fail (>=8 disjuncts,
// shared_node_hits > 0, >=2x speedup) or any engines disagree.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "benchgen/workload.h"
#include "dllite/ontology.h"
#include "mapping/mapping.h"
#include "obda/compiled_ontology.h"
#include "obda/query_engine.h"
#include "obs/metrics.h"
#include "query/cq.h"
#include "query/rewriter.h"

namespace {

using olite::dllite::Ontology;
using olite::obda::AnswerTuple;
using olite::obda::CompiledOntology;
using olite::obda::QueryEngine;
using olite::query::RewriteMode;
using Snapshot = std::shared_ptr<const CompiledOntology>;

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
// over the query pool. Cells share one registry per workload; it is reset
// first so the exported histograms cover exactly this cell.
olite::bench::ClosedLoopTotals RunCell(
    const QueryEngine& engine,
    const std::vector<olite::query::ConjunctiveQuery>& pool, int threads,
    uint64_t requests, olite::obs::MetricsRegistry* registry) {
  registry->Reset();
  auto run = olite::bench::RunClosedLoop(
      engine, threads, requests, registry,
      [&](int, uint64_t n) -> const olite::query::ConjunctiveQuery& {
        return pool[n % pool.size()];
      });
  if (!run.ok()) {
    std::fprintf(stderr, "answer failed: %s\n",
                 run.status().ToString().c_str());
    std::exit(1);
  }
  return *run;
}

}  // namespace

int main(int argc, char** argv) {
  olite::bench::Flags flags(argc, argv);
  const uint64_t requests = flags.Int<uint64_t>("requests", 24, 1);
  const std::vector<int> thread_counts = flags.List<int>("threads", {1, 4}, 1);
  const int fan = flags.Int("fan", 4, 1);
  const int rows = flags.Int("rows", 800, 1);
  const uint64_t seed = flags.Int<uint64_t>("seed", 1);
  const std::string out_path = flags.String("out", "BENCH_eval.json");
  if (!flags.Finish()) return 1;

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

  std::vector<olite::bench::JsonObject> rows_out;
  std::printf("%-16s %-12s %8s %10s %12s %10s %10s %10s\n", "workload",
              "engine", "threads", "total_ms", "qps", "shared_hit",
              "hit_rate", "speedup");
  bool gates_ok = true;
  for (const auto& workload : kWorkloads) {
    uint64_t discrepancies =
        CountDiscrepancies(*workload.engines, workload.name, workload.pool);
    for (int threads : thread_counts) {
      // The nested-loop cell runs first (kEngines order); the columnar row
      // of the same workload and width reports its speedup over it.
      double nested_loop_ms = 0;
      for (size_t e = 0; e < workload.engines->size(); ++e) {
        const olite::rdb::EvalEngine engine = kEngines[e];
        const olite::bench::ClosedLoopTotals t =
            RunCell(*(*workload.engines)[e], workload.pool, threads, requests,
                    workload.registry);
        const double qps =
            t.wall_ms > 0 ? 1000.0 * static_cast<double>(t.requests) / t.wall_ms
                          : 0;
        double speedup = 0;  // vs nested_loop, columnar rows only
        if (engine == olite::rdb::EvalEngine::kNestedLoop) {
          nested_loop_ms = t.wall_ms;
        } else if (nested_loop_ms > 0 && t.wall_ms > 0) {
          speedup = nested_loop_ms / t.wall_ms;
        }
        const uint64_t prefix_lookups =
            t.eval.shared_nodes + t.eval.shared_node_hits;
        const double prefix_hit_rate =
            prefix_lookups > 0 ? static_cast<double>(t.eval.shared_node_hits) /
                                     static_cast<double>(prefix_lookups)
                               : 0;
        rows_out.push_back(
            olite::bench::JsonObject()
                .Add("workload", workload.name)
                .Add("engine", olite::rdb::EvalEngineName(engine))
                .Add("threads", threads)
                .Add("requests", t.requests)
                .Add("total_ms", t.wall_ms)
                .Add("qps", qps)
                .Add("p50_ms", t.p50_ms)
                .Add("p95_ms", t.p95_ms)
                .Add("p99_ms", t.p99_ms)
                .Add("disjuncts", t.max_disjuncts)
                .Add("batches", t.eval.batches)
                .Add("rows_scanned", t.eval.rows_scanned)
                .Add("shared_nodes", t.eval.shared_nodes)
                .Add("shared_node_hits", t.eval.shared_node_hits)
                .Add("prefix_hit_rate", prefix_hit_rate)
                .Add("join_reorders", t.eval.join_reorders)
                .Add("discrepancies", discrepancies)
                .Add("speedup_vs_nested_loop", speedup)
                .Add("stages",
                     olite::bench::StagePercentiles(*workload.registry)));
        std::printf("%-16s %-12s %8d %10.2f %12.1f %10llu %10.4f %10.2f\n",
                    workload.name, olite::rdb::EvalEngineName(engine), threads,
                    t.wall_ms, qps,
                    static_cast<unsigned long long>(t.eval.shared_node_hits),
                    prefix_hit_rate, speedup);

        // Acceptance gates for the headline workload: the shared-prefix
        // union must actually share (hits > 0) and the columnar engine
        // must win by >=2x.
        if (std::string_view(workload.name) == "shared_prefix" &&
            engine == olite::rdb::EvalEngine::kColumnar) {
          if (t.max_disjuncts < 8) {
            std::fprintf(stderr, "GATE: expected >=8 disjuncts, got %llu\n",
                         static_cast<unsigned long long>(t.max_disjuncts));
            gates_ok = false;
          }
          if (t.eval.shared_node_hits == 0) {
            std::fprintf(stderr, "GATE: shared_node_hits == 0\n");
            gates_ok = false;
          }
          if (speedup < 2.0) {
            std::fprintf(stderr, "GATE: speedup %.2f < 2.0\n", speedup);
            gates_ok = false;
          }
        }
        if (discrepancies != 0) gates_ok = false;
      }
    }
  }
  if (!olite::bench::WriteRows(out_path, std::move(rows_out))) return 1;
  if (!gates_ok) {
    std::fprintf(stderr, "acceptance gates FAILED\n");
    return 1;
  }
  std::printf("acceptance gates passed\n");
  return 0;
}
