// The OBDA core service (§1/§3): UCQ rewriting and the full
// rewrite→unfold→execute pipeline, measured under execution budgets.
//
// For every mode (perfectref, classified) × layered ontology (depth
// sweep) × deadline the harness runs the budgeted `QueryEngine::Answer`
// with graceful degradation enabled and records whether the cell
// completed exactly, degraded (sound partial answers inside the budget),
// or exhausted the budget outright. Each ontology is compiled once; the
// pruning dimension is one engine per setting over that snapshot.
//
// Flags: --deadline-ms=<list>  deadlines to sweep, e.g. 50 or 0,5,50
//                              (default 0,5,50; 0 = unlimited)
//        --depths=<list>       hierarchy depths  (default 2,4,6,8)
//        --width=<n>           classes per level (default 4)
//        --rows=<n>            rows in the leaf table (default 40)
//        --reps=<n>            repetitions per cell, min wins (default 3)
//        --engine=<name>       rdb evaluator: columnar, nested_loop or
//                              default (env-resolved)  (default default)
//        --pruning=<dim>       constraint-aware pruning sweep: on, off or
//                              both  (default both)
//        --pruning-gate        after the sweep, verify that on every
//                              unlimited-deadline cell pruning produced
//                              identical row counts, and that the pruned
//                              union is >= 2x smaller overall; exit 1 on
//                              violation (the release-CI gate)
//        --out=<path>          machine-readable results
//                              (default BENCH_rewriting.json)
//
// Two query shapes per cell: a single-atom query (cheap, completes under
// any deadline) and a three-atom self-product (the rewritten union and the
// evaluated cross product grow with depth, so millisecond deadlines
// degrade or exhaust).
//
// The JSON output is a flat array of rows
//   {"mode", "ontology", "query", "pruning", "deadline_ms", "ms", "outcome",
//    "disjuncts", "pruned_disjuncts", "pruned_unfoldings",
//    "constraint_checks", "rows", "degradation",
//    "stages": {<stage>: {"count", "p50_us", "p95_us", "p99_us"}, …}}
// with outcome one of "complete" | "degraded" | "exhausted"; the stage
// percentiles come from the engine's obs registry, reset per cell (so
// they cover the cell's reps: one cold compile plus cache hits), and every
// row ends with the build stamp (bench_util.h).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "dllite/ontology.h"
#include "mapping/mapping.h"
#include "obda/compiled_ontology.h"
#include "obda/query_engine.h"
#include "obs/metrics.h"
#include "query/rewriter.h"

namespace {

using olite::dllite::Ontology;
using olite::query::RewriteMode;

// A hierarchy of `depth` levels with `width` classes per level, every
// class included in one class of the previous level, plus a role with
// mandatory participation at the top.
Ontology LayeredTBox(int depth, int width) {
  Ontology onto;
  onto.DeclareRole("rel");
  for (int d = 0; d < depth; ++d) {
    for (int w = 0; w < width; ++w) {
      onto.DeclareConcept("L" + std::to_string(d) + "_" + std::to_string(w));
    }
  }
  for (int d = 1; d < depth; ++d) {
    for (int w = 0; w < width; ++w) {
      std::string sub = "L" + std::to_string(d) + "_" + std::to_string(w);
      std::string sup =
          "L" + std::to_string(d - 1) + "_" + std::to_string(w % width);
      (void)onto.AddAxiom(sub + " <= " + sup);
    }
  }
  (void)onto.AddAxiom("L0_0 <= exists rel");
  (void)onto.AddAxiom("exists rel- <= L0_0");
  return onto;
}

// The university-style source: every deepest-level class maps to one leaf
// table, so the whole rewritten union unfolds and evaluates.
std::shared_ptr<const olite::obda::CompiledOntology> MakeSnapshot(
    int depth, int width, int leaf_rows, RewriteMode mode) {
  Ontology onto = LayeredTBox(depth, width);
  olite::rdb::Database db;
  (void)db.CreateTable({"leaf", {{"id", olite::rdb::ValueType::kString}}});
  for (int i = 0; i < leaf_rows; ++i) {
    (void)db.Insert("leaf", {olite::rdb::Value::Str("e" + std::to_string(i))});
  }
  olite::mapping::MappingSet mappings;
  olite::rdb::SelectBlock block;
  block.from_tables = {"leaf"};
  block.select = {{0, "id"}};
  for (int w = 0; w < width; ++w) {
    (void)mappings.Add(olite::mapping::MappingAssertion::ForConcept(
        onto.vocab()
            .FindConcept("L" + std::to_string(depth - 1) + "_" +
                         std::to_string(w))
            .value(),
        block));
  }
  auto compiled = olite::obda::CompiledOntology::Compile(
      std::move(onto), std::move(mappings), std::move(db), mode);
  if (!compiled.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 compiled.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(compiled).value();
}

// What the pruning gate compares between the on and off cells of a pair.
struct Cell {
  std::string outcome;  // complete | degraded | exhausted
  uint64_t disjuncts = 0;
  uint64_t rows = 0;
};

}  // namespace

int main(int argc, char** argv) {
  olite::bench::Flags flags(argc, argv);
  const std::vector<double> deadlines =
      flags.List<double>("deadline-ms", {0, 5, 50}, 0);
  const std::vector<int> depths = flags.List<int>("depths", {2, 4, 6, 8}, 1);
  const int width = flags.Int("width", 4, 1);
  const int leaf_rows = flags.Int("rows", 40, 0);
  const int reps = flags.Int("reps", 3, 1);
  const olite::rdb::EvalEngine engine_choice = flags.Engine("engine");
  const std::string pruning_dim =
      flags.String("pruning", "both", {"on", "off", "both"});
  const bool pruning_gate = flags.Has("pruning-gate");
  const std::string out_path = flags.String("out", "BENCH_rewriting.json");
  if (!flags.Finish()) return 1;
  if (pruning_gate && pruning_dim != "both") {
    std::fprintf(stderr, "--pruning-gate needs --pruning=both\n");
    return 1;
  }
  std::vector<bool> pruning_disabled;
  if (pruning_dim != "off") pruning_disabled.push_back(false);
  if (pruning_dim != "on") pruning_disabled.push_back(true);

  const struct {
    const char* name;
    const char* text;
  } kQueries[] = {
      {"q1_atom", "q(x) :- L0_0(x)"},
      {"q3_atoms", "q(x, y, z) :- L0_0(x), L0_0(y), L0_0(z)"},
  };

  std::vector<olite::bench::JsonObject> rows;
  // The release gate runs over the unlimited-deadline cells only, where
  // both pipelines complete exactly: every on/off pair must return the
  // same number of rows (pruning is answer-preserving), and the summed
  // pruned union must be at least 2x smaller than the unpruned one. With
  // --pruning=both the on cell of each pair runs just before its off cell.
  uint64_t on_disjuncts = 0;
  uint64_t off_disjuncts = 0;
  int violations = 0;
  std::printf("engine: %s\n",
              olite::rdb::EvalEngineName(
                  olite::rdb::ResolveEvalEngine(engine_choice)));
  std::printf("%-12s %-14s %-10s %-8s %12s %10s %10s %10s\n", "mode",
              "ontology", "query", "pruning", "deadline_ms", "ms", "outcome",
              "disjuncts");
  for (RewriteMode mode : {RewriteMode::kPerfectRef, RewriteMode::kClassified}) {
    for (int depth : depths) {
      olite::obs::MetricsRegistry registry;
      const auto snapshot = MakeSnapshot(depth, width, leaf_rows, mode);
      // One engine per pruning setting, indexed like pruning_disabled.
      std::vector<std::unique_ptr<olite::obda::QueryEngine>> engines;
      for (bool disable_pruning : pruning_disabled) {
        olite::obda::QueryEngineOptions eng_opts;
        eng_opts.metrics = &registry;
        eng_opts.engine = engine_choice;
        eng_opts.disable_constraint_pruning = disable_pruning;
        engines.push_back(
            std::make_unique<olite::obda::QueryEngine>(snapshot, eng_opts));
      }
      std::string ontology =
          "layered_d" + std::to_string(depth) + "_w" + std::to_string(width);
      for (const auto& query : kQueries) {
        for (double deadline : deadlines) {
          Cell on;
          for (size_t p = 0; p < engines.size(); ++p) {
            const bool disable_pruning = pruning_disabled[p];
            Cell cell;
            olite::query::RewriteStats rewrite;
            std::string degradation;
            registry.Reset();  // stage histograms cover exactly this cell
            double best_ms = -1;
            for (int rep = 0; rep < reps; ++rep) {
              olite::obda::AnswerOptions opts;
              opts.deadline_ms = deadline;
              opts.allow_degraded = true;
              olite::obda::AnswerStats stats;
              olite::Stopwatch sw;
              auto answers = engines[p]->Answer(query.text, opts, &stats);
              double ms = sw.ElapsedMillis();
              if (best_ms < 0 || ms < best_ms) best_ms = ms;
              if (!answers.ok()) {
                cell.outcome = "exhausted";
                degradation = answers.status().ToString();
              } else {
                cell.outcome =
                    stats.degradation.degraded() ? "degraded" : "complete";
                cell.disjuncts = stats.rewrite.final_disjuncts;
                cell.rows = stats.rows;
                rewrite = stats.rewrite;
                degradation = stats.degradation.degraded()
                                  ? stats.degradation.ToString()
                                  : "";
              }
            }
            const char* pruning = disable_pruning ? "off" : "on";
            rows.push_back(
                olite::bench::JsonObject()
                    .Add("mode", RewriteModeName(mode))
                    .Add("ontology", ontology)
                    .Add("query", query.name)
                    .Add("pruning", pruning)
                    .Add("deadline_ms", deadline)
                    .Add("ms", best_ms)
                    .Add("outcome", cell.outcome)
                    .Add("disjuncts", cell.disjuncts)
                    .Add("pruned_disjuncts", rewrite.pruned_disjuncts)
                    .Add("pruned_unfoldings", rewrite.pruned_unfoldings)
                    .Add("constraint_checks", rewrite.constraint_checks)
                    .Add("rows", cell.rows)
                    .Add("degradation", degradation)
                    .Add("stages", olite::bench::StagePercentiles(registry)));
            std::printf("%-12s %-14s %-10s %-8s %12.1f %10.3f %10s %10llu\n",
                        RewriteModeName(mode), ontology.c_str(), query.name,
                        pruning, deadline, best_ms, cell.outcome.c_str(),
                        static_cast<unsigned long long>(cell.disjuncts));
            if (!pruning_gate || deadline != 0) continue;
            if (!disable_pruning) {
              on = cell;
              continue;
            }
            on_disjuncts += on.disjuncts;
            off_disjuncts += cell.disjuncts;
            // A cell that degraded under some non-deadline quota may return
            // sound-but-partial answers; only exact pairs must agree.
            if (on.outcome == "complete" && cell.outcome == "complete" &&
                on.rows != cell.rows) {
              ++violations;
              std::fprintf(stderr,
                           "PRUNING GATE: row-count discrepancy on "
                           "%s/%s/%s: %llu pruned vs %llu unpruned\n",
                           RewriteModeName(mode), ontology.c_str(),
                           query.name,
                           static_cast<unsigned long long>(on.rows),
                           static_cast<unsigned long long>(cell.rows));
            }
          }
        }
      }
    }
  }
  if (!olite::bench::WriteRows(out_path, std::move(rows))) return 1;
  if (pruning_gate) {
    if (on_disjuncts == 0 && off_disjuncts == 0) {
      std::fprintf(stderr,
                   "PRUNING GATE: no unlimited-deadline on/off pairs "
                   "(run with a 0 deadline in --deadline-ms)\n");
      return 1;
    }
    std::printf("pruning gate: %llu pruned vs %llu unpruned disjuncts "
                "(%.2fx), %d row-count discrepancies\n",
                static_cast<unsigned long long>(on_disjuncts),
                static_cast<unsigned long long>(off_disjuncts),
                on_disjuncts > 0
                    ? static_cast<double>(off_disjuncts) / on_disjuncts
                    : 0.0,
                violations);
    if (violations > 0) return 1;
    if (off_disjuncts < 2 * on_disjuncts) {
      std::fprintf(stderr,
                   "PRUNING GATE: reduction below 2x (%llu -> %llu)\n",
                   static_cast<unsigned long long>(off_disjuncts),
                   static_cast<unsigned long long>(on_disjuncts));
      return 1;
    }
  }
  return 0;
}
