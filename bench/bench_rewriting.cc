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
// they cover the cell's reps: one cold compile plus cache hits).

#include <cstdio>
#include <cstdlib>
#include <cstring>
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

struct JsonRow {
  std::string mode;
  std::string ontology;
  std::string query;
  std::string pruning;  // on | off
  double deadline_ms = 0;
  double ms = 0;
  std::string outcome;  // complete | degraded | exhausted
  uint64_t disjuncts = 0;
  uint64_t pruned_disjuncts = 0;
  uint64_t pruned_unfoldings = 0;
  uint64_t constraint_checks = 0;
  uint64_t rows = 0;
  std::string degradation;
  /// Per-stage percentile object rendered from the cell's registry.
  std::string stages = "{}";
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

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
                 "  {\"mode\": \"%s\", \"ontology\": \"%s\", "
                 "\"query\": \"%s\", \"pruning\": \"%s\", "
                 "\"deadline_ms\": %.1f, \"ms\": %.3f, \"outcome\": \"%s\", "
                 "\"disjuncts\": %llu, \"pruned_disjuncts\": %llu, "
                 "\"pruned_unfoldings\": %llu, \"constraint_checks\": %llu, "
                 "\"rows\": %llu, "
                 "\"degradation\": \"%s\", \"stages\": %s}%s\n",
                 r.mode.c_str(), r.ontology.c_str(), r.query.c_str(),
                 r.pruning.c_str(), r.deadline_ms, r.ms, r.outcome.c_str(),
                 static_cast<unsigned long long>(r.disjuncts),
                 static_cast<unsigned long long>(r.pruned_disjuncts),
                 static_cast<unsigned long long>(r.pruned_unfoldings),
                 static_cast<unsigned long long>(r.constraint_checks),
                 static_cast<unsigned long long>(r.rows),
                 JsonEscape(r.degradation).c_str(), r.stages.c_str(),
                 i + 1 < rows.size() ? "," : "");
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

std::vector<double> ParseList(const char* text) {
  std::vector<double> out;
  std::string current;
  for (const char* p = text;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!current.empty()) out.push_back(std::atof(current.c_str()));
      current.clear();
      if (*p == '\0') break;
    } else {
      current += *p;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<double> deadlines = {0, 5, 50};
  std::vector<double> depths = {2, 4, 6, 8};
  int width = 4;
  int leaf_rows = 40;
  int reps = 3;
  olite::rdb::EvalEngine engine_choice = olite::rdb::EvalEngine::kDefault;
  std::string out_path = "BENCH_rewriting.json";
  std::string pruning_dim = "both";
  bool pruning_gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      deadlines = ParseList(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--depths=", 9) == 0) {
      depths = ParseList(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--width=", 8) == 0) {
      width = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      leaf_rows = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--engine=", 9) == 0) {
      engine_choice = ParseEngine(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--pruning=", 10) == 0) {
      pruning_dim = argv[i] + 10;
      if (pruning_dim != "on" && pruning_dim != "off" &&
          pruning_dim != "both") {
        std::fprintf(stderr, "unknown --pruning value '%s'\n",
                     pruning_dim.c_str());
        return 1;
      }
    } else if (std::strcmp(argv[i], "--pruning-gate") == 0) {
      pruning_gate = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }
  if (reps < 1) reps = 1;
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

  std::vector<JsonRow> rows;
  std::printf("engine: %s\n",
              olite::rdb::EvalEngineName(
                  olite::rdb::ResolveEvalEngine(engine_choice)));
  std::printf("%-12s %-14s %-10s %-8s %12s %10s %10s %10s\n", "mode",
              "ontology", "query", "pruning", "deadline_ms", "ms", "outcome",
              "disjuncts");
  for (RewriteMode mode : {RewriteMode::kPerfectRef, RewriteMode::kClassified}) {
    for (double depth : depths) {
      olite::obs::MetricsRegistry registry;
      const auto snapshot =
          MakeSnapshot(static_cast<int>(depth), width, leaf_rows, mode);
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
          "layered_d" + std::to_string(static_cast<int>(depth)) + "_w" +
          std::to_string(width);
      for (const auto& query : kQueries) {
        for (double deadline : deadlines) {
          for (size_t p = 0; p < engines.size(); ++p) {
            const bool disable_pruning = pruning_disabled[p];
            JsonRow row;
            row.mode = RewriteModeName(mode);
            row.ontology = ontology;
            row.query = query.name;
            row.pruning = disable_pruning ? "off" : "on";
            row.deadline_ms = deadline;
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
                row.outcome = "exhausted";
                row.degradation = answers.status().ToString();
              } else {
                row.outcome =
                    stats.degradation.degraded() ? "degraded" : "complete";
                row.disjuncts = stats.rewrite.final_disjuncts;
                row.pruned_disjuncts = stats.rewrite.pruned_disjuncts;
                row.pruned_unfoldings = stats.rewrite.pruned_unfoldings;
                row.constraint_checks = stats.rewrite.constraint_checks;
                row.rows = stats.rows;
                row.degradation = stats.degradation.degraded()
                                      ? stats.degradation.ToString()
                                      : "";
              }
            }
            row.ms = best_ms;
            row.stages = olite::bench::StagePercentilesJson(registry);
            rows.push_back(row);
            std::printf("%-12s %-14s %-10s %-8s %12.1f %10.3f %10s %10llu\n",
                        row.mode.c_str(), row.ontology.c_str(),
                        row.query.c_str(), row.pruning.c_str(),
                        row.deadline_ms, row.ms, row.outcome.c_str(),
                        static_cast<unsigned long long>(row.disjuncts));
          }
        }
      }
    }
  }
  WriteJson(out_path, rows);
  if (pruning_gate) {
    // The release gate runs over the unlimited-deadline cells only, where
    // both pipelines complete exactly: every on/off pair must return the
    // same number of rows (pruning is answer-preserving), and the summed
    // pruned union must be at least 2x smaller than the unpruned one.
    uint64_t on_disjuncts = 0;
    uint64_t off_disjuncts = 0;
    int violations = 0;
    for (size_t i = 0; i + 1 < rows.size(); ++i) {
      const JsonRow& on = rows[i];
      const JsonRow& off = rows[i + 1];
      if (on.pruning != "on" || off.pruning != "off") continue;
      if (on.deadline_ms != 0 || off.deadline_ms != 0) continue;
      if (on.mode != off.mode || on.ontology != off.ontology ||
          on.query != off.query) {
        continue;
      }
      on_disjuncts += on.disjuncts;
      off_disjuncts += off.disjuncts;
      // A cell that degraded under some non-deadline quota may return
      // sound-but-partial answers; only exact pairs must agree on counts.
      if (on.outcome != "complete" || off.outcome != "complete") continue;
      if (on.rows != off.rows) {
        ++violations;
        std::fprintf(stderr,
                     "PRUNING GATE: row-count discrepancy on %s/%s/%s: "
                     "%llu pruned vs %llu unpruned\n",
                     on.mode.c_str(), on.ontology.c_str(), on.query.c_str(),
                     static_cast<unsigned long long>(on.rows),
                     static_cast<unsigned long long>(off.rows));
      }
    }
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
