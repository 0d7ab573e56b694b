// Figure 1 of the paper: classification times of the eleven OWL 2 QL
// benchmark ontologies across reasoners.
//
// Paper columns:  QuOnto (graph-based), FaCT++, HermiT, Pellet (tableau),
//                 CB (consequence-based).
// This harness:   graph  — this library's digraph+closure classifier
//                          (the QuOnto technique, §5),
//                 tableau — the from-scratch ALCHI tableau classifier with
//                          enhanced traversal (plays FaCT++/HermiT/Pellet;
//                          cells exceeding the budget print "timeout"),
//                 cb     — the consequence-based classifier with the role
//                          hierarchy disabled (the paper's CB caveat).
//
// The ontologies are synthetic twins of the published benchmarks (see
// src/benchgen/profiles.cc). Absolute numbers are not comparable with the
// paper (different hardware, languages and decades); the *shape* — who
// wins where, where tableau engines blow up — is the reproduction target.
//
// Flags: --scale=<f>        signature scale factor   (default 0.25)
//        --timeout_ms=<ms>  per-ontology budget      (default 15000)
//        --skip_tableau     graph/cb columns only
//        --threads=<list>   execution widths to sweep, e.g. 4 or 1,2,4,8
//                           (default 1; 0 = hardware_concurrency)
//        --out=<path>       machine-readable results (default BENCH_fig1.json)
//
// The JSON output is a flat array of rows
//   {"engine", "ontology", "threads", "ms", "completed", "subsumptions"}
// covering engine x ontology x threads (the cb engine is serial and is
// recorded once per ontology with threads = 1). Graph rows also carry the
// classifier's phase split, "build_graph_ms", "closure_ms" (Φ_T) and
// "unsat_ms" (Ω_T), which the table prints as build/closure/unsat.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "benchgen/generator.h"
#include "benchgen/profiles.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "completion/completion_classifier.h"
#include "core/classifier.h"
#include "owl/from_dllite.h"
#include "reasoner/tableau_classifier.h"

namespace {

std::string Cell(double ms, bool completed) {
  if (!completed) return "timeout";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ms);
  return buf;
}

struct JsonRow {
  std::string engine;
  std::string ontology;
  unsigned threads = 1;
  double ms = 0;
  bool completed = true;
  uint64_t subsumptions = 0;
  std::optional<olite::core::ClassificationStats> phases;  // graph rows
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
                 "  {\"engine\": \"%s\", \"ontology\": \"%s\", "
                 "\"threads\": %u, \"ms\": %.3f, \"completed\": %s, "
                 "\"subsumptions\": %llu",
                 r.engine.c_str(), r.ontology.c_str(), r.threads, r.ms,
                 r.completed ? "true" : "false",
                 static_cast<unsigned long long>(r.subsumptions));
    if (r.phases.has_value()) {
      std::fprintf(f,
                   ", \"build_graph_ms\": %.3f, \"closure_ms\": %.3f, "
                   "\"unsat_ms\": %.3f",
                   r.phases->build_graph_ms, r.phases->closure_ms,
                   r.phases->unsat_ms);
    }
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

std::vector<unsigned> ParseThreadList(const char* s) {
  std::vector<unsigned> out;
  while (*s != '\0') {
    char* end = nullptr;
    unsigned long v = std::strtoul(s, &end, 10);
    if (end == s) break;
    out.push_back(olite::ThreadPool::ResolveThreads(static_cast<unsigned>(v)));
    s = *end == ',' ? end + 1 : end;
  }
  if (out.empty()) out.push_back(1);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.25;
  double timeout_ms = 15000;
  bool skip_tableau = false;
  std::vector<unsigned> thread_list = {1};
  std::string out_path = "BENCH_fig1.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--timeout_ms=", 13) == 0) {
      timeout_ms = std::atof(argv[i] + 13);
    } else if (std::strcmp(argv[i], "--skip_tableau") == 0) {
      skip_tableau = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      thread_list = ParseThreadList(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }

  std::vector<JsonRow> rows;

  for (unsigned threads : thread_list) {
    std::printf(
        "Figure 1 reproduction: classification times (ms), scale=%.2f, "
        "timeout=%.0f ms, threads=%u\n",
        scale, timeout_ms, threads);
    std::printf("%-15s %9s | %10s %24s %10s %8s | %8s %29s\n", "ontology",
                "classes", "graph", "build/closure/unsat", "tableau", "cb",
                "|paper:", "quonto/fact/hermit/pellet/cb");
    std::printf(
        "-------------------------------------------------------------------"
        "-------------------------------------------------------\n");

    for (const auto& profile : olite::benchgen::PaperProfiles(scale)) {
      olite::dllite::Ontology onto = olite::benchgen::Generate(profile.config);
      const std::string& name = profile.config.name;

      // Graph-based (the paper's technique).
      olite::core::ClassificationOptions gopts;
      gopts.threads = threads;
      std::optional<olite::ThreadPool> count_pool;
      if (threads > 1) count_pool.emplace(threads);
      olite::Stopwatch sw;
      olite::core::Classification graph_cls =
          olite::core::Classify(onto.tbox(), onto.vocab(), gopts);
      double graph_ms = sw.ElapsedMillis();
      uint64_t subsumptions = graph_cls.CountNamedSubsumptions(
          count_pool.has_value() ? &*count_pool : nullptr);
      const olite::core::ClassificationStats& phases = graph_cls.stats();
      char phase_cell[64];
      std::snprintf(phase_cell, sizeof(phase_cell), "%.1f/%.1f/%.1f",
                    phases.build_graph_ms, phases.closure_ms,
                    phases.unsat_ms);
      rows.push_back(
          {"graph", name, threads, graph_ms, true, subsumptions, phases});

      // Consequence-based (CB role), property hierarchy off per the paper.
      // The completion classifier is serial; record it once per ontology.
      std::string cb_cell = "-";
      if (threads == thread_list.front()) {
        olite::completion::CompletionOptions cb_opts;
        cb_opts.compute_role_hierarchy = false;
        cb_opts.time_budget_ms = timeout_ms;
        sw.Reset();
        auto cb = olite::completion::ClassifyWithCompletion(
            onto.tbox(), onto.vocab(), cb_opts);
        double cb_ms = sw.ElapsedMillis();
        cb_cell = Cell(cb_ms, cb.completed);
        rows.push_back({"cb", name, 1, cb_ms, cb.completed, 0, std::nullopt});
      }

      // Tableau (plays Pellet/FaCT++/HermiT).
      std::string tableau_cell = "-";
      if (!skip_tableau) {
        auto owl = olite::owl::OwlFromDlLite(onto.tbox(), onto.vocab());
        olite::reasoner::TableauClassifierOptions topts;
        topts.strategy = olite::reasoner::ClassifyStrategy::kEnhancedTraversal;
        topts.time_budget_ms = timeout_ms;
        topts.threads = threads;
        sw.Reset();
        auto tab = olite::reasoner::ClassifyWithTableau(*owl, topts);
        double tab_ms = sw.ElapsedMillis();
        tableau_cell = Cell(tab_ms, tab.completed);
        rows.push_back({"tableau", name, threads, tab_ms, tab.completed,
                        tab.NumSubsumptions(), std::nullopt});
      }

      std::printf("%-15s %9u | %10.1f %24s %10s %8s | %8s %s/%s/%s/%s/%s\n",
                  name.c_str(), profile.config.num_concepts, graph_ms,
                  phase_cell, tableau_cell.c_str(), cb_cell.c_str(), "",
                  profile.paper.quonto, profile.paper.factpp,
                  profile.paper.hermit, profile.paper.pellet,
                  profile.paper.cb);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  WriteJson(out_path, rows);
  std::printf(
      "Wrote %s.\n"
      "Note: paper cells are the published Figure 1 values (seconds, "
      "1 h timeout); this harness reports milliseconds on synthetic twins "
      "at the chosen scale.\n",
      out_path.c_str());
  return 0;
}
