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
// "unsat_ms" (Ω_T), which the table prints as build/closure/unsat. Every
// row ends with the build stamp (bench_util.h).
//
// cb runs without the role hierarchy, so its "subsumptions" count concept
// subsumptions only. A completed cb row whose count differs from the graph
// classification's concept subsumptions is reported on stderr, and the
// harness exits 1 after writing the JSON.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
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

// One row: engine × ontology × threads.
olite::bench::JsonObject Row(const char* engine, const std::string& ontology,
                             unsigned threads, double ms, bool completed,
                             uint64_t subsumptions) {
  return olite::bench::JsonObject()
      .Add("engine", engine)
      .Add("ontology", ontology)
      .Add("threads", threads)
      .Add("ms", ms)
      .Add("completed", completed)
      .Add("subsumptions", subsumptions);
}

// Concept subsumptions of a graph classification whose named-subsumption
// total is `named`: the total minus the role and attribute terms.
uint64_t ConceptSubsumptions(const olite::core::Classification& cls,
                             const olite::dllite::Vocabulary& vocab,
                             uint64_t named) {
  for (uint32_t p = 0; p < vocab.NumRoles(); ++p) {
    named -= cls.SuperRoles(p).size();
  }
  for (uint32_t u = 0; u < vocab.NumAttributes(); ++u) {
    named -= cls.SuperAttributes(u).size();
  }
  return named;
}

}  // namespace

int main(int argc, char** argv) {
  olite::bench::Flags flags(argc, argv);
  const double scale = flags.Double("scale", 0.25);
  const double timeout_ms = flags.Double("timeout_ms", 15000);
  const bool skip_tableau = flags.Has("skip_tableau");
  std::vector<unsigned> thread_list = flags.List<unsigned>("threads", {1});
  const std::string out_path = flags.String("out", "BENCH_fig1.json");
  if (!flags.Finish()) return 1;
  for (unsigned& threads : thread_list) {
    threads = olite::ThreadPool::ResolveThreads(threads);
  }

  std::vector<olite::bench::JsonObject> rows;
  int cb_disagreements = 0;

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
      rows.push_back(Row("graph", name, threads, graph_ms, true, subsumptions)
                         .Add("build_graph_ms", phases.build_graph_ms)
                         .Add("closure_ms", phases.closure_ms)
                         .Add("unsat_ms", phases.unsat_ms));

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
        const uint64_t cb_subsumptions = cb.NumSubsumptions();
        rows.push_back(
            Row("cb", name, 1, cb_ms, cb.completed, cb_subsumptions));
        const uint64_t graph_concepts =
            ConceptSubsumptions(graph_cls, onto.vocab(), subsumptions);
        if (cb.completed && cb_subsumptions != graph_concepts) {
          std::fprintf(stderr,
                       "%s: cb found %llu concept subsumptions, the graph "
                       "%llu\n",
                       name.c_str(),
                       static_cast<unsigned long long>(cb_subsumptions),
                       static_cast<unsigned long long>(graph_concepts));
          ++cb_disagreements;
        }
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
        rows.push_back(Row("tableau", name, threads, tab_ms, tab.completed,
                           tab.NumSubsumptions()));
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

  if (!olite::bench::WriteRows(out_path, std::move(rows))) return 1;
  std::printf(
      "Note: paper cells are the published Figure 1 values (seconds, "
      "1 h timeout); this harness reports milliseconds on synthetic twins "
      "at the chosen scale.\n");
  return cb_disagreements == 0 ? 0 : 1;
}
