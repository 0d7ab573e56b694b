// Cost of the computeUnsat step (Ω_T) as disjointness density grows
// (§5: unsatisfiable predicates are "not rare ... in very large
// ontologies"). AEO-like profile, sibling-disjointness fraction swept
// from 0 to 0.8; measures full classification with and without the
// second phase.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "benchgen/generator.h"
#include "common/thread_pool.h"
#include "core/classifier.h"

namespace {

// Execution width for the classifier, set by --threads=N (default 1,
// 0 = hardware_concurrency). Parsed before google-benchmark's own flags.
unsigned g_threads = 1;

olite::dllite::Ontology MakeOntology(double disjointness_fraction,
                                     double unsat_fraction) {
  olite::benchgen::GeneratorConfig cfg;
  cfg.name = "AEO_like";
  cfg.seed = 42;
  cfg.num_concepts = 3000;
  cfg.num_roles = 16;
  cfg.num_roots = 5;
  cfg.avg_branching = 8.0;
  cfg.domain_range_fraction = 0.5;
  cfg.disjointness_fraction = disjointness_fraction;
  cfg.unsatisfiable_fraction = unsat_fraction;
  return olite::benchgen::Generate(cfg);
}

void BM_ClassifyUnsatSweep(benchmark::State& state) {
  double fraction = static_cast<double>(state.range(0)) / 10.0;
  bool with_unsat = state.range(1) != 0;
  // A tenth of the disjointness fraction as deliberate modelling errors
  // keeps computeUnsat non-trivially exercised across the sweep.
  olite::dllite::Ontology onto = MakeOntology(fraction, fraction / 10.0);

  olite::core::ClassificationOptions options;
  options.compute_unsat = with_unsat;
  options.threads = g_threads;
  double unsat_ms = 0;
  uint64_t unsat_nodes = 0;
  for (auto _ : state) {
    olite::core::Classification cls =
        olite::core::Classify(onto.tbox(), onto.vocab(), options);
    unsat_ms = cls.stats().unsat_ms;
    unsat_nodes = cls.stats().num_unsat_nodes;
    benchmark::DoNotOptimize(cls);
  }
  state.SetLabel(std::string("disj=") + std::to_string(fraction) +
                 (with_unsat ? "/phi+omega" : "/phi_only"));
  state.counters["unsat_phase_ms"] = unsat_ms;
  state.counters["unsat_nodes"] = static_cast<double>(unsat_nodes);
  state.counters["neg_inclusions"] =
      static_cast<double>(onto.tbox().NumNegativeInclusions());
  state.counters["threads"] = g_threads;
}

}  // namespace

BENCHMARK(BM_ClassifyUnsatSweep)
    ->ArgsProduct({{0, 2, 4, 8}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  olite::bench::Flags flags =
      olite::bench::Flags::Take(&argc, argv, {"threads"});
  g_threads = olite::ThreadPool::ResolveThreads(
      flags.Int<unsigned>("threads", 1));
  if (!flags.Finish()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
