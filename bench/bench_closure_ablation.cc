// Ablation of the transitive-closure engine inside the graph classifier
// (§5: "computing the transitive closure ... constitutes the major
// sub-task in ontology classification"). Sweeps the per-source BFS
// baseline against the SCC engine over representative ontology shapes.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "benchgen/generator.h"
#include "benchgen/profiles.h"
#include "common/thread_pool.h"
#include "core/classifier.h"

namespace {

using olite::benchgen::GeneratorConfig;
using olite::benchgen::PaperProfiles;

// Execution width for the classifier, set by --threads=N (default 1,
// 0 = hardware_concurrency). Parsed before google-benchmark's own flags.
unsigned g_threads = 1;

// The engines swept: the BFS baseline and the SCC engine.
const olite::graph::ClosureEngine kEngines[] = {
    olite::graph::ClosureEngine::kBfs, olite::graph::ClosureEngine::kSccMerge};

// Profile index in PaperProfiles(): 0 Mouse, 2 DOLCE, 4 Gene, 6 Galen,
// 9 FMA 3.2.1 (large and sparse).
const size_t kProfileIndices[] = {0, 2, 4, 6, 9};

void BM_ClassifyWithEngine(benchmark::State& state) {
  const olite::graph::ClosureEngine engine = kEngines[state.range(0)];
  size_t profile_index = kProfileIndices[state.range(1)];
  auto profiles = PaperProfiles(0.1);
  const auto& profile = profiles[profile_index];
  olite::dllite::Ontology onto = olite::benchgen::Generate(profile.config);

  olite::core::ClassificationOptions options;
  options.engine = engine;
  options.threads = g_threads;
  uint64_t closure_arcs = 0;
  for (auto _ : state) {
    olite::core::Classification cls =
        olite::core::Classify(onto.tbox(), onto.vocab(), options);
    closure_arcs = cls.stats().num_closure_arcs;
    benchmark::DoNotOptimize(cls);
  }
  state.SetLabel(profile.config.name + "/" +
                 olite::graph::ClosureEngineName(engine) + "/t" +
                 std::to_string(g_threads));
  state.counters["closure_arcs"] = static_cast<double>(closure_arcs);
  state.counters["concepts"] = profile.config.num_concepts;
  state.counters["threads"] = g_threads;
}

}  // namespace

BENCHMARK(BM_ClassifyWithEngine)
    ->ArgsProduct({{0, 1},            // kEngines: bfs, scc_merge
                   {0, 1, 2, 3, 4}})  // Mouse, DOLCE, Gene, Galen, FMA3.2.1
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
