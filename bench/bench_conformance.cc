// Conformance sweep harness (nightly CI entry point): drives the
// differential testkit over a window of freshly seeded workloads and
// emits a machine-readable summary. Any seed whose engines disagree is
// ddmin-shrunk on the spot and the minimised repro written next to the
// summary, so a red nightly run ships its own bug report.
//
// Flags: --seeds=<n>          workloads to sweep          (default 200)
//        --seed-base=<n>      first seed                  (default 0)
//        --tableau-every=<n>  run the (exponential) tableau on every
//                             n-th seed; 0 = never        (default 8)
//        --shrink-dir=<path>  where shrunk repros go      (default .)
//        --out=<path>         summary (default BENCH_conformance.json)
//
// The JSON output is one object:
//   {"seeds_checked", "seed_base", "classifier_pairs_compared",
//    "answer_pairs_compared", "discrepancies_found", "shrink_iterations",
//    "repros": [{"seed", "path", "first_diff"}], "elapsed_ms"}
// followed by the build stamp (bench_util.h).

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchgen/workload.h"
#include "common/stopwatch.h"
#include "testkit/corpus.h"
#include "testkit/differential.h"
#include "testkit/shrinker.h"

namespace {

using olite::testkit::ConformanceCase;

// Mirrors the tier-1 conformance_test sweep: small mixed-feature
// signatures whose shape varies with the seed.
olite::benchgen::WorkloadConfig SweepConfig(uint64_t seed) {
  olite::benchgen::WorkloadConfig cfg;
  cfg.ontology.name = "conformance";
  cfg.ontology.seed = 2 * seed + 1;
  cfg.ontology.num_concepts = 12 + static_cast<uint32_t>(seed % 14);
  cfg.ontology.num_roles = 3 + static_cast<uint32_t>(seed % 3);
  cfg.ontology.num_attributes = static_cast<uint32_t>(seed % 2);
  cfg.ontology.num_roots = 2;
  cfg.ontology.avg_branching = 2.0 + static_cast<double>(seed % 3);
  cfg.ontology.multi_parent_prob = 0.2;
  cfg.ontology.role_hierarchy_fraction = 0.5;
  cfg.ontology.domain_range_fraction = 0.3;
  cfg.ontology.qualified_exists_per_concept = 0.2;
  cfg.ontology.unqualified_exists_per_concept = 0.2;
  cfg.ontology.disjointness_fraction = 0.2;
  cfg.ontology.role_disjointness_fraction = 0.1;
  cfg.seed = seed + 1000;
  cfg.num_individuals = 16;
  cfg.num_concept_assertions = 24;
  cfg.num_role_assertions = 24;
  cfg.num_attribute_assertions = (seed % 2 == 1) ? 6 : 0;
  cfg.num_queries = 3;
  cfg.max_atoms_per_query = 3;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  olite::bench::Flags flags(argc, argv);
  const uint64_t seeds = flags.Int<uint64_t>("seeds", 200);
  const uint64_t seed_base = flags.Int<uint64_t>("seed-base", 0);
  const uint64_t tableau_every = flags.Int<uint64_t>("tableau-every", 8);
  const std::string shrink_dir = flags.String("shrink-dir", ".");
  const std::string out_path = flags.String("out", "BENCH_conformance.json");
  if (!flags.Finish()) return 1;

  uint64_t classifier_pairs = 0;
  uint64_t answer_pairs = 0;
  uint64_t discrepancies = 0;
  uint64_t shrink_iterations = 0;
  std::vector<olite::bench::JsonObject> repros;
  olite::Stopwatch watch;

  for (uint64_t i = 0; i < seeds; ++i) {
    const uint64_t seed = seed_base + i;
    olite::benchgen::Workload w =
        olite::benchgen::GenerateWorkload(SweepConfig(seed));

    olite::testkit::ClassifierDiffOptions copts;
    copts.run_tableau = tableau_every != 0 && i % tableau_every == 0;
    std::vector<std::string> diffs =
        olite::testkit::CompareClassifiers(w.ontology, copts);
    // graph/completion/oracle pairwise, plus three more with the tableau.
    classifier_pairs += copts.run_tableau ? 6 : 3;

    olite::testkit::AnswerPathOptions aopts;
    aopts.chase_depth =
        static_cast<uint32_t>(SweepConfig(seed).max_atoms_per_query) + 1;
    for (std::string& d : olite::testkit::CheckAnswerPaths(w, aopts)) {
      diffs.push_back(std::move(d));
    }
    answer_pairs += 3;  // obda-sql / abox-eval / chase-oracle pairwise

    if (diffs.empty()) continue;
    discrepancies += diffs.size();
    std::fprintf(stderr, "seed %llu: %zu discrepancies; shrinking\n",
                 static_cast<unsigned long long>(seed), diffs.size());

    ConformanceCase c = olite::testkit::CaseFromWorkload(w);
    c.expect_discrepancy = true;
    auto fails = [](const ConformanceCase& candidate) {
      return !olite::testkit::RunCase(candidate, /*run_tableau=*/false)
                  .empty();
    };
    olite::testkit::ShrinkStats stats;
    ConformanceCase shrunk = c;
    if (fails(c)) {
      shrunk = olite::testkit::Shrink(c, fails, {}, &stats);
      shrink_iterations += stats.iterations;
    }
    std::string path = shrink_dir + "/repro_seed" + std::to_string(seed) +
                       ".case";
    std::ofstream repro(path);
    repro << "# shrunk from sweep seed " << seed << "\n"
          << olite::testkit::SerializeCase(shrunk).value_or(
                 "(not writable)\n");
    repros.push_back(olite::bench::JsonObject()
                         .Add("seed", seed)
                         .Add("path", path)
                         .Add("first_diff", diffs.front()));
  }

  const double elapsed_ms = watch.ElapsedMillis();
  if (!olite::bench::WriteObject(
          out_path, olite::bench::JsonObject()
                        .Add("seeds_checked", seeds)
                        .Add("seed_base", seed_base)
                        .Add("classifier_pairs_compared", classifier_pairs)
                        .Add("answer_pairs_compared", answer_pairs)
                        .Add("discrepancies_found", discrepancies)
                        .Add("shrink_iterations", shrink_iterations)
                        .Add("repros", repros)
                        .Add("elapsed_ms", elapsed_ms))) {
    return 1;
  }
  std::printf("checked %llu seeds (%llu classifier pairs, %llu answer "
              "pairs): %llu discrepancies, %zu shrunk repros\n",
              static_cast<unsigned long long>(seeds),
              static_cast<unsigned long long>(classifier_pairs),
              static_cast<unsigned long long>(answer_pairs),
              static_cast<unsigned long long>(discrepancies), repros.size());
  return discrepancies == 0 ? 0 : 2;
}
