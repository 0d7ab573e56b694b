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

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

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

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

struct Repro {
  uint64_t seed = 0;
  std::string path;
  std::string first_diff;
};

}  // namespace

int main(int argc, char** argv) {
  uint64_t seeds = 200;
  uint64_t seed_base = 0;
  uint64_t tableau_every = 8;
  std::string shrink_dir = ".";
  std::string out_path = "BENCH_conformance.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seeds=", 8) == 0) {
      seeds = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--seed-base=", 12) == 0) {
      seed_base = std::strtoull(argv[i] + 12, nullptr, 10);
    } else if (std::strncmp(argv[i], "--tableau-every=", 16) == 0) {
      tableau_every = std::strtoull(argv[i] + 16, nullptr, 10);
    } else if (std::strncmp(argv[i], "--shrink-dir=", 13) == 0) {
      shrink_dir = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  uint64_t classifier_pairs = 0;
  uint64_t answer_pairs = 0;
  uint64_t discrepancies = 0;
  uint64_t shrink_iterations = 0;
  std::vector<Repro> repros;
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
          << olite::testkit::SerializeCase(shrunk);
    repros.push_back({seed, path, diffs.front()});
  }

  const double elapsed_ms = watch.ElapsedMillis();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"seeds_checked\": %llu,\n"
               "  \"seed_base\": %llu,\n"
               "  \"classifier_pairs_compared\": %llu,\n"
               "  \"answer_pairs_compared\": %llu,\n"
               "  \"discrepancies_found\": %llu,\n"
               "  \"shrink_iterations\": %llu,\n"
               "  \"repros\": [",
               static_cast<unsigned long long>(seeds),
               static_cast<unsigned long long>(seed_base),
               static_cast<unsigned long long>(classifier_pairs),
               static_cast<unsigned long long>(answer_pairs),
               static_cast<unsigned long long>(discrepancies),
               static_cast<unsigned long long>(shrink_iterations));
  for (size_t i = 0; i < repros.size(); ++i) {
    std::fprintf(f,
                 "%s\n    {\"seed\": %llu, \"path\": \"%s\", "
                 "\"first_diff\": \"%s\"}",
                 i > 0 ? "," : "",
                 static_cast<unsigned long long>(repros[i].seed),
                 JsonEscape(repros[i].path).c_str(),
                 JsonEscape(repros[i].first_diff).c_str());
  }
  std::fprintf(f,
               "%s],\n"
               "  \"elapsed_ms\": %.1f\n"
               "}\n",
               repros.empty() ? "" : "\n  ", elapsed_ms);
  std::fclose(f);
  std::printf("checked %llu seeds (%llu classifier pairs, %llu answer "
              "pairs): %llu discrepancies, %zu shrunk repros; wrote %s\n",
              static_cast<unsigned long long>(seeds),
              static_cast<unsigned long long>(classifier_pairs),
              static_cast<unsigned long long>(answer_pairs),
              static_cast<unsigned long long>(discrepancies), repros.size(),
              out_path.c_str());
  return discrepancies == 0 ? 0 : 2;
}
