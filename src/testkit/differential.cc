#include "testkit/differential.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "approx/approx.h"
#include "common/rng.h"
#include "completion/completion_classifier.h"
#include "core/classifier.h"
#include "obda/query_engine.h"
#include "obda/serving_engine.h"
#include "owl/from_dllite.h"
#include "query/abox_eval.h"
#include "reasoner/tableau_classifier.h"
#include "testkit/chase_oracle.h"
#include "testkit/subsumption_oracle.h"

namespace olite::testkit {

namespace {

using dllite::Ontology;
using dllite::Vocabulary;

std::string FormatIds(const std::vector<uint32_t>& ids, size_t limit = 8) {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < ids.size() && i < limit; ++i) {
    if (i > 0) os << ",";
    os << ids[i];
  }
  if (ids.size() > limit) os << ",…+" << (ids.size() - limit);
  os << "}";
  return os.str();
}

void CompareSets(const std::string& what, const std::vector<uint32_t>& expect,
                 const std::vector<uint32_t>& got, const std::string& engine,
                 std::vector<std::string>* out) {
  if (expect == got) return;
  out->push_back(what + ": oracle=" + FormatIds(expect) + " " + engine + "=" +
                 FormatIds(got));
}

std::string FormatTuples(const std::set<std::vector<std::string>>& tuples,
                         size_t limit = 4) {
  std::ostringstream os;
  os << "{";
  size_t i = 0;
  for (const auto& t : tuples) {
    if (i == limit) {
      os << " …+" << (tuples.size() - limit);
      break;
    }
    if (i++ > 0) os << " ";
    os << "(";
    for (size_t k = 0; k < t.size(); ++k) {
      if (k > 0) os << ",";
      os << t[k];
    }
    os << ")";
  }
  os << "}";
  return os.str();
}

using TupleSet = std::set<std::vector<std::string>>;

void CompareTupleSets(const std::string& what, const TupleSet& expect,
                      const TupleSet& got, const std::string& engine,
                      std::vector<std::string>* out) {
  if (expect == got) return;
  TupleSet missing, extra;
  std::set_difference(expect.begin(), expect.end(), got.begin(), got.end(),
                      std::inserter(missing, missing.begin()));
  std::set_difference(got.begin(), got.end(), expect.begin(), expect.end(),
                      std::inserter(extra, extra.begin()));
  out->push_back(what + " [" + engine + "]: missing=" + FormatTuples(missing) +
                 " extra=" + FormatTuples(extra));
}

}  // namespace

std::vector<std::string> CompareClassifiers(
    const Ontology& onto, const ClassifierDiffOptions& options) {
  std::vector<std::string> diffs;
  const Vocabulary& vocab = onto.vocab();
  const auto nc = static_cast<uint32_t>(vocab.NumConcepts());
  const auto nr = static_cast<uint32_t>(vocab.NumRoles());
  const auto na = static_cast<uint32_t>(vocab.NumAttributes());

  SubsumptionOracle oracle(onto.tbox(), vocab);
  core::Classification graph = core::Classify(onto.tbox(), vocab);
  completion::CompletionResult cb =
      completion::ClassifyWithCompletion(onto.tbox(), vocab);
  if (!cb.completed) {
    diffs.push_back("completion classifier did not complete");
    return diffs;
  }

  std::optional<uint32_t> mutated_concept;
  if (options.mutation.enabled()) {
    mutated_concept = vocab.FindConcept(options.mutation.drop_concept_supers_of);
  }

  for (uint32_t c = 0; c < nc; ++c) {
    std::vector<uint32_t> want = oracle.SuperConcepts(c);
    std::vector<uint32_t> graph_supers = graph.SuperConcepts(c);
    if (mutated_concept && *mutated_concept == c) graph_supers.clear();
    const std::string what = "SuperConcepts(" + vocab.ConceptName(c) + ")";
    CompareSets(what, want, graph_supers, "graph", &diffs);
    CompareSets(what, want, cb.concept_subsumers[c], "completion", &diffs);
  }
  for (uint32_t p = 0; p < nr; ++p) {
    std::vector<uint32_t> want = oracle.SuperRoles(p);
    const std::string what = "SuperRoles(" + vocab.RoleName(p) + ")";
    CompareSets(what, want, graph.SuperRoles(p), "graph", &diffs);
    CompareSets(what, want, cb.role_subsumers[p], "completion", &diffs);
  }
  for (uint32_t u = 0; u < na; ++u) {
    std::vector<uint32_t> want = oracle.SuperAttributes(u);
    const std::string what = "SuperAttributes(" + vocab.AttributeName(u) + ")";
    CompareSets(what, want, graph.SuperAttributes(u), "graph", &diffs);
    CompareSets(what, want, cb.attribute_subsumers[u], "completion", &diffs);
  }
  CompareSets("UnsatisfiableConcepts", oracle.UnsatisfiableConcepts(),
              graph.UnsatisfiableConcepts(), "graph", &diffs);
  CompareSets("UnsatisfiableConcepts", oracle.UnsatisfiableConcepts(),
              cb.unsatisfiable_concepts, "completion", &diffs);
  CompareSets("UnsatisfiableRoles", oracle.UnsatisfiableRoles(),
              graph.UnsatisfiableRoles(), "graph", &diffs);
  CompareSets("UnsatisfiableRoles", oracle.UnsatisfiableRoles(),
              cb.unsatisfiable_roles, "completion", &diffs);

  if (options.run_tableau) {
    auto owl = owl::OwlFromDlLite(onto.tbox(), vocab);
    reasoner::TableauClassifierOptions topts;
    topts.time_budget_ms = options.tableau_budget_ms;
    reasoner::TableauClassification tab =
        reasoner::ClassifyWithTableau(*owl, topts);
    if (tab.completed) {
      for (uint32_t c = 0; c < nc; ++c) {
        CompareSets("SuperConcepts(" + vocab.ConceptName(c) + ")",
                    oracle.SuperConcepts(c), tab.concept_subsumers[c],
                    "tableau", &diffs);
      }
      CompareSets("UnsatisfiableConcepts", oracle.UnsatisfiableConcepts(),
                  tab.unsatisfiable, "tableau", &diffs);
    }
    // A timed-out tableau is not a discrepancy (that is the paper's point);
    // the remaining engines still triangulate.
  }
  return diffs;
}

namespace {

// Compiles `w` once (classified rewriting) for the answer referees.
Result<std::shared_ptr<const obda::CompiledOntology>> CompileWorkload(
    const benchgen::Workload& w) {
  return obda::CompiledOntology::Compile(w.ontology, w.mappings, w.database,
                                         query::RewriteMode::kClassified);
}

// Engine options with no plan cache: every call runs the cold path.
obda::QueryEngineOptions Uncached() {
  obda::QueryEngineOptions options;
  options.plan_cache_capacity = 0;
  return options;
}

}  // namespace

std::vector<std::string> CheckAnswerPaths(const benchgen::Workload& w,
                                          const AnswerPathOptions& options) {
  std::vector<std::string> diffs;
  const Vocabulary& vocab = w.ontology.vocab();

  auto compiled = CompileWorkload(w);
  if (!compiled.ok()) {
    diffs.push_back("Compile failed: " + compiled.status().ToString());
    return diffs;
  }
  ChaseOracle chase(w.ontology.tbox(), vocab, w.abox, options.chase_depth);

  // Every path is one engine over the shared snapshot; only its cache and
  // plan-shaping options differ from the served defaults.
  obda::QueryEngineOptions columnar_opts;
  columnar_opts.engine = rdb::EvalEngine::kColumnar;
  obda::QueryEngineOptions nested_opts = Uncached();
  nested_opts.engine = rdb::EvalEngine::kNestedLoop;
  obda::QueryEngineOptions unpruned_opts = Uncached();
  unpruned_opts.disable_constraint_pruning = true;
  const obda::QueryEngine cached(*compiled);
  const obda::QueryEngine uncached(*compiled, Uncached());
  const obda::QueryEngine columnar(*compiled, columnar_opts);
  const obda::QueryEngine nested(*compiled, nested_opts);
  const obda::QueryEngine unpruned(*compiled, unpruned_opts);
  std::vector<std::unique_ptr<const obda::QueryEngine>> shuffled;
  for (uint64_t seed : options.join_order_seeds) {
    obda::QueryEngineOptions opts = Uncached();
    opts.engine = rdb::EvalEngine::kColumnar;
    opts.join_order_seed = seed;
    shuffled.push_back(
        std::make_unique<const obda::QueryEngine>(*compiled, opts));
  }

  for (const auto& cq : w.queries) {
    const std::string label = cq.ToString(vocab);

    auto chase_rows = chase.CertainAnswers(cq);
    const TupleSet want(chase_rows.begin(), chase_rows.end());

    // One path: answer on `engine`, compare with the chase answers.
    auto run = [&](const obda::QueryEngine& engine, const std::string& tag,
                   obda::AnswerStats* stats) -> std::optional<TupleSet> {
      auto rows = engine.Answer(cq, stats);
      if (!rows.ok()) {
        diffs.push_back(label + " [" + tag + "]: " +
                        rows.status().ToString());
        return std::nullopt;
      }
      TupleSet got(rows->begin(), rows->end());
      CompareTupleSets(label, want, got, tag, &diffs);
      return got;
    };

    auto direct = query::AnswerOverABox(cq, w.ontology.tbox(), w.abox, vocab,
                                        query::RewriteMode::kPerfectRef);
    if (!direct.ok()) {
      diffs.push_back(label + " [abox]: " + direct.status().ToString());
    } else {
      CompareTupleSets(label, want, TupleSet(direct->begin(), direct->end()),
                       "abox-eval", &diffs);
    }

    if (options.cache_paths) {
      // Replaying the query must hit the plan cache (the cold pass ran
      // unbudgeted, so its plan was exact and stored), and a hit must
      // rewrite nothing.
      obda::AnswerStats cold_stats;
      run(cached, "obda-sql", &cold_stats);
      obda::AnswerStats hot_stats;
      if (run(cached, "obda-cached", &hot_stats).has_value()) {
        if (cold_stats.cache.stored && !hot_stats.cache.hit) {
          diffs.push_back(label +
                          " [obda-cached]: stored plan was not reused");
        }
        if (hot_stats.cache.hit && hot_stats.rewrite.iterations != 0) {
          diffs.push_back(label +
                          " [obda-cached]: cache hit still rewrote the "
                          "query");
        }
      }
      run(uncached, "obda-uncached", nullptr);
    }

    if (options.evaluator_paths) {
      // Cold columnar compile, then a hot pass that exercises the cached
      // plan's precompiled programs.
      obda::AnswerStats cstats;
      if (run(columnar, "columnar", &cstats).has_value() &&
          cstats.sql_blocks > 0 &&
          std::string(cstats.eval.engine) != "columnar") {
        diffs.push_back(label + " [columnar]: stats report engine '" +
                        cstats.eval.engine + "'");
      }
      run(columnar, "columnar-cached", nullptr);
      run(nested, "nested-loop", nullptr);
    }

    // Metamorphic sweep: a randomised physical join order must not change
    // the answer set.
    for (size_t i = 0; i < shuffled.size(); ++i) {
      run(*shuffled[i],
          "columnar-seed" + std::to_string(options.join_order_seeds[i]),
          nullptr);
    }

    if (options.pruning_paths) {
      // Both pruning paths compile cold: the harness compares each path's
      // compilation, not a cached replay.
      obda::AnswerStats pruned_stats;
      auto pruned = run(uncached, "pruned", &pruned_stats);
      obda::AnswerStats unpruned_stats;
      auto plain = run(unpruned, "unpruned", &unpruned_stats);
      if (!pruned.has_value() || !plain.has_value()) continue;
      CompareTupleSets(label, *plain, *pruned, "pruned-vs-unpruned", &diffs);
      // Pruning must never *grow* the compiled union, and the unpruned
      // path must not report pruning work.
      if (pruned_stats.rewrite.final_disjuncts >
          unpruned_stats.rewrite.final_disjuncts) {
        diffs.push_back(
            label + ": pruned union has more disjuncts (" +
            std::to_string(pruned_stats.rewrite.final_disjuncts) +
            ") than unpruned (" +
            std::to_string(unpruned_stats.rewrite.final_disjuncts) + ")");
      }
      if (unpruned_stats.rewrite.pruned_disjuncts != 0 ||
          unpruned_stats.rewrite.pruned_unfoldings != 0) {
        diffs.push_back(label +
                        ": disable_constraint_pruning still reported pruning");
      }
      if (options.pruned_accumulator) {
        *options.pruned_accumulator += pruned_stats.rewrite.pruned_disjuncts +
                                       pruned_stats.rewrite.pruned_unfoldings;
      }
    }
  }
  return diffs;
}

std::vector<std::string> CheckPiMonotonicity(const Ontology& onto,
                                             uint64_t seed) {
  std::vector<std::string> diffs;
  const Vocabulary& vocab = onto.vocab();
  const auto nc = static_cast<uint32_t>(vocab.NumConcepts());
  const auto nr = static_cast<uint32_t>(vocab.NumRoles());
  if (nc < 2) return diffs;

  Ontology extended = onto;
  Rng rng(seed);
  // One random positive inclusion: A ⊑ B, Q1 ⊑ Q2, or A ⊑ ∃Q.
  uint64_t kind = rng.Uniform(nr >= 2 ? 3 : (nr >= 1 ? 2 : 1));
  if (kind == 2) {
    auto p = static_cast<uint32_t>(rng.Uniform(nr));
    auto q = static_cast<uint32_t>(rng.Uniform(nr - 1));
    if (q >= p) ++q;
    extended.tbox().AddRoleInclusion(
        {dllite::BasicRole::Direct(p), dllite::BasicRole::Direct(q), false});
  } else if (kind == 1) {
    auto a = static_cast<uint32_t>(rng.Uniform(nc));
    auto p = static_cast<uint32_t>(rng.Uniform(nr));
    extended.tbox().AddConceptInclusion(
        {dllite::BasicConcept::Atomic(a),
         dllite::RhsConcept::Positive(
             dllite::BasicConcept::Exists(dllite::BasicRole::Direct(p)))});
  } else {
    auto a = static_cast<uint32_t>(rng.Uniform(nc));
    auto b = static_cast<uint32_t>(rng.Uniform(nc - 1));
    if (b >= a) ++b;
    extended.tbox().AddConceptInclusion(
        {dllite::BasicConcept::Atomic(a),
         dllite::RhsConcept::Positive(dllite::BasicConcept::Atomic(b))});
  }

  core::Classification before = core::Classify(onto.tbox(), vocab);
  core::Classification after = core::Classify(extended.tbox(), vocab);

  auto check_subset = [&](const std::string& what,
                          const std::vector<uint32_t>& small,
                          const std::vector<uint32_t>& big) {
    if (!std::includes(big.begin(), big.end(), small.begin(), small.end())) {
      diffs.push_back(what + " shrank after adding a positive inclusion: " +
                      FormatIds(small) + " ⊄ " + FormatIds(big));
    }
  };
  for (uint32_t c = 0; c < nc; ++c) {
    check_subset("SuperConcepts(" + vocab.ConceptName(c) + ")",
                 before.SuperConcepts(c), after.SuperConcepts(c));
  }
  for (uint32_t p = 0; p < nr; ++p) {
    check_subset("SuperRoles(" + vocab.RoleName(p) + ")",
                 before.SuperRoles(p), after.SuperRoles(p));
  }
  check_subset("UnsatisfiableConcepts", before.UnsatisfiableConcepts(),
               after.UnsatisfiableConcepts());
  check_subset("UnsatisfiableRoles", before.UnsatisfiableRoles(),
               after.UnsatisfiableRoles());
  return diffs;
}

std::vector<std::string> CheckRenamingInvariance(const Ontology& onto,
                                                 uint64_t seed) {
  std::vector<std::string> diffs;
  const Vocabulary& vocab = onto.vocab();
  const auto nc = static_cast<uint32_t>(vocab.NumConcepts());
  const auto nr = static_cast<uint32_t>(vocab.NumRoles());
  const auto na = static_cast<uint32_t>(vocab.NumAttributes());

  // Permute intern order and prefix every name — a consistent renaming
  // that also scrambles the dense id assignment.
  Rng rng(seed);
  auto permutation = [&](uint32_t n) {
    std::vector<uint32_t> order(n);
    for (uint32_t i = 0; i < n; ++i) order[i] = i;
    rng.Shuffle(&order);
    return order;  // order[position] = old id interned at that position
  };
  std::vector<uint32_t> corder = permutation(nc), rorder = permutation(nr),
                        aorder = permutation(na);
  std::vector<uint32_t> cmap(nc), rmap(nr), amap(na);  // old id -> new id
  Ontology renamed;
  for (uint32_t i = 0; i < nc; ++i) {
    cmap[corder[i]] =
        renamed.DeclareConcept("rn_" + vocab.ConceptName(corder[i]));
  }
  for (uint32_t i = 0; i < nr; ++i) {
    rmap[rorder[i]] = renamed.DeclareRole("rn_" + vocab.RoleName(rorder[i]));
  }
  for (uint32_t i = 0; i < na; ++i) {
    amap[aorder[i]] =
        renamed.DeclareAttribute("rn_" + vocab.AttributeName(aorder[i]));
  }

  auto map_role = [&](dllite::BasicRole q) {
    return dllite::BasicRole{rmap[q.role], q.inverse};
  };
  auto map_basic = [&](const dllite::BasicConcept& b) {
    switch (b.kind) {
      case dllite::BasicConceptKind::kAtomic:
        return dllite::BasicConcept::Atomic(cmap[b.concept_id]);
      case dllite::BasicConceptKind::kExists:
        return dllite::BasicConcept::Exists(map_role(b.role));
      case dllite::BasicConceptKind::kAttrDomain:
        return dllite::BasicConcept::AttrDomain(amap[b.attribute]);
    }
    return b;
  };
  for (const auto& ax : onto.tbox().concept_inclusions()) {
    dllite::RhsConcept rhs;
    switch (ax.rhs.kind) {
      case dllite::RhsConceptKind::kBasic:
        rhs = dllite::RhsConcept::Positive(map_basic(ax.rhs.basic));
        break;
      case dllite::RhsConceptKind::kNegatedBasic:
        rhs = dllite::RhsConcept::Negated(map_basic(ax.rhs.basic));
        break;
      case dllite::RhsConceptKind::kQualifiedExists:
        rhs = dllite::RhsConcept::QualifiedExists(map_role(ax.rhs.role),
                                                  cmap[ax.rhs.filler]);
        break;
    }
    renamed.tbox().AddConceptInclusion({map_basic(ax.lhs), rhs});
  }
  for (const auto& ax : onto.tbox().role_inclusions()) {
    renamed.tbox().AddRoleInclusion(
        {map_role(ax.lhs), map_role(ax.rhs), ax.negated});
  }
  for (const auto& ax : onto.tbox().attribute_inclusions()) {
    renamed.tbox().AddAttributeInclusion(
        {amap[ax.lhs], amap[ax.rhs], ax.negated});
  }
  for (const auto& ax : onto.tbox().functionality()) {
    auto mapped = ax;
    if (ax.kind == dllite::FunctionalityAssertion::Kind::kRole) {
      mapped.role = map_role(ax.role);
    } else {
      mapped.attribute = amap[ax.attribute];
    }
    renamed.tbox().AddFunctionality(mapped);
  }

  core::Classification a = core::Classify(onto.tbox(), vocab);
  core::Classification b =
      core::Classify(renamed.tbox(), renamed.vocab());

  auto mapped_sorted = [](const std::vector<uint32_t>& ids,
                          const std::vector<uint32_t>& map) {
    std::vector<uint32_t> out;
    out.reserve(ids.size());
    for (uint32_t id : ids) out.push_back(map[id]);
    std::sort(out.begin(), out.end());
    return out;
  };
  for (uint32_t c = 0; c < nc; ++c) {
    auto want = mapped_sorted(a.SuperConcepts(c), cmap);
    auto got = b.SuperConcepts(cmap[c]);
    if (want != got) {
      diffs.push_back("SuperConcepts(" + vocab.ConceptName(c) +
                      ") not renaming-invariant: " + FormatIds(want) +
                      " vs " + FormatIds(got));
    }
  }
  for (uint32_t p = 0; p < nr; ++p) {
    auto want = mapped_sorted(a.SuperRoles(p), rmap);
    auto got = b.SuperRoles(rmap[p]);
    if (want != got) {
      diffs.push_back("SuperRoles(" + vocab.RoleName(p) +
                      ") not renaming-invariant: " + FormatIds(want) +
                      " vs " + FormatIds(got));
    }
  }
  auto want_unsat = mapped_sorted(a.UnsatisfiableConcepts(), cmap);
  if (want_unsat != b.UnsatisfiableConcepts()) {
    diffs.push_back("UnsatisfiableConcepts not renaming-invariant");
  }
  return diffs;
}

std::vector<std::string> CheckBudgetMonotonicity(
    const benchgen::Workload& w, const obda::AnswerOptions& options,
    const std::function<void()>& between_passes) {
  std::vector<std::string> diffs;
  const Vocabulary& vocab = w.ontology.vocab();
  auto compiled = CompileWorkload(w);
  if (!compiled.ok()) {
    diffs.push_back("Compile failed: " + compiled.status().ToString());
    return diffs;
  }

  // The baseline runs on an engine with no cache, so the budgeted pass
  // below (on its own, initially empty cache) runs the full cold pipeline
  // — otherwise a cached plan would skip the rewrite/unfold stages whose
  // budget (and fault-site) behaviour this harness exists to check.
  const obda::QueryEngine baseline(*compiled, Uncached());
  const obda::QueryEngine budgeted(*compiled);
  std::vector<std::optional<TupleSet>> full(w.queries.size());
  for (size_t i = 0; i < w.queries.size(); ++i) {
    auto rows = baseline.Answer(w.queries[i]);
    if (rows.ok()) full[i] = TupleSet(rows->begin(), rows->end());
  }
  if (between_passes) between_passes();

  for (size_t i = 0; i < w.queries.size(); ++i) {
    if (!full[i].has_value()) continue;  // no clean baseline for this query
    obda::AnswerStats stats;
    auto rows = budgeted.Answer(w.queries[i], options, &stats);
    if (!rows.ok()) continue;  // a clean failure is an acceptable outcome
    TupleSet degraded(rows->begin(), rows->end());
    TupleSet extra;
    std::set_difference(degraded.begin(), degraded.end(), full[i]->begin(),
                        full[i]->end(), std::inserter(extra, extra.begin()));
    if (!extra.empty()) {
      diffs.push_back(w.queries[i].ToString(vocab) +
                      ": degraded answers are not a subset, extra=" +
                      FormatTuples(extra));
    }
  }
  return diffs;
}

std::vector<std::string> CheckApproxSoundness(const benchgen::Workload& w) {
  std::vector<std::string> diffs;
  const Vocabulary& vocab = w.ontology.vocab();
  if (vocab.NumAttributes() > 0) return diffs;  // documented skip

  auto owl = owl::OwlFromDlLite(w.ontology.tbox(), vocab);
  auto approx = approx::SemanticApproximation(*owl);
  if (!approx.ok()) {
    diffs.push_back("SemanticApproximation failed: " +
                    approx.status().ToString());
    return diffs;
  }
  dllite::Ontology& ap = approx->ontology;

  // Rebuild the ABox in the approximated ontology's id space (names are
  // preserved; predicates absent from the approximation carry no facts).
  dllite::ABox ap_abox;
  for (const auto& a : w.abox.concept_assertions()) {
    auto c = ap.vocab().FindConcept(vocab.ConceptName(a.concept_id));
    if (!c) continue;
    ap_abox.AddConceptAssertion(
        {*c, ap.vocab().InternIndividual(vocab.IndividualName(a.individual))});
  }
  for (const auto& a : w.abox.role_assertions()) {
    auto p = ap.vocab().FindRole(vocab.RoleName(a.role));
    if (!p) continue;
    ap_abox.AddRoleAssertion(
        {*p, ap.vocab().InternIndividual(vocab.IndividualName(a.subject)),
         ap.vocab().InternIndividual(vocab.IndividualName(a.object))});
  }

  for (const auto& cq : w.queries) {
    // Remap the query; an atom over a predicate the approximation dropped
    // entirely makes the approximated answer set empty — trivially sound.
    query::ConjunctiveQuery mapped = cq;
    bool droppable = false;
    for (auto& atom : mapped.atoms) {
      std::optional<uint32_t> id;
      switch (atom.kind) {
        case query::Atom::Kind::kConcept:
          id = ap.vocab().FindConcept(vocab.ConceptName(atom.predicate));
          break;
        case query::Atom::Kind::kRole:
          id = ap.vocab().FindRole(vocab.RoleName(atom.predicate));
          break;
        case query::Atom::Kind::kAttribute:
          id = ap.vocab().FindAttribute(vocab.AttributeName(atom.predicate));
          break;
      }
      if (!id) {
        droppable = true;
        break;
      }
      atom.predicate = *id;
    }
    if (droppable) continue;

    auto ap_rows = query::AnswerOverABox(mapped, ap.tbox(), ap_abox,
                                         ap.vocab(),
                                         query::RewriteMode::kPerfectRef);
    auto rows = query::AnswerOverABox(cq, w.ontology.tbox(), w.abox, vocab,
                                      query::RewriteMode::kPerfectRef);
    if (!ap_rows.ok() || !rows.ok()) {
      diffs.push_back(cq.ToString(vocab) + ": approx answering failed");
      continue;
    }
    TupleSet approx_set(ap_rows->begin(), ap_rows->end());
    TupleSet full_set(rows->begin(), rows->end());
    TupleSet extra;
    std::set_difference(approx_set.begin(), approx_set.end(),
                        full_set.begin(), full_set.end(),
                        std::inserter(extra, extra.begin()));
    if (!extra.empty()) {
      diffs.push_back(cq.ToString(vocab) +
                      ": approximated answers unsound, extra=" +
                      FormatTuples(extra));
    }
  }
  return diffs;
}

std::vector<std::string> CheckSwapLinearizability(
    const benchgen::Workload& w, uint64_t seed,
    const SwapLinearizabilityOptions& options) {
  std::vector<std::string> diffs;
  const Vocabulary& vocab = w.ontology.vocab();
  if (w.queries.empty()) return diffs;

  // Snapshot B: same ontology and mappings over a perturbed database — a
  // deterministic (seeded) subset of rows dropped. The schema is intact,
  // so the mappings still validate; only the answers move.
  rdb::Database perturbed;
  {
    Rng rng(seed ^ 0x5AFE5EEDULL);
    for (const auto& [name, table] : w.database.tables()) {
      (void)perturbed.CreateTable(table.schema());
      for (const auto& row : table.rows()) {
        if (rng.Chance(options.drop_fraction)) continue;
        (void)perturbed.Insert(name, row);
      }
    }
  }

  auto snap_a =
      obda::CompiledOntology::Compile(w.ontology, w.mappings, w.database);
  if (!snap_a.ok()) {
    diffs.push_back("compile snapshot A failed: " +
                    snap_a.status().ToString());
    return diffs;
  }
  auto snap_b =
      obda::CompiledOntology::Compile(w.ontology, w.mappings, perturbed);
  if (!snap_b.ok()) {
    diffs.push_back("compile snapshot B failed: " +
                    snap_b.status().ToString());
    return diffs;
  }

  // Quiescent oracle: the exact answer set of every query on each
  // snapshot, computed before any concurrency starts.
  obda::QueryEngineOptions qopts;
  qopts.enable_metrics = false;
  obda::QueryEngine oracle_a(*snap_a, qopts);
  obda::QueryEngine oracle_b(*snap_b, qopts);
  std::vector<TupleSet> want_a, want_b;
  for (const auto& cq : w.queries) {
    auto ra = oracle_a.Answer(cq);
    auto rb = oracle_b.Answer(cq);
    if (!ra.ok() || !rb.ok()) {
      diffs.push_back(cq.ToString(vocab) + ": oracle answering failed");
      return diffs;
    }
    want_a.emplace_back(ra->begin(), ra->end());
    want_b.emplace_back(rb->begin(), rb->end());
  }

  // The serving engine starts on A (epoch 1); the swapper alternates
  // B, A, B, … so odd epochs always serve A and even epochs B.
  obda::ServingEngineOptions sopts;
  sopts.engine.enable_metrics = false;
  obda::ServingEngine serving(*snap_a, sopts);

  std::mutex mu;  // guards diffs from the answer threads
  auto check_one = [&](size_t qi) {
    obda::AnswerStats stats;
    auto got = serving.Answer(w.queries[qi], obda::AnswerOptions{}, &stats);
    std::lock_guard<std::mutex> lock(mu);
    if (!got.ok()) {
      diffs.push_back(w.queries[qi].ToString(vocab) +
                      " [serving]: " + got.status().ToString());
      return;
    }
    const bool on_a = stats.serve.epoch % 2 == 1;
    const TupleSet& want = on_a ? want_a[qi] : want_b[qi];
    CompareTupleSets(
        w.queries[qi].ToString(vocab) + " (epoch " +
            std::to_string(stats.serve.epoch) + ")",
        want, TupleSet(got->begin(), got->end()),
        on_a ? "serving-on-A" : "serving-on-B", &diffs);
  };

  std::vector<std::thread> answerers;
  answerers.reserve(options.threads);
  for (size_t t = 0; t < options.threads; ++t) {
    answerers.emplace_back([&, t] {
      for (size_t i = 0; i < options.answers_per_thread; ++i) {
        check_one((t + i) % w.queries.size());
      }
    });
  }
  for (size_t s = 0; s < options.swaps; ++s) {
    serving.Swap(s % 2 == 0 ? *snap_b : *snap_a);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& th : answerers) th.join();

  // Post-churn quiescent pass: the surviving epoch must serve its oracle
  // answers exactly (and report the expected final epoch).
  const uint64_t final_epoch = serving.epoch();
  if (final_epoch != options.swaps + 1) {
    diffs.push_back("expected final epoch " +
                    std::to_string(options.swaps + 1) + ", got " +
                    std::to_string(final_epoch));
  }
  for (size_t qi = 0; qi < w.queries.size(); ++qi) {
    check_one(qi);
  }
  return diffs;
}

namespace {

/// Two snapshots that must agree are queried with identical caps.
/// Rewriting is deterministic, so both sides either finish inside the
/// budget (and must then return the same tuples) or both exhaust it; that
/// pair of failures is agreement. Any other failure on either side is
/// reported.
bool BothExhausted(const Status& a, const Status& b) {
  return a.code() == StatusCode::kResourceExhausted &&
         b.code() == StatusCode::kResourceExhausted;
}

/// The inputs of a snapshot's compile stages, rendered for exact
/// comparison: the TBox text and signature sizes, the mapping assertions
/// in order (as `SelectorFor` renders them), and every table's columns
/// with its row and distinct counts.
struct StageInputs {
  std::string tbox;
  std::string mappings;
  std::string schema;
};

StageInputs RenderStageInputs(const obda::CompiledOntology& co) {
  StageInputs out;
  const Vocabulary& v = co.ontology().vocab();
  out.tbox = co.ontology().tbox().ToString(v) + "|" +
             std::to_string(v.NumConcepts()) + "/" +
             std::to_string(v.NumRoles()) + "/" +
             std::to_string(v.NumAttributes());
  for (const mapping::MappingAssertion& m : co.mappings().assertions()) {
    const obda::OntologyDelta::MappingSelector sel = obda::SelectorFor(m);
    out.mappings += std::to_string(static_cast<int>(sel.kind)) + " " +
                    std::to_string(sel.predicate) + " " + sel.sql + "\n";
  }
  for (const auto& [name, table] : co.database().tables()) {
    out.schema += name + "(";
    for (const auto& col : table.schema().columns) {
      out.schema += col.name + " ";
    }
    out.schema += ")";
    if (const rdb::TableStats* ts = co.db_stats().Find(name)) {
      out.schema += " rows=" + std::to_string(ts->rows) + " distinct=";
      for (const rdb::ColumnStats& cs : ts->columns) {
        out.schema += std::to_string(cs.distinct) + ",";
      }
    }
    out.schema += "\n";
  }
  return out;
}

/// Structural comparison of a refreshed snapshot against the from-scratch
/// compile of the same edited specification: stage inputs (TBox,
/// mappings, schema and statistics), classification listings, constraint
/// summary + per-view facts + per-predicate oracle answers, and the
/// answers of every workload query.
void CompareCompiled(const std::string& tag,
                     const std::shared_ptr<const obda::CompiledOntology>& sp,
                     const std::shared_ptr<const obda::CompiledOntology>& rp,
                     const std::vector<query::ConjunctiveQuery>& queries,
                     const Vocabulary& vocab,
                     std::vector<std::string>* diffs) {
  const obda::CompiledOntology& scratch = *sp;
  const obda::CompiledOntology& refreshed = *rp;
  const StageInputs is = RenderStageInputs(scratch);
  const StageInputs ir = RenderStageInputs(refreshed);
  if (is.tbox != ir.tbox) diffs->push_back(tag + ": TBoxes diverge");
  if (is.mappings != ir.mappings) {
    diffs->push_back(tag + ": mapping programs diverge");
  }
  if (is.schema != ir.schema) {
    diffs->push_back(tag + ": schemas or statistics diverge");
  }

  const core::Classification* cs = scratch.classification();
  const core::Classification* cr = refreshed.classification();
  if ((cs == nullptr) != (cr == nullptr)) {
    diffs->push_back(tag + ": classification presence differs");
  } else if (cs != nullptr) {
    for (uint32_t a = 0; a < vocab.NumConcepts(); ++a) {
      CompareSets(tag + ": supers(" + vocab.ConceptName(a) + ")",
                  cs->SuperConcepts(a), cr->SuperConcepts(a), "refresh",
                  diffs);
    }
    for (uint32_t p = 0; p < vocab.NumRoles(); ++p) {
      CompareSets(tag + ": super-roles(" + vocab.RoleName(p) + ")",
                  cs->SuperRoles(p), cr->SuperRoles(p), "refresh", diffs);
    }
    for (uint32_t u = 0; u < vocab.NumAttributes(); ++u) {
      CompareSets(tag + ": super-attrs(" + vocab.AttributeName(u) + ")",
                  cs->SuperAttributes(u), cr->SuperAttributes(u), "refresh",
                  diffs);
    }
    CompareSets(tag + ": unsat concepts", cs->UnsatisfiableConcepts(),
                cr->UnsatisfiableConcepts(), "refresh", diffs);
    CompareSets(tag + ": unsat roles", cs->UnsatisfiableRoles(),
                cr->UnsatisfiableRoles(), "refresh", diffs);
    CompareSets(tag + ": unsat attrs", cs->UnsatisfiableAttributes(),
                cr->UnsatisfiableAttributes(), "refresh", diffs);
  }

  const obda::SourceConstraints& ks = scratch.constraints();
  const obda::SourceConstraints& kr = refreshed.constraints();
  if (ks.summary().ToString() != kr.summary().ToString()) {
    diffs->push_back(tag + ": constraint summaries diverge: scratch=" +
                     ks.summary().ToString() +
                     " refresh=" + kr.summary().ToString());
  }
  for (size_t i = 0; i < scratch.mappings().size(); ++i) {
    if (ks.EmptyView(i) != kr.EmptyView(i) ||
        ks.DominatedView(i) != kr.DominatedView(i)) {
      diffs->push_back(tag + ": view facts diverge at assertion " +
                       std::to_string(i));
    }
  }
  const std::pair<query::Atom::Kind, uint32_t> sorts[] = {
      {query::Atom::Kind::kConcept, static_cast<uint32_t>(vocab.NumConcepts())},
      {query::Atom::Kind::kRole, static_cast<uint32_t>(vocab.NumRoles())},
      {query::Atom::Kind::kAttribute,
       static_cast<uint32_t>(vocab.NumAttributes())}};
  for (const auto& [kind, n] : sorts) {
    for (uint32_t pred = 0; pred < n; ++pred) {
      if (ks.Empty(kind, pred) != kr.Empty(kind, pred) ||
          ks.ExactMapping(kind, pred) != kr.ExactMapping(kind, pred)) {
        diffs->push_back(tag + ": predicate facts diverge at kind " +
                         std::to_string(static_cast<int>(kind)) + " pred " +
                         std::to_string(pred));
      }
    }
    if (n > 96) continue;  // pairwise sweep only for small signatures
    for (uint32_t sub = 0; sub < n; ++sub) {
      for (uint32_t sup = 0; sup < n; ++sup) {
        if (ks.Included(kind, sub, sup) != kr.Included(kind, sub, sup) ||
            (kind == query::Atom::Kind::kRole &&
             ks.IncludedInverse(kind, sub, sup) !=
                 kr.IncludedInverse(kind, sub, sup))) {
          diffs->push_back(tag + ": inclusion facts diverge at kind " +
                           std::to_string(static_cast<int>(kind)) + " " +
                           std::to_string(sub) + "⊆" + std::to_string(sup));
        }
      }
    }
  }

  obda::QueryEngineOptions qopts;
  qopts.enable_metrics = false;
  obda::QueryEngine engine_s(sp, qopts);
  obda::QueryEngine engine_r(rp, qopts);
  // The caps bound the rare delta chain whose accumulated axioms make
  // rewriting explode (see BothExhausted).
  obda::AnswerOptions aopts;
  aopts.max_rewrite_iterations = 2000;
  aopts.max_containment_checks = 100000;
  aopts.max_sql_blocks = 2000;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto got_s = engine_s.Answer(queries[qi], aopts);
    auto got_r = engine_r.Answer(queries[qi], aopts);
    if (!got_s.ok() || !got_r.ok()) {
      if (!BothExhausted(got_s.status(), got_r.status())) {
        diffs->push_back(tag + ": " + queries[qi].ToString(vocab) +
                         ": outcome diverges: scratch=" +
                         got_s.status().ToString() +
                         " refresh=" + got_r.status().ToString());
      }
      continue;
    }
    CompareTupleSets(tag + ": " + queries[qi].ToString(vocab),
                     TupleSet(got_s->begin(), got_s->end()),
                     TupleSet(got_r->begin(), got_r->end()), "refresh",
                     diffs);
  }
}

}  // namespace

std::vector<std::string> CheckDeltaCompile(const benchgen::Workload& w,
                                           const DeltaCompileOptions& options) {
  std::vector<std::string> diffs;
  const Vocabulary& vocab = w.ontology.vocab();
  const auto deltas = benchgen::GenerateDeltaSequence(w, options.sequence);

  auto base = obda::CompiledOntology::Compile(w.ontology, w.mappings,
                                              w.database, options.mode);
  if (!base.ok()) {
    diffs.push_back("compile base failed: " + base.status().ToString());
    return diffs;
  }
  std::shared_ptr<const obda::CompiledOntology> chained = *base;

  // The scratch side tracks the edited specification independently.
  dllite::Ontology onto = w.ontology;
  mapping::MappingSet mappings = w.mappings;

  for (size_t di = 0; di < deltas.size(); ++di) {
    const std::string tag = "delta[" + std::to_string(di) + "]";
    auto next_tbox = obda::ApplyTBoxDelta(onto.tbox(), deltas[di]);
    if (!next_tbox.ok()) {
      diffs.push_back(tag + ": apply tbox failed: " +
                      next_tbox.status().ToString());
      return diffs;
    }
    onto.tbox() = *std::move(next_tbox);
    auto next_maps = obda::ApplyMappingDelta(mappings, deltas[di]);
    if (!next_maps.ok()) {
      diffs.push_back(tag + ": apply mappings failed: " +
                      next_maps.status().ToString());
      return diffs;
    }
    mappings = *std::move(next_maps);

    auto refreshed = obda::CompiledOntology::Refresh(chained, deltas[di]);
    if (!refreshed.ok()) {
      diffs.push_back(tag + ": refresh failed: " +
                      refreshed.status().ToString());
      return diffs;
    }
    auto scratch = obda::CompiledOntology::Compile(onto, mappings, w.database,
                                                   options.mode);
    if (!scratch.ok()) {
      diffs.push_back(tag + ": scratch compile failed: " +
                      scratch.status().ToString());
      return diffs;
    }

    CompareCompiled(tag, *scratch, *refreshed, w.queries, vocab, &diffs);

    // Selective-invalidation contract: a query touching none of the
    // delta's changed predicates must answer on the refreshed snapshot
    // exactly as it did on the base — this is what lets the serving layer
    // migrate its cached plan instead of dropping it.
    const obda::RefreshInfo& info = (*refreshed)->refresh_info();
    obda::QueryEngineOptions qopts;
    qopts.enable_metrics = false;
    obda::QueryEngine engine_base(chained, qopts);
    obda::QueryEngine engine_next(*refreshed, qopts);
    obda::AnswerOptions aopts;
    aopts.max_rewrite_iterations = 2000;
    aopts.max_containment_checks = 100000;
    aopts.max_sql_blocks = 2000;
    for (const auto& cq : w.queries) {
      bool touched = false;
      for (const auto& atom : cq.atoms) {
        const uint64_t token =
            (static_cast<uint64_t>(atom.kind) << 32) | atom.predicate;
        if (std::binary_search(info.changed_preds.begin(),
                               info.changed_preds.end(), token)) {
          touched = true;
          break;
        }
      }
      if (touched) continue;
      // Same caps as CompareCompiled: an untouched query rewrites
      // identically on both snapshots (see BothExhausted).
      auto got_base = engine_base.Answer(cq, aopts);
      auto got_next = engine_next.Answer(cq, aopts);
      if (!got_base.ok() || !got_next.ok()) {
        if (!BothExhausted(got_base.status(), got_next.status())) {
          diffs.push_back(tag + ": " + cq.ToString(vocab) +
                          ": unchanged-predicate outcome diverges: base=" +
                          got_base.status().ToString() +
                          " refresh=" + got_next.status().ToString());
        }
        continue;
      }
      CompareTupleSets(
          tag + ": " + cq.ToString(vocab) + " (unchanged preds)",
          TupleSet(got_base->begin(), got_base->end()),
          TupleSet(got_next->begin(), got_next->end()), "refresh-vs-base",
          &diffs);
    }

    if (!diffs.empty()) return diffs;  // report the first bad generation
    chained = *refreshed;
  }
  return diffs;
}

}  // namespace olite::testkit
