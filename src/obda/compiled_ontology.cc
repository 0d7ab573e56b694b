#include "obda/compiled_ontology.h"

#include <algorithm>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "core/tbox_graph.h"

namespace olite::obda {

namespace {

using query::Atom;

uint64_t PredToken(Atom::Kind kind, uint32_t id) {
  return (static_cast<uint64_t>(kind) << 32) | id;
}

Atom::Kind AtomKindOf(mapping::TargetKind kind) {
  switch (kind) {
    case mapping::TargetKind::kConcept: return Atom::Kind::kConcept;
    case mapping::TargetKind::kRole: return Atom::Kind::kRole;
    case mapping::TargetKind::kAttribute: return Atom::Kind::kAttribute;
  }
  return Atom::Kind::kConcept;
}

/// All digraph nodes through which predicate `(kind, id)` can enter a
/// rewriting: the concept node, the four nodes of a role block (direct,
/// inverse, both unqualified existentials), or the attribute node plus its
/// domain δ(U).
void SeedPredNodes(const core::NodeTable& nt, Atom::Kind kind, uint32_t id,
                   std::vector<graph::NodeId>* seeds) {
  switch (kind) {
    case Atom::Kind::kConcept:
      seeds->push_back(nt.OfConcept(id));
      break;
    case Atom::Kind::kRole:
      seeds->push_back(nt.OfRole({id, false}));
      seeds->push_back(nt.OfRole({id, true}));
      seeds->push_back(nt.OfExists({id, false}));
      seeds->push_back(nt.OfExists({id, true}));
      break;
    case Atom::Kind::kAttribute:
      seeds->push_back(nt.OfAttribute(id));
      seeds->push_back(nt.OfAttrDomain(id));
      break;
  }
}

uint64_t TokenOfNode(const core::NodeTable& nt, graph::NodeId n) {
  switch (nt.KindOf(n)) {
    case core::NodeKind::kConcept:
      return PredToken(Atom::Kind::kConcept, nt.ConceptOf(n));
    case core::NodeKind::kRole:
    case core::NodeKind::kExists:
      return PredToken(Atom::Kind::kRole, nt.RoleOf(n).role);
    case core::NodeKind::kAttribute:
    case core::NodeKind::kAttrDomain:
      return PredToken(Atom::Kind::kAttribute, nt.AttributeOf(n));
  }
  return 0;
}

using QeTuple = std::tuple<graph::NodeId, uint32_t, bool, uint32_t>;

std::vector<QeTuple> QeTuples(const core::TBoxGraph& g) {
  std::vector<QeTuple> out;
  out.reserve(g.qualified_existentials.size());
  for (const core::QualifiedExistentialAxiom& qe : g.qualified_existentials) {
    out.emplace_back(qe.lhs, qe.role.role, qe.role.inverse, qe.filler);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Bounds the predicates whose compiled plans (rewrite → minimise →
/// unfold) may differ between `base` and `next`, as sorted PredToken
/// values. `next` is a refresh of `base`, so both share one vocabulary
/// (hence one node layout) and one database. The set is the forward
/// closure, over the *union* of the two TBox digraphs, of every change
/// seed:
///
///  * heads of arcs present in exactly one graph — the rewriting of an
///    original atom `a` depends on the nodes that reach `a`, and a
///    changed arc `(u,v)` alters that set only for atoms forward-reachable
///    from `v` in one of the graphs (both ⊆ the union closure of `v`);
///  * nodes of qualified-existential axioms present in exactly one index
///    (their rewriting steps fall outside the pure arc encoding);
///  * nodes of predicates whose mapping assertions the delta edits (their
///    unfolding changes wherever they appear in a UCQ — exactly the atoms
///    forward-reachable from them);
///  * nodes of predicates whose source-constraint facts flipped (their
///    pruning changes wherever they appear).
std::vector<uint64_t> ComputeChangedPreds(const CompiledOntology& base,
                                          const CompiledOntology& next,
                                          const OntologyDelta& delta) {
  // A TBox delta that leaves the digraph as it was yields empty arc and
  // qualified-existential diffs below, hence no seeds.
  const bool tbox_changed = !delta.TBoxEmpty();

  // TBox digraphs: reuse the classification's when one exists, else build
  // (linear in the TBox).
  std::optional<core::TBoxGraph> base_built;
  std::optional<core::TBoxGraph> next_built;
  const core::TBoxGraph* ng;
  if (next.classification() != nullptr) {
    ng = &next.classification()->tbox_graph();
  } else {
    next_built.emplace(
        core::BuildTBoxGraph(next.ontology().tbox(), next.ontology().vocab()));
    ng = &*next_built;
  }
  const core::TBoxGraph* bg = ng;  // identical graphs when tbox unchanged
  if (tbox_changed) {
    if (base.classification() != nullptr) {
      bg = &base.classification()->tbox_graph();
    } else {
      base_built.emplace(core::BuildTBoxGraph(base.ontology().tbox(),
                                              base.ontology().vocab()));
      bg = &*base_built;
    }
  }
  const core::NodeTable& nt = ng->nodes;
  const graph::NodeId n = nt.NumNodes();

  std::vector<graph::NodeId> seeds;
  if (tbox_changed) {
    for (graph::NodeId u = 0; u < n; ++u) {
      const std::span<const graph::NodeId> bs = bg->digraph.Successors(u);
      const std::span<const graph::NodeId> ns = ng->digraph.Successors(u);
      if (std::ranges::equal(bs, ns)) continue;
      std::set_symmetric_difference(bs.begin(), bs.end(), ns.begin(), ns.end(),
                                    std::back_inserter(seeds));
    }
    std::vector<QeTuple> bq = QeTuples(*bg);
    std::vector<QeTuple> nq = QeTuples(*ng);
    std::vector<QeTuple> qe_diff;
    std::set_symmetric_difference(bq.begin(), bq.end(), nq.begin(), nq.end(),
                                  std::back_inserter(qe_diff));
    for (const QeTuple& qe : qe_diff) {
      seeds.push_back(std::get<0>(qe));
      SeedPredNodes(nt, Atom::Kind::kRole, std::get<1>(qe), &seeds);
      seeds.push_back(nt.OfConcept(std::get<3>(qe)));
    }
  }
  for (const mapping::MappingAssertion& m : delta.add_mappings) {
    SeedPredNodes(nt, AtomKindOf(m.kind), m.predicate, &seeds);
  }
  for (const OntologyDelta::MappingSelector& sel : delta.remove_mappings) {
    SeedPredNodes(nt, AtomKindOf(sel.kind), sel.predicate, &seeds);
  }
  if (&base.constraints() != &next.constraints()) {
    for (uint64_t token : base.constraints().DiffAffectedPreds(
             next.constraints(), base.mappings(), next.mappings())) {
      SeedPredNodes(nt, static_cast<Atom::Kind>(token >> 32),
                    static_cast<uint32_t>(token), &seeds);
    }
  }

  // Forward BFS over the union of the two digraphs.
  std::vector<uint8_t> visited(n, 0);
  std::vector<graph::NodeId> stack;
  for (graph::NodeId s : seeds) {
    if (s < n && !visited[s]) {
      visited[s] = 1;
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    graph::NodeId u = stack.back();
    stack.pop_back();
    for (const graph::Digraph* g : {&bg->digraph, &ng->digraph}) {
      for (graph::NodeId v : g->Successors(u)) {
        if (!visited[v]) {
          visited[v] = 1;
          stack.push_back(v);
        }
      }
    }
  }
  std::vector<uint64_t> out;
  for (graph::NodeId u = 0; u < n; ++u) {
    if (visited[u]) out.push_back(TokenOfNode(nt, u));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

void CompiledOntology::BuildRewriter() {
  query::RewriterOptions options;
  options.mode = mode_;
  options.constraints = constraints_.get();
  options.classification = classification_;
  rewriter_.emplace(ontology_->tbox(), ontology_->vocab(), options);
}

Result<std::shared_ptr<const CompiledOntology>> CompiledOntology::Compile(
    dllite::Ontology ontology, mapping::MappingSet mappings,
    rdb::Database database, query::RewriteMode mode) {
  // Fault site for the hot-swap path: a failed snapshot build must leave a
  // ServingEngine on its previous epoch with traffic unaffected.
  OLITE_RETURN_IF_ERROR(fault::InjectAt(fault::Site::kSnapshotBuild));
  OLITE_RETURN_IF_ERROR(mappings.Validate(database));
  OLITE_RETURN_IF_ERROR(
      CheckFunctionalityRestriction(ontology.tbox(), ontology.vocab()));
  auto co = std::shared_ptr<CompiledOntology>(new CompiledOntology);
  co->ontology_ = std::make_shared<const dllite::Ontology>(std::move(ontology));
  co->mappings_ =
      std::make_shared<const mapping::MappingSet>(std::move(mappings));
  co->mode_ = mode;
  co->database_ =
      std::make_shared<const rdb::Database>(std::move(database));
  co->db_stats_ = std::make_shared<const rdb::DatabaseStats>(
      rdb::DatabaseStats::Collect(*co->database_));
  ConstraintInferenceOptions copts;
  // Retained view extensions are what make a later Refresh skip the
  // unchanged views' SQL.
  copts.retain_view_extensions = true;
  co->constraints_ = std::shared_ptr<const SourceConstraints>(
      SourceConstraints::Infer(*co->mappings_, *co->database_,
                               *co->db_stats_, copts));
  if (mode == query::RewriteMode::kClassified) {
    co->classification_ = std::make_shared<const core::Classification>(
        core::Classify(co->ontology_->tbox(), co->ontology_->vocab()));
  }
  co->BuildRewriter();
  return std::shared_ptr<const CompiledOntology>(std::move(co));
}

Result<std::shared_ptr<const CompiledOntology>> CompiledOntology::Refresh(
    const std::shared_ptr<const CompiledOntology>& base,
    const OntologyDelta& delta) {
  if (base == nullptr) {
    return Status::InvalidArgument("Refresh needs a base snapshot");
  }
  // Same fault site as Compile: a failed refresh must be as harmless to a
  // ServingEngine as a failed build.
  OLITE_RETURN_IF_ERROR(fault::InjectAt(fault::Site::kSnapshotBuild));
  const bool tbox_changed = !delta.TBoxEmpty();
  const bool mappings_changed = !delta.MappingsEmpty();

  auto co = std::shared_ptr<CompiledOntology>(new CompiledOntology);
  RefreshInfo& info = co->refresh_info_;
  co->mode_ = base->mode_;

  // Stage: schema + statistics. The database is frozen, so these are
  // shared unconditionally.
  co->database_ = base->database_;
  co->db_stats_ = base->db_stats_;
  ++info.reused_stages;

  // Stage: ontology. A TBox delta copies the vocabulary beside the edited
  // TBox; otherwise the base's ontology is shared whole.
  if (tbox_changed) {
    OLITE_ASSIGN_OR_RETURN(dllite::TBox next_tbox,
                           ApplyTBoxDelta(base->ontology().tbox(), delta));
    OLITE_RETURN_IF_ERROR(
        CheckFunctionalityRestriction(next_tbox, base->ontology().vocab()));
    auto ontology = std::make_shared<dllite::Ontology>();
    ontology->vocab() = base->ontology().vocab();
    ontology->tbox() = std::move(next_tbox);
    ontology->abox() = base->ontology().abox();
    co->ontology_ = std::move(ontology);
  } else {
    co->ontology_ = base->ontology_;
  }

  // Stage: parsed mapping program. The base assertions were validated
  // against the same frozen database, so only the appended tail is.
  if (mappings_changed) {
    OLITE_ASSIGN_OR_RETURN(mapping::MappingSet mappings,
                           ApplyMappingDelta(base->mappings(), delta));
    for (size_t i = mappings.size() - delta.add_mappings.size();
         i < mappings.size(); ++i) {
      OLITE_RETURN_IF_ERROR(mappings.ValidateAssertion(i, *co->database_));
    }
    co->mappings_ =
        std::make_shared<const mapping::MappingSet>(std::move(mappings));
  } else {
    co->mappings_ = base->mappings_;
    ++info.reused_stages;
  }

  // Stage: source constraints. Untouched mappings over the same frozen
  // database infer the identical object; otherwise only the views whose
  // fingerprint changed are re-executed.
  if (!mappings_changed) {
    co->constraints_ = base->constraints_;
    ++info.reused_stages;
  } else {
    ConstraintInferenceOptions copts;
    copts.retain_view_extensions = true;
    co->constraints_ = std::shared_ptr<const SourceConstraints>(
        SourceConstraints::Refresh(*base->constraints_, *co->mappings_,
                                   *co->database_, *co->db_stats_, copts,
                                   &info.reused_views));
  }

  // Stage: classification closure.
  if (!tbox_changed) {
    co->classification_ = base->classification_;
    ++info.reused_stages;
  } else if (base->classification_ != nullptr) {
    core::RefreshStats rstats;
    co->classification_ = std::make_shared<const core::Classification>(
        core::RefreshClassification(*base->classification_,
                                    co->ontology_->tbox(),
                                    co->ontology_->vocab(), &rstats));
    info.fell_back_scratch = rstats.fell_back_scratch;
    info.patched_nodes = rstats.patched_nodes;
  }
  // (kPerfectRef with a TBox delta: no closure exists; the rewriter's
  // asserted-axiom index below is rebuilt, which is already linear.)

  if (!tbox_changed && !mappings_changed) {
    // Nothing the rewriter reads changed: share it wholesale (a Rewriter
    // copy shares its immutable Impl).
    co->rewriter_ = base->rewriter_;
  } else {
    co->BuildRewriter();
  }
  info.changed_preds = ComputeChangedPreds(*base, *co, delta);
  return std::shared_ptr<const CompiledOntology>(std::move(co));
}

}  // namespace olite::obda
