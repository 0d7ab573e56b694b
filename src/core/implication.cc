#include "core/implication.h"

#include <memory>

#include "core/classifier.h"

namespace olite::core {

ImplicationChecker::ImplicationChecker(const dllite::TBox& tbox,
                                       const dllite::Vocabulary& vocab,
                                       ReachabilityMode mode)
    : graph_(BuildTBoxGraph(tbox, vocab)) {
  forward_ = mode == ReachabilityMode::kPrecomputed
                 ? graph::ComputeClosure(graph_.digraph,
                                         graph::ClosureEngine::kSccMerge)
                 : graph::OnDemandClosure(
                       std::make_shared<const graph::Digraph>(graph_.digraph));
  // One transposition serves the reverse view and computeUnsat's
  // predecessor rule. A null budget never exhausts, so value() cannot die.
  auto transposed =
      std::make_shared<const graph::Digraph>(graph_.digraph.Reversed());
  reverse_ = graph::OnDemandClosure(transposed);
  unsat_ =
      ComputeUnsatBudgeted(graph_, *reverse_, *transposed, nullptr).value();
}

ImplicationChecker::~ImplicationChecker() = default;

bool ImplicationChecker::Reaches(graph::NodeId from, graph::NodeId to) const {
  return forward_->Reaches(from, to);
}

bool ImplicationChecker::NodeSubsumed(graph::NodeId sub,
                                      graph::NodeId sup) const {
  return sub == sup || unsat_[sub] || Reaches(sub, sup);
}

bool ImplicationChecker::EntailsDisjointness(graph::NodeId lhs,
                                             graph::NodeId rhs,
                                             NodeKind sort) const {
  if (unsat_[lhs] || unsat_[rhs]) return true;
  for (const auto& ni : graph_.negative_inclusions) {
    NodeKind k = graph_.nodes.KindOf(ni.lhs);
    // Concept-sorted NIs may mix atomic/exists/attr-domain nodes; role and
    // attribute NIs are homogeneous. Match on the sort family.
    bool concept_sorted = graph_.nodes.IsConceptSorted(ni.lhs);
    bool want_concept = sort != NodeKind::kRole && sort != NodeKind::kAttribute;
    if (want_concept != concept_sorted) continue;
    if (!want_concept && k != sort) continue;
    if ((NodeSubsumed(lhs, ni.lhs) && NodeSubsumed(rhs, ni.rhs)) ||
        (NodeSubsumed(lhs, ni.rhs) && NodeSubsumed(rhs, ni.lhs))) {
      return true;
    }
  }
  return false;
}

bool ImplicationChecker::RangeCovers(dllite::BasicRole q1,
                                     dllite::BasicRole goal,
                                     graph::NodeId a) const {
  const NodeTable& nt = graph_.nodes;
  graph::NodeId q1_node = nt.OfRole(q1);
  graph::NodeId goal_node = nt.OfRole(goal);
  for (uint32_t p = 0; p < nt.num_roles(); ++p) {
    for (bool inv : {false, true}) {
      dllite::BasicRole r{p, inv};
      graph::NodeId r_node = nt.OfRole(r);
      if (!NodeSubsumed(q1_node, r_node)) continue;
      if (!NodeSubsumed(r_node, goal_node)) continue;
      // Range of r inside the filler: ∃r⁻ ⊑ A.
      if (NodeSubsumed(nt.OfExists(r.Inverted()), a)) return true;
    }
  }
  return false;
}

bool ImplicationChecker::EntailsQualifiedExistential(
    graph::NodeId lhs, dllite::BasicRole q, dllite::ConceptId filler) const {
  if (unsat_[lhs]) return true;
  const NodeTable& nt = graph_.nodes;
  graph::NodeId goal_role = nt.OfRole(q);
  graph::NodeId filler_node = nt.OfConcept(filler);

  // Witness (a): an asserted qualified existential B' ⊑ ∃Q1.A1.
  for (const auto& qe : graph_.qualified_existentials) {
    if (!NodeSubsumed(lhs, qe.lhs)) continue;
    if (!NodeSubsumed(nt.OfRole(qe.role), goal_role)) continue;
    if (NodeSubsumed(nt.OfConcept(qe.filler), filler_node)) return true;
    if (RangeCovers(qe.role, q, filler_node)) return true;
  }

  // Witness (b): an unqualified domain B ⊑ ∃Q1 whose role chain to Q passes
  // through a role whose range is inside the filler.
  for (uint32_t p = 0; p < nt.num_roles(); ++p) {
    for (bool inv : {false, true}) {
      dllite::BasicRole q1{p, inv};
      if (!NodeSubsumed(lhs, nt.OfExists(q1))) continue;
      if (!NodeSubsumed(nt.OfRole(q1), goal_role)) continue;
      if (RangeCovers(q1, q, filler_node)) return true;
    }
  }
  return false;
}

bool ImplicationChecker::Entails(const dllite::ConceptInclusion& ax) const {
  const NodeTable& nt = graph_.nodes;
  graph::NodeId lhs = nt.OfBasicConcept(ax.lhs);
  switch (ax.rhs.kind) {
    case dllite::RhsConceptKind::kBasic:
      return NodeSubsumed(lhs, nt.OfBasicConcept(ax.rhs.basic));
    case dllite::RhsConceptKind::kNegatedBasic:
      return EntailsDisjointness(lhs, nt.OfBasicConcept(ax.rhs.basic),
                                 NodeKind::kConcept);
    case dllite::RhsConceptKind::kQualifiedExists:
      return EntailsQualifiedExistential(lhs, ax.rhs.role, ax.rhs.filler);
  }
  return false;
}

bool ImplicationChecker::Entails(const dllite::RoleInclusion& ax) const {
  const NodeTable& nt = graph_.nodes;
  graph::NodeId lhs = nt.OfRole(ax.lhs);
  graph::NodeId rhs = nt.OfRole(ax.rhs);
  if (ax.negated) return EntailsDisjointness(lhs, rhs, NodeKind::kRole);
  return NodeSubsumed(lhs, rhs);
}

bool ImplicationChecker::Entails(const dllite::AttributeInclusion& ax) const {
  const NodeTable& nt = graph_.nodes;
  graph::NodeId lhs = nt.OfAttribute(ax.lhs);
  graph::NodeId rhs = nt.OfAttribute(ax.rhs);
  if (ax.negated) return EntailsDisjointness(lhs, rhs, NodeKind::kAttribute);
  return NodeSubsumed(lhs, rhs);
}

}  // namespace olite::core
