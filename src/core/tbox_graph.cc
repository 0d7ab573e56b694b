#include "core/tbox_graph.h"

namespace olite::core {

using dllite::BasicRole;
using dllite::RhsConceptKind;

TBoxGraph BuildTBoxGraph(const dllite::TBox& tbox,
                         const dllite::Vocabulary& vocab) {
  TBoxGraph g(vocab);
  g.digraph.EnsureNodes(g.nodes.NumNodes());
  // An upper bound on the arcs below: negative inclusions add none.
  g.digraph.ReserveArcs(tbox.concept_inclusions().size() +
                        4 * tbox.role_inclusions().size() +
                        2 * tbox.attribute_inclusions().size());

  for (const auto& ax : tbox.concept_inclusions()) {
    graph::NodeId lhs = g.nodes.OfBasicConcept(ax.lhs);
    switch (ax.rhs.kind) {
      case RhsConceptKind::kBasic:
        g.digraph.AddArc(lhs, g.nodes.OfBasicConcept(ax.rhs.basic));
        break;
      case RhsConceptKind::kNegatedBasic:
        g.negative_inclusions.push_back(
            {lhs, g.nodes.OfBasicConcept(ax.rhs.basic)});
        break;
      case RhsConceptKind::kQualifiedExists:
        // Definition 1, rule 5: only the unqualified domain arc; the
        // filler constraint is kept in the side index.
        g.digraph.AddArc(lhs, g.nodes.OfExists(ax.rhs.role));
        g.qualified_existentials.push_back({lhs, ax.rhs.role, ax.rhs.filler});
        break;
    }
  }

  for (const auto& ax : tbox.role_inclusions()) {
    if (ax.negated) {
      // Q1 ⊑ ¬Q2 also entails Q1⁻ ⊑ ¬Q2⁻; record both component pairs so
      // that downstream consumers need no inverse reasoning of their own.
      g.negative_inclusions.push_back(
          {g.nodes.OfRole(ax.lhs), g.nodes.OfRole(ax.rhs)});
      g.negative_inclusions.push_back({g.nodes.OfRole(ax.lhs.Inverted()),
                                       g.nodes.OfRole(ax.rhs.Inverted())});
      continue;
    }
    // Definition 1, rule 4: four arcs per positive role inclusion.
    g.digraph.AddArc(g.nodes.OfRole(ax.lhs), g.nodes.OfRole(ax.rhs));
    g.digraph.AddArc(g.nodes.OfRole(ax.lhs.Inverted()),
                     g.nodes.OfRole(ax.rhs.Inverted()));
    g.digraph.AddArc(g.nodes.OfExists(ax.lhs), g.nodes.OfExists(ax.rhs));
    g.digraph.AddArc(g.nodes.OfExists(ax.lhs.Inverted()),
                     g.nodes.OfExists(ax.rhs.Inverted()));
  }

  for (const auto& ax : tbox.attribute_inclusions()) {
    if (ax.negated) {
      g.negative_inclusions.push_back(
          {g.nodes.OfAttribute(ax.lhs), g.nodes.OfAttribute(ax.rhs)});
      continue;
    }
    g.digraph.AddArc(g.nodes.OfAttribute(ax.lhs), g.nodes.OfAttribute(ax.rhs));
    g.digraph.AddArc(g.nodes.OfAttrDomain(ax.lhs),
                     g.nodes.OfAttrDomain(ax.rhs));
  }

  g.digraph.Finalize();
  return g;
}

}  // namespace olite::core
