#include "obda/delta.h"

#include <algorithm>
#include <utility>

#include "rdb/query.h"

namespace olite::obda {

namespace {

/// Applies add/remove lists to one axiom vector. Removals erase the first
/// equal element; a miss is reported through `missing`.
template <typename Axiom>
Status EditAxioms(std::vector<Axiom> base, const std::vector<Axiom>& removals,
                  const std::vector<Axiom>& additions, const char* sort,
                  std::vector<Axiom>* out) {
  for (const Axiom& ax : removals) {
    auto it = std::find(base.begin(), base.end(), ax);
    if (it == base.end()) {
      return Status::InvalidArgument(std::string("delta removes a ") + sort +
                                     " axiom absent from the base TBox");
    }
    base.erase(it);
  }
  base.insert(base.end(), additions.begin(), additions.end());
  *out = std::move(base);
  return Status::Ok();
}

}  // namespace

OntologyDelta::MappingSelector SelectorFor(const mapping::MappingAssertion& m) {
  rdb::SqlQuery q;
  q.blocks.push_back(m.source);
  return {m.kind, m.predicate, q.ToString()};
}

Result<dllite::TBox> ApplyTBoxDelta(const dllite::TBox& base,
                                    const OntologyDelta& delta) {
  std::vector<dllite::ConceptInclusion> concepts;
  std::vector<dllite::RoleInclusion> roles;
  std::vector<dllite::AttributeInclusion> attributes;
  std::vector<dllite::FunctionalityAssertion> functionality;
  OLITE_RETURN_IF_ERROR(EditAxioms(base.concept_inclusions(),
                                   delta.remove_concept_inclusions,
                                   delta.add_concept_inclusions, "concept",
                                   &concepts));
  OLITE_RETURN_IF_ERROR(EditAxioms(base.role_inclusions(),
                                   delta.remove_role_inclusions,
                                   delta.add_role_inclusions, "role", &roles));
  OLITE_RETURN_IF_ERROR(EditAxioms(base.attribute_inclusions(),
                                   delta.remove_attribute_inclusions,
                                   delta.add_attribute_inclusions, "attribute",
                                   &attributes));
  OLITE_RETURN_IF_ERROR(EditAxioms(base.functionality(),
                                   delta.remove_functionality,
                                   delta.add_functionality, "functionality",
                                   &functionality));
  dllite::TBox next;
  for (auto& ax : concepts) next.AddConceptInclusion(ax);
  for (auto& ax : roles) next.AddRoleInclusion(ax);
  for (auto& ax : attributes) next.AddAttributeInclusion(ax);
  for (auto& ax : functionality) next.AddFunctionality(ax);
  return next;
}

Result<mapping::MappingSet> ApplyMappingDelta(const mapping::MappingSet& base,
                                              const OntologyDelta& delta) {
  // Match removals on selector renderings so removal matching and the
  // surviving order are both deterministic; only candidates of the
  // selector's kind and predicate are rendered.
  const auto& assertions = base.assertions();
  std::vector<uint8_t> removed(assertions.size(), 0);
  for (const OntologyDelta::MappingSelector& sel : delta.remove_mappings) {
    bool found = false;
    for (size_t i = 0; i < assertions.size(); ++i) {
      const mapping::MappingAssertion& cand = assertions[i];
      if (removed[i] || cand.kind != sel.kind ||
          cand.predicate != sel.predicate) {
        continue;
      }
      if (SelectorFor(cand).sql == sel.sql) {
        removed[i] = 1;
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          "delta removes a mapping assertion absent from the base set: " +
          sel.sql);
    }
  }
  mapping::MappingSet next;
  for (size_t i = 0; i < assertions.size(); ++i) {
    if (!removed[i]) OLITE_RETURN_IF_ERROR(next.Add(assertions[i]));
  }
  for (const mapping::MappingAssertion& m : delta.add_mappings) {
    OLITE_RETURN_IF_ERROR(next.Add(m));
  }
  return next;
}

}  // namespace olite::obda
