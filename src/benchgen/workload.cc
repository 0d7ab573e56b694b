#include "benchgen/workload.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace olite::benchgen {

namespace {

using query::Atom;
using query::ConjunctiveQuery;
using query::Term;

/// Where the rows of one mapped predicate live.
enum class Storage : uint8_t { kUnmapped, kOwnTable, kSharedTable };

struct PredicateLayout {
  std::vector<Storage> concepts;
  std::vector<Storage> roles;
  std::vector<Storage> attributes;
};

std::string OwnTable(char sort, uint32_t id) {
  return std::string(1, sort) + std::to_string(id);
}

rdb::SelectBlock OwnBlock(const std::string& table, bool binary) {
  rdb::SelectBlock block;
  block.from_tables = {table};
  block.select = {{0, "s"}};
  if (binary) block.select.push_back({0, "o"});
  return block;
}

rdb::SelectBlock SharedBlock(const std::string& table, bool binary,
                             const std::string& kind) {
  rdb::SelectBlock block = OwnBlock(table, binary);
  block.from_tables = {table};
  block.filters = {{{0, "kind"}, rdb::Value::Str(kind)}};
  return block;
}

}  // namespace

Workload GenerateWorkload(const WorkloadConfig& config) {
  Workload w;
  w.ontology = Generate(config.ontology);
  Rng rng(config.seed);

  const auto nc = static_cast<uint32_t>(w.ontology.vocab().NumConcepts());
  const auto nr = static_cast<uint32_t>(w.ontology.vocab().NumRoles());
  const auto na = static_cast<uint32_t>(w.ontology.vocab().NumAttributes());

  // -- storage layout ---------------------------------------------------------
  PredicateLayout layout;
  auto decide = [&](uint32_t n) {
    std::vector<Storage> out(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (rng.Chance(config.unmapped_predicate_fraction)) {
        out[i] = Storage::kUnmapped;
      } else if (rng.Chance(config.shared_table_fraction)) {
        out[i] = Storage::kSharedTable;
      } else {
        out[i] = Storage::kOwnTable;
      }
    }
    return out;
  };
  layout.concepts = decide(nc);
  layout.roles = decide(nr);
  layout.attributes = decide(na);

  // -- schema -----------------------------------------------------------------
  const rdb::ValueType str = rdb::ValueType::kString;
  auto any_shared = [](const std::vector<Storage>& v) {
    for (Storage s : v) {
      if (s == Storage::kSharedTable) return true;
    }
    return false;
  };
  if (any_shared(layout.concepts)) {
    (void)w.database.CreateTable({"facts", {{"kind", str}, {"s", str}}});
  }
  if (any_shared(layout.roles) || any_shared(layout.attributes)) {
    (void)w.database.CreateTable(
        {"edges", {{"kind", str}, {"s", str}, {"o", str}}});
  }
  auto add_schema = [&](char sort, uint32_t n,
                        const std::vector<Storage>& storage, bool binary) {
    for (uint32_t i = 0; i < n; ++i) {
      if (storage[i] != Storage::kOwnTable) continue;
      rdb::Schema schema{OwnTable(sort, i), {{"s", str}}};
      if (binary) schema.columns.push_back({"o", str});
      (void)w.database.CreateTable(std::move(schema));
    }
  };
  add_schema('c', nc, layout.concepts, false);
  add_schema('r', nr, layout.roles, true);
  add_schema('a', na, layout.attributes, true);

  // -- mappings ---------------------------------------------------------------
  auto kind_tag = [](char sort, uint32_t id) {
    return std::string(1, sort) + "_" + std::to_string(id);
  };
  for (uint32_t i = 0; i < nc; ++i) {
    if (layout.concepts[i] == Storage::kUnmapped) continue;
    rdb::SelectBlock block =
        layout.concepts[i] == Storage::kOwnTable
            ? OwnBlock(OwnTable('c', i), false)
            : SharedBlock("facts", false, kind_tag('c', i));
    (void)w.mappings.Add(
        mapping::MappingAssertion::ForConcept(i, std::move(block)));
  }
  for (uint32_t i = 0; i < nr; ++i) {
    if (layout.roles[i] == Storage::kUnmapped) continue;
    rdb::SelectBlock block =
        layout.roles[i] == Storage::kOwnTable
            ? OwnBlock(OwnTable('r', i), true)
            : SharedBlock("edges", true, kind_tag('r', i));
    (void)w.mappings.Add(
        mapping::MappingAssertion::ForRole(i, std::move(block)));
  }
  for (uint32_t i = 0; i < na; ++i) {
    if (layout.attributes[i] == Storage::kUnmapped) continue;
    rdb::SelectBlock block =
        layout.attributes[i] == Storage::kOwnTable
            ? OwnBlock(OwnTable('a', i), true)
            : SharedBlock("edges", true, kind_tag('a', i));
    (void)w.mappings.Add(
        mapping::MappingAssertion::ForAttribute(i, std::move(block)));
  }

  // -- redundant mappings -----------------------------------------------------
  // Duplicate views retrieve exactly the rows the original does; the
  // constraint-aware unfolder should drop them as dominated. Guarded draws
  // keep the seed stream of fraction-0 configs byte-identical.
  if (config.redundant_mapping_fraction > 0) {
    auto duplicate = [&](char sort, uint32_t n,
                         const std::vector<Storage>& storage, bool binary) {
      for (uint32_t i = 0; i < n; ++i) {
        if (storage[i] == Storage::kUnmapped) continue;
        if (!rng.Chance(config.redundant_mapping_fraction)) continue;
        rdb::SelectBlock block =
            storage[i] == Storage::kOwnTable
                ? OwnBlock(OwnTable(sort, i), binary)
                : SharedBlock(sort == 'c' ? "facts" : "edges", binary,
                              kind_tag(sort, i));
        switch (sort) {
          case 'c':
            (void)w.mappings.Add(
                mapping::MappingAssertion::ForConcept(i, std::move(block)));
            break;
          case 'r':
            (void)w.mappings.Add(
                mapping::MappingAssertion::ForRole(i, std::move(block)));
            break;
          default:
            (void)w.mappings.Add(
                mapping::MappingAssertion::ForAttribute(i, std::move(block)));
        }
      }
    };
    duplicate('c', nc, layout.concepts, false);
    duplicate('r', nr, layout.roles, true);
    duplicate('a', na, layout.attributes, true);
  }

  // -- rows -------------------------------------------------------------------
  auto individual = [&] {
    return "i" + std::to_string(rng.Uniform(
                     std::max<uint32_t>(config.num_individuals, 1)));
  };
  auto value_literal = [&] {
    return "v" + std::to_string(rng.Uniform(
                     std::max<uint32_t>(config.num_individuals, 1)));
  };
  auto insert = [&](char sort, uint32_t id, Storage storage,
                    const std::string& subj, const std::string& obj,
                    bool binary) {
    if (storage == Storage::kUnmapped) return;
    if (storage == Storage::kOwnTable) {
      rdb::Row row{rdb::Value::Str(subj)};
      if (binary) row.push_back(rdb::Value::Str(obj));
      (void)w.database.Insert(OwnTable(sort, id), std::move(row));
      return;
    }
    if (binary) {
      (void)w.database.Insert("edges",
                              {rdb::Value::Str(kind_tag(sort, id)),
                               rdb::Value::Str(subj), rdb::Value::Str(obj)});
    } else {
      (void)w.database.Insert("facts", {rdb::Value::Str(kind_tag(sort, id)),
                                        rdb::Value::Str(subj)});
    }
  };
  std::vector<std::vector<std::string>> concept_subjects(nc);
  for (uint32_t k = 0; nc > 0 && k < config.num_concept_assertions; ++k) {
    auto c = static_cast<uint32_t>(rng.Uniform(nc));
    std::string subj = individual();
    if (layout.concepts[c] != Storage::kUnmapped) {
      concept_subjects[c].push_back(subj);
    }
    insert('c', c, layout.concepts[c], subj, "", false);
  }
  for (uint32_t k = 0; nr > 0 && k < config.num_role_assertions; ++k) {
    auto p = static_cast<uint32_t>(rng.Uniform(nr));
    insert('r', p, layout.roles[p], individual(), individual(), true);
  }
  for (uint32_t k = 0; na > 0 && k < config.num_attribute_assertions; ++k) {
    auto u = static_cast<uint32_t>(rng.Uniform(na));
    insert('a', u, layout.attributes[u], individual(), value_literal(), true);
  }

  // -- source-level inclusions ------------------------------------------------
  // Materialise a fraction of the TBox's atomic inclusions `B ⊑ A` in the
  // data: copy every B subject into A's storage, so ext(B) ⊆ ext(A) holds
  // at the sources and constraint-aware rewriting can suppress the B
  // disjunct of queries over A. Answer-neutral: the copied rows only add
  // facts the TBox already entails.
  if (config.source_inclusion_fraction > 0) {
    for (const auto& ax : w.ontology.tbox().concept_inclusions()) {
      if (ax.lhs.kind != dllite::BasicConceptKind::kAtomic) continue;
      if (ax.rhs.kind != dllite::RhsConceptKind::kBasic) continue;
      if (ax.rhs.basic.kind != dllite::BasicConceptKind::kAtomic) continue;
      const uint32_t sub = ax.lhs.concept_id;
      const uint32_t sup = ax.rhs.basic.concept_id;
      if (sub == sup || sub >= nc || sup >= nc) continue;
      if (layout.concepts[sub] == Storage::kUnmapped ||
          layout.concepts[sup] == Storage::kUnmapped) {
        continue;
      }
      if (!rng.Chance(config.source_inclusion_fraction)) continue;
      // Appending to the superconcept's subject list keeps the copies
      // visible to later axioms, so chains B ⊑ A ⊑ A' propagate when the
      // axiom order cooperates.
      std::vector<std::string> copied = concept_subjects[sub];
      for (const auto& subj : copied) {
        insert('c', sup, layout.concepts[sup], subj, "", false);
        concept_subjects[sup].push_back(subj);
      }
    }
  }

  // The oracle-side ABox is exactly what the mappings retrieve.
  w.abox = mapping::MaterializeABox(w.mappings, w.database,
                                    &w.ontology.vocab())
               .value();

  // -- queries ----------------------------------------------------------------
  for (uint32_t qi = 0; qi < config.num_queries; ++qi) {
    ConjunctiveQuery cq;
    std::vector<std::string> vars;  // variables minted so far
    size_t fresh = 0;
    auto variable = [&](bool force_fresh) {
      if (!force_fresh && !vars.empty() && rng.Chance(config.join_prob)) {
        return vars[rng.Uniform(vars.size())];
      }
      std::string v = "x" + std::to_string(fresh++);
      vars.push_back(v);
      return v;
    };
    auto term = [&](bool is_value_position, bool force_var) {
      if (!force_var && rng.Chance(config.constant_prob)) {
        return Term::Const(is_value_position ? value_literal() : individual());
      }
      return Term::Var(variable(false));
    };
    // Pick a predicate of one sort; occasionally target an unmapped one.
    auto pick = [&](uint32_t n, const std::vector<Storage>& storage) {
      auto id = static_cast<uint32_t>(rng.Uniform(n));
      bool want_unmapped = rng.Chance(config.unmapped_atom_prob);
      for (uint32_t step = 0; step < n; ++step) {
        uint32_t candidate = (id + step) % n;
        bool unmapped = storage[candidate] == Storage::kUnmapped;
        if (unmapped == want_unmapped) return candidate;
      }
      return id;
    };

    auto natoms = 1 + rng.Uniform(std::max<uint32_t>(
                          config.max_atoms_per_query, 1));
    for (uint64_t ai = 0; ai < natoms; ++ai) {
      // Sort choice weighted toward the binary predicates that make joins.
      uint64_t sorts = (nc > 0 ? 1 : 0) + (nr > 0 ? 2 : 0) + (na > 0 ? 1 : 0);
      if (sorts == 0) break;
      uint64_t pickx = rng.Uniform(sorts);
      bool first_arg_var = ai == 0;  // ensures >= 1 variable per query
      if (nc > 0 && pickx == 0) {
        cq.atoms.push_back(Atom::Concept(pick(nc, layout.concepts),
                                         term(false, first_arg_var)));
      } else if (nr > 0 && pickx <= (nc > 0 ? 2u : 1u)) {
        cq.atoms.push_back(Atom::Role(pick(nr, layout.roles),
                                      term(false, first_arg_var),
                                      term(false, false)));
      } else {
        cq.atoms.push_back(Atom::Attribute(pick(na, layout.attributes),
                                           term(false, first_arg_var),
                                           term(true, false)));
      }
    }
    if (cq.atoms.empty()) continue;

    // Head: a random non-empty subset of the variables used.
    for (const auto& v : vars) {
      if (rng.Chance(0.5)) cq.head_vars.push_back(v);
    }
    if (cq.head_vars.empty() && !vars.empty()) cq.head_vars.push_back(vars[0]);

    // Anchor every connected component: bounded-depth chase oracles are
    // complete only when each component's match is rooted at a named
    // individual (a head variable binding or a constant).
    std::vector<int> component(cq.atoms.size());
    for (size_t i = 0; i < cq.atoms.size(); ++i) {
      component[i] = static_cast<int>(i);
    }
    auto root = [&](int x) {
      while (component[x] != x) x = component[x] = component[component[x]];
      return x;
    };
    for (size_t i = 0; i < cq.atoms.size(); ++i) {
      for (size_t j = i + 1; j < cq.atoms.size(); ++j) {
        for (const auto& a : cq.atoms[i].args) {
          for (const auto& b : cq.atoms[j].args) {
            if (a.IsVar() && b.IsVar() && a.name == b.name) {
              component[root(static_cast<int>(i))] =
                  root(static_cast<int>(j));
            }
          }
        }
      }
    }
    auto in_head = [&](const std::string& v) {
      for (const auto& h : cq.head_vars) {
        if (h == v) return true;
      }
      return false;
    };
    std::vector<bool> anchored(cq.atoms.size(), false);
    for (size_t i = 0; i < cq.atoms.size(); ++i) {
      for (const auto& a : cq.atoms[i].args) {
        if (!a.IsVar() || in_head(a.name)) {
          anchored[root(static_cast<int>(i))] = true;
        }
      }
    }
    for (size_t i = 0; i < cq.atoms.size(); ++i) {
      int r = root(static_cast<int>(i));
      if (anchored[r]) continue;
      for (const auto& a : cq.atoms[i].args) {
        if (a.IsVar()) {
          cq.head_vars.push_back(a.name);
          anchored[r] = true;
          break;
        }
      }
    }
    w.queries.push_back(std::move(cq));
  }
  return w;
}

std::vector<obda::OntologyDelta> GenerateDeltaSequence(
    const Workload& base, const DeltaSequenceConfig& config) {
  using dllite::BasicConcept;
  using dllite::BasicRole;
  using dllite::RhsConcept;

  std::vector<obda::OntologyDelta> out;
  const auto nc = static_cast<uint32_t>(base.ontology.vocab().NumConcepts());
  const auto nr = static_cast<uint32_t>(base.ontology.vocab().NumRoles());
  const auto na = static_cast<uint32_t>(base.ontology.vocab().NumAttributes());
  if (nc + nr + na == 0) return out;

  Rng rng(config.seed);
  // The evolving state each delta is generated against (and validated by
  // applying — a sequence this function returns always chains cleanly).
  dllite::TBox tbox = base.ontology.tbox();
  mapping::MappingSet mappings = base.mappings;

  // DL-Lite_A guards: a functional role/attribute must not be specialised
  // (CheckFunctionalityRestriction matches by role id, both directions).
  // Each guard consults the evolved state *and* the delta under
  // construction, so one delta never pairs a functionality addition with
  // an inclusion specialising the same role/attribute.
  auto role_functional = [&](uint32_t p, const obda::OntologyDelta& d) {
    for (const auto& f : tbox.functionality()) {
      if (f.kind == dllite::FunctionalityAssertion::Kind::kRole &&
          f.role.role == p) {
        return true;
      }
    }
    for (const auto& f : d.add_functionality) {
      if (f.kind == dllite::FunctionalityAssertion::Kind::kRole &&
          f.role.role == p) {
        return true;
      }
    }
    return false;
  };
  auto role_specialised = [&](uint32_t p, const obda::OntologyDelta& d) {
    for (const auto& ri : tbox.role_inclusions()) {
      if (!ri.negated && ri.rhs.role == p) return true;
    }
    for (const auto& ri : d.add_role_inclusions) {
      if (!ri.negated && ri.rhs.role == p) return true;
    }
    return false;
  };
  auto attr_functional = [&](uint32_t u, const obda::OntologyDelta& d) {
    for (const auto& f : tbox.functionality()) {
      if (f.kind == dllite::FunctionalityAssertion::Kind::kAttribute &&
          f.attribute == u) {
        return true;
      }
    }
    for (const auto& f : d.add_functionality) {
      if (f.kind == dllite::FunctionalityAssertion::Kind::kAttribute &&
          f.attribute == u) {
        return true;
      }
    }
    return false;
  };
  auto attr_specialised = [&](uint32_t u, const obda::OntologyDelta& d) {
    for (const auto& ai : tbox.attribute_inclusions()) {
      if (!ai.negated && ai.rhs == u) return true;
    }
    for (const auto& ai : d.add_attribute_inclusions) {
      if (!ai.negated && ai.rhs == u) return true;
    }
    return false;
  };

  auto random_role = [&] {
    return BasicRole{static_cast<dllite::RoleId>(rng.Uniform(nr)),
                     rng.Chance(0.5)};
  };
  auto random_basic = [&]() -> BasicConcept {
    for (;;) {
      switch (rng.Uniform(3)) {
        case 0:
          if (nc > 0) {
            return BasicConcept::Atomic(
                static_cast<dllite::ConceptId>(rng.Uniform(nc)));
          }
          break;
        case 1:
          if (nr > 0) return BasicConcept::Exists(random_role());
          break;
        default:
          if (na > 0) {
            return BasicConcept::AttrDomain(
                static_cast<dllite::AttributeId>(rng.Uniform(na)));
          }
      }
    }
  };

  // One TBox addition, respecting the functionality restriction.
  auto add_tbox = [&](obda::OntologyDelta* d) {
    if (rng.Chance(config.functionality_fraction)) {
      // Functionality on an unspecialised role/attribute; fall through to
      // an inclusion when no candidate survives the guard.
      for (uint32_t tries = 0; tries < 4; ++tries) {
        if (nr > 0 && (na == 0 || rng.Chance(0.5))) {
          auto p = static_cast<uint32_t>(rng.Uniform(nr));
          if (role_specialised(p, *d)) continue;
          d->add_functionality.push_back(
              dllite::FunctionalityAssertion::Role(BasicRole::Direct(p)));
          return;
        }
        if (na > 0) {
          auto u = static_cast<uint32_t>(rng.Uniform(na));
          if (attr_specialised(u, *d)) continue;
          d->add_functionality.push_back(
              dllite::FunctionalityAssertion::Attribute(u));
          return;
        }
      }
    }
    const uint64_t pickx = rng.Uniform(4);
    if (pickx == 1 && nr > 0) {  // role inclusion
      for (uint32_t tries = 0; tries < 4; ++tries) {
        BasicRole rhs = random_role();
        bool negated = rng.Chance(0.1);
        if (!negated && role_functional(rhs.role, *d)) continue;
        d->add_role_inclusions.push_back({random_role(), rhs, negated});
        return;
      }
    }
    if (pickx == 2 && na > 0) {  // attribute inclusion
      for (uint32_t tries = 0; tries < 4; ++tries) {
        auto rhs = static_cast<uint32_t>(rng.Uniform(na));
        bool negated = rng.Chance(0.1);
        if (!negated && attr_functional(rhs, *d)) continue;
        d->add_attribute_inclusions.push_back(
            {static_cast<uint32_t>(rng.Uniform(na)), rhs, negated});
        return;
      }
    }
    // Concept inclusion (also the fallback of the guarded branches).
    dllite::ConceptInclusion ax;
    ax.lhs = random_basic();
    if (nr > 0 && nc > 0 && rng.Chance(0.15)) {
      ax.rhs = RhsConcept::QualifiedExists(
          random_role(), static_cast<dllite::ConceptId>(rng.Uniform(nc)));
    } else if (rng.Chance(0.1)) {
      ax.rhs = RhsConcept::Negated(random_basic());
    } else {
      ax.rhs = RhsConcept::Positive(random_basic());
    }
    d->add_concept_inclusions.push_back(ax);
  };

  for (uint32_t di = 0; di < config.num_deltas; ++di) {
    obda::OntologyDelta delta;
    const bool large = static_cast<int32_t>(di) == config.large_delta_index;
    const uint32_t lo = std::max<uint32_t>(config.min_changes, 1);
    const uint32_t hi = std::max<uint32_t>(config.max_changes, lo);
    const uint64_t changes =
        large ? std::max<uint32_t>(config.large_delta_changes, 1)
              : lo + rng.Uniform(hi - lo + 1);

    // Working copies tracking what this delta has already claimed, so two
    // removals never race for the same axiom/assertion. They never gain this
    // delta's additions: ApplyMappingDelta removes before it adds.
    auto ci = tbox.concept_inclusions();
    auto ri = tbox.role_inclusions();
    auto ai = tbox.attribute_inclusions();
    auto fn = tbox.functionality();
    auto asserts = mappings.assertions();

    for (uint64_t k = 0; k < changes; ++k) {
      if (large) {
        // Oversized deltas exist to push the closure patch past its
        // fallback fraction, not to stress the rewriter: plain
        // atomic-to-atomic inclusions at random endpoints dirty many
        // nodes while keeping query rewriting tame (no new existential
        // or role structure).
        if (nc > 0) {
          dllite::ConceptInclusion ax;
          ax.lhs = BasicConcept::Atomic(
              static_cast<dllite::ConceptId>(rng.Uniform(nc)));
          ax.rhs = RhsConcept::Positive(BasicConcept::Atomic(
              static_cast<dllite::ConceptId>(rng.Uniform(nc))));
          delta.add_concept_inclusions.push_back(ax);
        } else if (nr > 0) {
          BasicRole rhs = random_role();
          if (!role_functional(rhs.role, delta)) {
            delta.add_role_inclusions.push_back({random_role(), rhs, false});
          }
        }
        continue;
      }
      if (rng.Chance(config.mapping_change_fraction)) {
        if (rng.Chance(config.remove_fraction) && asserts.size() > 1) {
          size_t i = rng.Uniform(asserts.size());
          delta.remove_mappings.push_back(obda::SelectorFor(asserts[i]));
          asserts.erase(asserts.begin() + static_cast<ptrdiff_t>(i));
        } else if (!asserts.empty()) {
          // Re-target an existing view to a random predicate of the same
          // sort: arity-safe by construction, semantically a real change.
          mapping::MappingAssertion m = asserts[rng.Uniform(asserts.size())];
          switch (m.kind) {
            case mapping::TargetKind::kConcept:
              m.predicate = static_cast<uint32_t>(rng.Uniform(nc));
              break;
            case mapping::TargetKind::kRole:
              m.predicate = static_cast<uint32_t>(rng.Uniform(nr));
              break;
            case mapping::TargetKind::kAttribute:
              m.predicate = static_cast<uint32_t>(rng.Uniform(na));
              break;
          }
          delta.add_mappings.push_back(std::move(m));
        }
        continue;
      }
      if (rng.Chance(config.remove_fraction)) {
        // Remove from a non-empty axiom category, weighted by size.
        const size_t total = ci.size() + ri.size() + ai.size() + fn.size();
        if (total == 0) {
          add_tbox(&delta);
          continue;
        }
        size_t i = rng.Uniform(total);
        if (i < ci.size()) {
          delta.remove_concept_inclusions.push_back(ci[i]);
          ci.erase(ci.begin() + static_cast<ptrdiff_t>(i));
          continue;
        }
        i -= ci.size();
        if (i < ri.size()) {
          delta.remove_role_inclusions.push_back(ri[i]);
          ri.erase(ri.begin() + static_cast<ptrdiff_t>(i));
          continue;
        }
        i -= ri.size();
        if (i < ai.size()) {
          delta.remove_attribute_inclusions.push_back(ai[i]);
          ai.erase(ai.begin() + static_cast<ptrdiff_t>(i));
          continue;
        }
        i -= ai.size();
        delta.remove_functionality.push_back(fn[i]);
        fn.erase(fn.begin() + static_cast<ptrdiff_t>(i));
        continue;
      }
      add_tbox(&delta);
    }

    // Advance the state; by construction both applications succeed.
    tbox = obda::ApplyTBoxDelta(tbox, delta).value();
    mappings = obda::ApplyMappingDelta(mappings, delta).value();
    out.push_back(std::move(delta));
  }
  return out;
}

}  // namespace olite::benchgen
