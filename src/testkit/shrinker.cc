#include "testkit/shrinker.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace olite::testkit {

namespace {

/// The case decomposed into independently shrinkable lists. Vocabulary and
/// table schemas are kept fixed: removing a declaration could invalidate
/// the surviving axioms/mappings, turning "still fails" into "fails to
/// build" — a different failure than the one being minimised.
struct Pieces {
  std::vector<dllite::ConceptInclusion> concept_axioms;
  std::vector<dllite::RoleInclusion> role_axioms;
  std::vector<dllite::AttributeInclusion> attribute_axioms;
  std::vector<dllite::FunctionalityAssertion> functionality;
  std::vector<mapping::MappingAssertion> mappings;
  std::vector<std::pair<std::string, rdb::Row>> rows;
  std::vector<query::ConjunctiveQuery> queries;

  size_t NumAxioms() const {
    return concept_axioms.size() + role_axioms.size() +
           attribute_axioms.size() + functionality.size();
  }
};

Pieces Decompose(const ConformanceCase& c) {
  Pieces p;
  p.concept_axioms = c.ontology.tbox().concept_inclusions();
  p.role_axioms = c.ontology.tbox().role_inclusions();
  p.attribute_axioms = c.ontology.tbox().attribute_inclusions();
  p.functionality = c.ontology.tbox().functionality();
  p.mappings = c.mappings.assertions();
  for (const auto& [name, table] : c.database.tables()) {
    for (const auto& row : table.rows()) p.rows.emplace_back(name, row);
  }
  p.queries = c.queries;
  return p;
}

ConformanceCase Recompose(const ConformanceCase& base, const Pieces& p) {
  ConformanceCase c;
  c.ontology = base.ontology;
  c.ontology.tbox() = dllite::TBox{};
  for (const auto& ax : p.concept_axioms) {
    c.ontology.tbox().AddConceptInclusion(ax);
  }
  for (const auto& ax : p.role_axioms) c.ontology.tbox().AddRoleInclusion(ax);
  for (const auto& ax : p.attribute_axioms) {
    c.ontology.tbox().AddAttributeInclusion(ax);
  }
  for (const auto& ax : p.functionality) c.ontology.tbox().AddFunctionality(ax);
  for (const auto& [name, table] : base.database.tables()) {
    (void)c.database.CreateTable(table.schema());
  }
  for (const auto& [name, row] : p.rows) (void)c.database.Insert(name, row);
  for (const auto& m : p.mappings) (void)c.mappings.Add(m);
  c.queries = p.queries;
  c.mutation = base.mutation;
  c.expect_discrepancy = base.expect_discrepancy;
  return c;
}

// Drops vocabulary declarations nothing references any more. ddmin leaves
// the full predicate vocabulary behind (axiom removal never touches it),
// so a 1000-concept case shrunk to one axiom still declares 1000 names.
// The corpus text format spells every predicate of every surviving axiom,
// mapping, query, table cell and the mutation out by name, so a declared
// name is dead iff it occurs nowhere outside the declaration lines.
// Serialise, filter the declarations, reparse (which re-interns compact
// ids), and adopt the reduced case only if the failure is preserved. A
// case the corpus format cannot write keeps its vocabulary.
ConformanceCase PruneVocabulary(const ConformanceCase& c,
                                const FailurePredicate& fails) {
  const auto serialized = SerializeCase(c);
  if (!serialized.ok()) return c;
  const std::string& text = *serialized;
  auto is_name_char = [](char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) != 0 || ch == '_';
  };

  // Pass 1: every name-shaped token outside ontology declaration lines.
  std::unordered_set<std::string> used;
  std::istringstream scan(text);
  std::string line;
  bool in_ontology = false;
  auto is_declaration = [&](const std::string& l) {
    return in_ontology &&
           (l.rfind("concept ", 0) == 0 || l.rfind("role ", 0) == 0 ||
            l.rfind("attribute ", 0) == 0 || l.rfind("individual ", 0) == 0);
  };
  while (std::getline(scan, line)) {
    if (line == "begin ontology") in_ontology = true;
    if (line == "end ontology") in_ontology = false;
    if (is_declaration(line)) continue;
    std::string token;
    for (char ch : line) {
      if (is_name_char(ch)) {
        token += ch;
      } else if (!token.empty()) {
        used.insert(token);
        token.clear();
      }
    }
    if (!token.empty()) used.insert(token);
  }

  // Pass 2: rewrite declaration lines down to the used names.
  std::string reduced;
  std::istringstream emit(text);
  in_ontology = false;
  while (std::getline(emit, line)) {
    if (line == "begin ontology") in_ontology = true;
    if (line == "end ontology") in_ontology = false;
    if (is_declaration(line)) {
      std::istringstream words(line);
      std::string kind, name, kept;
      words >> kind;
      size_t n = 0;
      while (words >> name) {
        if (used.count(name) == 0) continue;
        kept += ' ';
        kept += name;
        ++n;
      }
      if (n == 0) continue;  // the whole declaration line is dead
      reduced += kind + kept + '\n';
      continue;
    }
    reduced += line + '\n';
  }

  auto pruned = ParseCase(reduced);
  if (!pruned.ok() || !fails(*pruned)) return c;
  return *pruned;
}

}  // namespace

ConformanceCase Shrink(const ConformanceCase& input,
                       const FailurePredicate& fails,
                       const ShrinkOptions& options, ShrinkStats* stats) {
  Pieces pieces = Decompose(input);
  ShrinkStats local;
  local.initial_axioms = pieces.NumAxioms();
  local.initial_rows = pieces.rows.size();

  auto still_fails = [&](const Pieces& candidate) {
    if (local.iterations >= options.max_iterations) return false;
    ++local.iterations;
    return fails(Recompose(input, candidate));
  };

  // ddmin-style greedy chunk removal on one list: chunk size halves from
  // n/2 down to 1; every accepted removal is kept immediately (the
  // remaining chunks re-align on the shrunk list).
  auto minimize = [&](auto member) {
    auto& list = pieces.*member;
    size_t chunk = list.size() / 2;
    if (chunk == 0) chunk = 1;
    while (!list.empty()) {
      bool removed_any = false;
      for (size_t start = 0; start < list.size();) {
        Pieces candidate = pieces;
        auto& clist = candidate.*member;
        size_t len = std::min(chunk, clist.size() - start);
        clist.erase(clist.begin() + static_cast<ptrdiff_t>(start),
                    clist.begin() + static_cast<ptrdiff_t>(start + len));
        if (still_fails(candidate)) {
          pieces = std::move(candidate);
          ++local.reductions;
          removed_any = true;
          // Do not advance: the next chunk slid into `start`.
        } else {
          start += chunk;
        }
        if (local.iterations >= options.max_iterations) return;
      }
      if (chunk == 1) {
        if (!removed_any) break;  // 1-minimal for this component
      } else {
        chunk = (chunk + 1) / 2;
      }
    }
  };

  // Two full passes: removals in later components (rows, queries) can make
  // earlier ones (axioms) removable, and vice versa; iterate until a full
  // cycle removes nothing.
  uint64_t before = ~uint64_t{0};
  while (before != local.reductions &&
         local.iterations < options.max_iterations) {
    before = local.reductions;
    minimize(&Pieces::queries);
    minimize(&Pieces::mappings);
    minimize(&Pieces::rows);
    minimize(&Pieces::concept_axioms);
    minimize(&Pieces::role_axioms);
    minimize(&Pieces::attribute_axioms);
    minimize(&Pieces::functionality);
  }

  local.final_axioms = pieces.NumAxioms();
  local.final_rows = pieces.rows.size();
  ConformanceCase out = Recompose(input, pieces);
  local.initial_predicates = out.ontology.vocab().NumConcepts() +
                             out.ontology.vocab().NumRoles() +
                             out.ontology.vocab().NumAttributes();
  if (local.iterations < options.max_iterations) {
    out = PruneVocabulary(out, [&](const ConformanceCase& candidate) {
      ++local.iterations;
      return fails(candidate);
    });
  }
  local.final_predicates = out.ontology.vocab().NumConcepts() +
                           out.ontology.vocab().NumRoles() +
                           out.ontology.vocab().NumAttributes();
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace olite::testkit
