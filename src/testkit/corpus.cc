#include "testkit/corpus.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "mapping/parser.h"

namespace olite::testkit {

namespace {

const char* TypeToken(rdb::ValueType t) {
  switch (t) {
    case rdb::ValueType::kInt:
      return "int";
    case rdb::ValueType::kDouble:
      return "double";
    case rdb::ValueType::kString:
      return "str";
  }
  return "str";
}

Result<rdb::ValueType> ParseTypeToken(std::string_view t) {
  if (t == "int") return rdb::ValueType::kInt;
  if (t == "double") return rdb::ValueType::kDouble;
  if (t == "str") return rdb::ValueType::kString;
  return Status::ParseError("unknown column type '" + std::string(t) + "'");
}

std::string PredicateName(const mapping::MappingAssertion& m,
                          const dllite::Vocabulary& vocab) {
  switch (m.kind) {
    case mapping::TargetKind::kConcept:
      return vocab.ConceptName(m.predicate);
    case mapping::TargetKind::kRole:
      return vocab.RoleName(m.predicate);
    case mapping::TargetKind::kAttribute:
      return vocab.AttributeName(m.predicate);
  }
  return "";
}

/// A filter constant as the mapping lexer reads it back to the same value:
/// a DOUBLE keeps a decimal point (`2.0`, `-0.0`), since `2` would lex as
/// INT. NaN and ±infinity have no spelling in the grammar.
Result<std::string> RenderConstant(const rdb::Value& v) {
  if (v.type() != rdb::ValueType::kDouble) return v.ToString();
  const double d = v.AsDouble();
  if (!std::isfinite(d)) {
    return Status::InvalidArgument("the mapping grammar cannot write the "
                                   "DOUBLE constant " + v.ToString());
  }
  // Fixed notation: the lexer reads no exponent.
  char buf[512];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::fixed);
  std::string out(buf, res.ptr);
  if (out.find('.') == std::string::npos) out += ".0";
  return out;
}

/// Renders one mapping assertion in the grammar `mapping::ParseMappingLine`
/// accepts: aliased FROM entries, qualified column refs, AND-joined
/// equality conditions. Fails on a filter constant it cannot write.
Result<std::string> RenderMapping(const mapping::MappingAssertion& m,
                                  const dllite::Vocabulary& vocab) {
  std::ostringstream os;
  os << PredicateName(m, vocab)
     << (m.kind == mapping::TargetKind::kConcept ? "(x)" : "(x, y)") << " <- ";
  os << "SELECT ";
  for (size_t i = 0; i < m.source.select.size(); ++i) {
    if (i > 0) os << ", ";
    os << "t" << m.source.select[i].table_index << "."
       << m.source.select[i].column;
  }
  os << " FROM ";
  for (size_t i = 0; i < m.source.from_tables.size(); ++i) {
    if (i > 0) os << ", ";
    os << m.source.from_tables[i] << " t" << i;
  }
  bool first = true;
  auto sep = [&]() -> std::ostream& {
    os << (first ? " WHERE " : " AND ");
    first = false;
    return os;
  };
  for (const auto& j : m.source.joins) {
    sep() << "t" << j.lhs.table_index << "." << j.lhs.column << " = t"
          << j.rhs.table_index << "." << j.rhs.column;
  }
  for (const auto& f : m.source.filters) {
    auto constant = RenderConstant(f.value);
    if (!constant.ok()) {
      return Status::InvalidArgument("mapping of " + PredicateName(m, vocab) +
                                     ": " + constant.status().message());
    }
    sep() << "t" << f.col.table_index << "." << f.col.column << " = "
          << *constant;
  }
  return os.str();
}

/// Parses one `row` payload, the `Value::ToString` of each cell, by the
/// declared type of its column: a TEXT cell is single-quoted with inner
/// quotes doubled, an INT or DOUBLE cell is the bare `Value::ToName`.
Result<rdb::Row> ParseRowLiterals(std::string_view s,
                                  const rdb::Schema& schema) {
  rdb::Row out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (std::isspace(static_cast<unsigned char>(s[i])) != 0) continue;
    const bool quoted = s[i] == '\'';
    std::string tok;
    if (quoted) {
      // Up to the closing quote; a doubled quote is one quote of the text.
      auto closing = [&] {
        return s[i] == '\'' && (i + 1 == s.size() || s[i + 1] != '\'');
      };
      while (++i < s.size() && !closing()) {
        if (s[i] == '\'') ++i;
        tok += s[i];
      }
      if (i == s.size()) return Status::ParseError("unterminated row string");
    } else {
      while (i < s.size() &&
             std::isspace(static_cast<unsigned char>(s[i])) == 0) {
        tok += s[i++];
      }
    }
    const size_t c = out.size();
    std::optional<rdb::Value> v;
    if (c < schema.columns.size() &&
        quoted == (schema.columns[c].type == rdb::ValueType::kString)) {
      v = rdb::Value::FromName(tok, schema.columns[c].type);
    }
    if (!v) {
      return Status::ParseError("'" + tok + "' is no value of column " +
                                std::to_string(c) + " of " + schema.table_name);
    }
    out.push_back(*std::move(v));
  }
  return out;
}

}  // namespace

ConformanceCase CaseFromWorkload(const benchgen::Workload& w) {
  ConformanceCase c;
  c.ontology = w.ontology;
  c.database = w.database;
  c.mappings = w.mappings;
  c.queries = w.queries;
  return c;
}

benchgen::Workload ToWorkload(const ConformanceCase& c) {
  benchgen::Workload w;
  w.ontology = c.ontology;
  w.database = c.database;
  w.mappings = c.mappings;
  w.queries = c.queries;
  auto abox = mapping::MaterializeABox(w.mappings, w.database,
                                       &w.ontology.vocab());
  if (abox.ok()) w.abox = *std::move(abox);
  return w;
}

std::vector<std::string> RunCase(const ConformanceCase& c, bool run_tableau) {
  benchgen::Workload w = ToWorkload(c);
  ClassifierDiffOptions copts;
  copts.run_tableau = run_tableau;
  copts.mutation = c.mutation;
  std::vector<std::string> diffs = CompareClassifiers(w.ontology, copts);
  for (auto& d : CheckAnswerPaths(w)) diffs.push_back(std::move(d));
  return diffs;
}

Result<std::string> SerializeCase(const ConformanceCase& c) {
  std::ostringstream os;
  os << "# olite conformance corpus case\n";
  os << "expect " << (c.expect_discrepancy ? "discrepancy" : "agree") << "\n";
  if (c.mutation.enabled()) {
    os << "mutation drop-concept-supers " << c.mutation.drop_concept_supers_of
       << "\n";
  }
  os << "begin ontology\n" << c.ontology.ToString() << "end ontology\n";
  os << "begin tables\n";
  for (const auto& [name, table] : c.database.tables()) {
    os << "table " << name;
    for (const auto& col : table.schema().columns) {
      os << " " << col.name << ":" << TypeToken(col.type);
    }
    os << "\n";
    for (const auto& row : table.rows()) {
      os << "row " << name;
      for (const auto& v : row) os << " " << v.ToString();
      os << "\n";
    }
  }
  os << "end tables\n";
  os << "begin mappings\n";
  for (const auto& m : c.mappings.assertions()) {
    OLITE_ASSIGN_OR_RETURN(std::string line,
                           RenderMapping(m, c.ontology.vocab()));
    os << line << "\n";
  }
  os << "end mappings\n";
  os << "begin queries\n";
  for (const auto& q : c.queries) {
    os << q.ToString(c.ontology.vocab()) << "\n";
  }
  os << "end queries\n";
  return os.str();
}

Result<ConformanceCase> ParseCase(std::string_view text) {
  ConformanceCase c;
  enum class Section { kNone, kOntology, kTables, kMappings, kQueries };
  Section section = Section::kNone;
  std::string ontology_text, mappings_text;
  std::vector<std::string> query_lines, table_lines;

  size_t line_no = 0;
  for (const auto& raw : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw);
    auto fail = [&](const std::string& msg) {
      return Status::ParseError("corpus line " + std::to_string(line_no) +
                                ": " + msg);
    };
    if (section == Section::kNone) {
      if (line.empty() || line[0] == '#') continue;
      if (line == "expect agree") {
        c.expect_discrepancy = false;
      } else if (line == "expect discrepancy") {
        c.expect_discrepancy = true;
      } else if (StartsWith(line, "mutation drop-concept-supers ")) {
        c.mutation.drop_concept_supers_of =
            std::string(Trim(line.substr(29)));
      } else if (StartsWith(line, "begin ")) {
        std::string_view what = line.substr(6);
        if (what == "ontology") section = Section::kOntology;
        else if (what == "tables") section = Section::kTables;
        else if (what == "mappings") section = Section::kMappings;
        else if (what == "queries") section = Section::kQueries;
        else return fail("unknown section '" + std::string(what) + "'");
      } else {
        return fail("unexpected line '" + std::string(line) + "'");
      }
      continue;
    }
    if (StartsWith(line, "end ")) {
      section = Section::kNone;
      continue;
    }
    switch (section) {
      case Section::kOntology:
        ontology_text += std::string(raw) + "\n";
        break;
      case Section::kTables:
        if (!line.empty() && line[0] != '#') {
          table_lines.emplace_back(line);
        }
        break;
      case Section::kMappings:
        mappings_text += std::string(raw) + "\n";
        break;
      case Section::kQueries:
        if (!line.empty() && line[0] != '#') query_lines.emplace_back(line);
        break;
      case Section::kNone:
        break;
    }
  }

  OLITE_ASSIGN_OR_RETURN(c.ontology, dllite::ParseOntology(ontology_text));

  for (const auto& tl : table_lines) {
    if (StartsWith(tl, "table ")) {
      auto words = Split(Trim(std::string_view(tl).substr(6)), ' ');
      if (words.empty() || words[0].empty()) {
        return Status::ParseError("corpus: malformed table line");
      }
      rdb::Schema schema;
      schema.table_name = words[0];
      for (size_t i = 1; i < words.size(); ++i) {
        if (words[i].empty()) continue;
        auto parts = Split(words[i], ':');
        if (parts.size() != 2) {
          return Status::ParseError("corpus: malformed column '" + words[i] +
                                    "'");
        }
        OLITE_ASSIGN_OR_RETURN(rdb::ValueType type, ParseTypeToken(parts[1]));
        schema.columns.push_back({parts[0], type});
      }
      OLITE_RETURN_IF_ERROR(c.database.CreateTable(std::move(schema)));
    } else if (StartsWith(tl, "row ")) {
      std::string_view rest = Trim(std::string_view(tl).substr(4));
      size_t space = rest.find(' ');
      if (space == std::string_view::npos) {
        return Status::ParseError("corpus: malformed row line");
      }
      std::string table(rest.substr(0, space));
      OLITE_ASSIGN_OR_RETURN(const rdb::Table* t, c.database.GetTable(table));
      OLITE_ASSIGN_OR_RETURN(
          rdb::Row row, ParseRowLiterals(rest.substr(space + 1), t->schema()));
      OLITE_RETURN_IF_ERROR(c.database.Insert(table, std::move(row)));
    } else {
      return Status::ParseError("corpus: unexpected tables line '" + tl + "'");
    }
  }

  OLITE_ASSIGN_OR_RETURN(
      c.mappings, mapping::ParseMappings(mappings_text, c.ontology.vocab()));
  for (const auto& ql : query_lines) {
    OLITE_ASSIGN_OR_RETURN(query::ConjunctiveQuery cq,
                           query::ParseQuery(ql, c.ontology.vocab()));
    c.queries.push_back(std::move(cq));
  }
  return c;
}

}  // namespace olite::testkit
