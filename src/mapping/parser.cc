#include "mapping/parser.h"

#include <cctype>
#include <charconv>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"

namespace olite::mapping {

namespace {

// Case-insensitive keyword comparison.
bool IsKeyword(std::string_view token, std::string_view keyword) {
  if (token.size() != keyword.size()) return false;
  for (size_t i = 0; i < token.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(token[i])) !=
        std::toupper(static_cast<unsigned char>(keyword[i]))) {
      return false;
    }
  }
  return true;
}

struct SqlToken {
  enum class Kind { kWord, kComma, kDot, kEquals, kString, kNumber, kEnd };
  Kind kind;
  std::string text;
};

Result<std::vector<SqlToken>> LexSql(std::string_view sql) {
  std::vector<SqlToken> out;
  size_t i = 0;
  while (i < sql.size()) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (c == ',') {
      out.push_back({SqlToken::Kind::kComma, ","});
      ++i;
    } else if (c == '.') {
      out.push_back({SqlToken::Kind::kDot, "."});
      ++i;
    } else if (c == '=') {
      out.push_back({SqlToken::Kind::kEquals, "="});
      ++i;
    } else if (c == '\'') {
      // Up to the closing quote; a doubled quote is one quote of the text,
      // as `rdb::Value::ToString` writes it.
      std::string value;
      for (++i; i < sql.size(); ++i) {
        if (sql[i] == '\'') {
          if (i + 1 >= sql.size() || sql[i + 1] != '\'') break;
          ++i;
        }
        value += sql[i];
      }
      if (i >= sql.size()) {
        return Status::ParseError("unterminated string literal");
      }
      ++i;
      out.push_back({SqlToken::Kind::kString, std::move(value)});
    } else if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      std::string value;
      value += c;
      ++i;
      while (i < sql.size() &&
             (std::isdigit(static_cast<unsigned char>(sql[i])) ||
              sql[i] == '.')) {
        value += sql[i++];
      }
      out.push_back({SqlToken::Kind::kNumber, std::move(value)});
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string word;
      while (i < sql.size() &&
             (std::isalnum(static_cast<unsigned char>(sql[i])) ||
              sql[i] == '_')) {
        word += sql[i++];
      }
      out.push_back({SqlToken::Kind::kWord, std::move(word)});
    } else {
      return Status::ParseError(std::string("unexpected character '") + c +
                                "' in SQL");
    }
  }
  out.push_back({SqlToken::Kind::kEnd, ""});
  return out;
}

// A column reference before alias resolution.
struct RawRef {
  std::string alias;  // empty when unqualified
  std::string column;
};

class SqlParser {
 public:
  explicit SqlParser(std::vector<SqlToken> tokens)
      : tokens_(std::move(tokens)) {}

  Result<rdb::SelectBlock> Parse() {
    if (!NextKeyword("SELECT")) return Err("expected SELECT");
    std::vector<RawRef> select;
    while (true) {
      OLITE_ASSIGN_OR_RETURN(RawRef ref, ParseRef());
      select.push_back(std::move(ref));
      if (cur().kind != SqlToken::Kind::kComma) break;
      ++pos_;
    }
    if (!NextKeyword("FROM")) return Err("expected FROM");
    while (true) {
      if (cur().kind != SqlToken::Kind::kWord) {
        return Err("expected a table name");
      }
      std::string table = cur().text;
      ++pos_;
      std::string alias;
      if (cur().kind == SqlToken::Kind::kWord &&
          !IsKeyword(cur().text, "WHERE")) {
        // Reserved words are not aliases: a dangling JOIN/ON/AND here is a
        // malformed (or unsupported) query, not a table alias.
        for (const char* kw :
             {"JOIN", "ON", "AND", "OR", "SELECT", "FROM", "INNER", "LEFT",
              "RIGHT", "OUTER", "UNION", "GROUP", "ORDER"}) {
          if (IsKeyword(cur().text, kw)) {
            return Err("unsupported SQL keyword '" + cur().text + "'");
          }
        }
        alias = cur().text;
        ++pos_;
      }
      size_t index = block_.from_tables.size();
      block_.from_tables.push_back(table);
      if (!alias.empty()) {
        if (!aliases_.emplace(alias, index).second) {
          return Err("duplicate alias '" + alias + "'");
        }
      }
      // The table name itself also works as an alias if unambiguous.
      alias_counts_[table]++;
      if (alias_counts_[table] == 1) table_alias_[table] = index;
      if (cur().kind != SqlToken::Kind::kComma) break;
      ++pos_;
    }
    if (IsKeyword(cur().text, "WHERE") &&
        cur().kind == SqlToken::Kind::kWord) {
      ++pos_;
      while (true) {
        OLITE_RETURN_IF_ERROR(ParseCondition());
        if (cur().kind == SqlToken::Kind::kWord &&
            IsKeyword(cur().text, "AND")) {
          ++pos_;
          continue;
        }
        break;
      }
    }
    if (cur().kind != SqlToken::Kind::kEnd) {
      return Err("trailing tokens after SQL: '" + cur().text + "'");
    }
    for (const auto& ref : select) {
      OLITE_ASSIGN_OR_RETURN(rdb::ColumnRef resolved, Resolve(ref));
      block_.select.push_back(resolved);
    }
    for (const auto& [lhs, rhs] : pending_joins_) {
      OLITE_ASSIGN_OR_RETURN(rdb::ColumnRef l, Resolve(lhs));
      OLITE_ASSIGN_OR_RETURN(rdb::ColumnRef r, Resolve(rhs));
      block_.joins.push_back({l, r});
    }
    for (const auto& [ref, value] : pending_filters_) {
      OLITE_ASSIGN_OR_RETURN(rdb::ColumnRef c, Resolve(ref));
      block_.filters.push_back({c, value});
    }
    return block_;
  }

 private:
  const SqlToken& cur() const { return tokens_[pos_]; }

  Status Err(const std::string& msg) const {
    return Status::ParseError("mapping SQL: " + msg);
  }

  bool NextKeyword(const char* kw) {
    if (cur().kind == SqlToken::Kind::kWord && IsKeyword(cur().text, kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<RawRef> ParseRef() {
    if (cur().kind != SqlToken::Kind::kWord) {
      return Err("expected a column reference, got '" + cur().text + "'");
    }
    std::string first = cur().text;
    ++pos_;
    if (cur().kind == SqlToken::Kind::kDot) {
      ++pos_;
      if (cur().kind != SqlToken::Kind::kWord) {
        return Err("expected a column after '.'");
      }
      std::string column = cur().text;
      ++pos_;
      return RawRef{first, column};
    }
    return RawRef{"", first};
  }

  Status ParseCondition() {
    OLITE_ASSIGN_OR_RETURN(RawRef lhs, ParseRef());
    if (cur().kind != SqlToken::Kind::kEquals) {
      return Err("expected '=' in WHERE condition");
    }
    ++pos_;
    switch (cur().kind) {
      case SqlToken::Kind::kString: {
        pending_filters_.emplace_back(lhs, rdb::Value::Str(cur().text));
        ++pos_;
        return Status::Ok();
      }
      case SqlToken::Kind::kNumber: {
        // A decimal point makes a DOUBLE, else an INT; the whole token must
        // be one in range.
        const std::string& text = cur().text;
        const char* end = text.data() + text.size();
        std::from_chars_result parsed{};
        rdb::Value value;
        if (text.find('.') != std::string::npos) {
          double d = 0;
          parsed = std::from_chars(text.data(), end, d);
          value = rdb::Value::Double(d);
        } else {
          int64_t n = 0;
          parsed = std::from_chars(text.data(), end, n);
          value = rdb::Value::Int(n);
        }
        if (parsed.ec != std::errc() || parsed.ptr != end) {
          return Err("malformed number '" + text + "'");
        }
        pending_filters_.emplace_back(lhs, std::move(value));
        ++pos_;
        return Status::Ok();
      }
      case SqlToken::Kind::kWord: {
        OLITE_ASSIGN_OR_RETURN(RawRef rhs, ParseRef());
        pending_joins_.emplace_back(lhs, rhs);
        return Status::Ok();
      }
      default:
        return Err("expected a literal or column after '='");
    }
  }

  Result<rdb::ColumnRef> Resolve(const RawRef& ref) const {
    if (ref.alias.empty()) {
      if (block_.from_tables.size() != 1) {
        return Err("unqualified column '" + ref.column +
                   "' with multiple tables in FROM");
      }
      return rdb::ColumnRef{0, ref.column};
    }
    auto it = aliases_.find(ref.alias);
    if (it != aliases_.end()) return rdb::ColumnRef{it->second, ref.column};
    auto tt = table_alias_.find(ref.alias);
    if (tt != table_alias_.end() && alias_counts_.at(ref.alias) == 1) {
      return rdb::ColumnRef{tt->second, ref.column};
    }
    return Err("unknown or ambiguous alias '" + ref.alias + "'");
  }

  std::vector<SqlToken> tokens_;
  size_t pos_ = 0;
  rdb::SelectBlock block_;
  std::unordered_map<std::string, size_t> aliases_;
  std::unordered_map<std::string, size_t> table_alias_;
  std::unordered_map<std::string, int> alias_counts_;
  std::vector<std::pair<RawRef, RawRef>> pending_joins_;
  std::vector<std::pair<RawRef, rdb::Value>> pending_filters_;
};

}  // namespace

Result<MappingAssertion> ParseMappingLine(std::string_view line,
                                          const dllite::Vocabulary& vocab) {
  size_t arrow = line.find("<-");
  if (arrow == std::string_view::npos) {
    return Status::ParseError("mapping assertion must contain '<-'");
  }
  std::string_view head = Trim(line.substr(0, arrow));
  std::string_view sql = Trim(line.substr(arrow + 2));

  size_t lp = head.find('(');
  if (lp == std::string_view::npos || head.empty() || head.back() != ')') {
    return Status::ParseError("malformed mapping head '" + std::string(head) +
                              "'");
  }
  std::string predicate(Trim(head.substr(0, lp)));
  std::string_view head_inner = head.substr(lp + 1, head.size() - lp - 2);
  if (head_inner.find('(') != std::string_view::npos ||
      head_inner.find(')') != std::string_view::npos) {
    return Status::ParseError("malformed mapping head '" + std::string(head) +
                              "'");
  }
  size_t head_arity = 0;
  for (const auto& field : Split(head_inner, ',')) {
    if (Trim(field).empty()) {
      return Status::ParseError("empty variable in mapping head '" +
                                std::string(head) + "'");
    }
    ++head_arity;
  }

  OLITE_ASSIGN_OR_RETURN(std::vector<SqlToken> tokens, LexSql(sql));
  SqlParser parser(std::move(tokens));
  OLITE_ASSIGN_OR_RETURN(rdb::SelectBlock block, parser.Parse());

  auto check_arity = [&](size_t expected) -> Status {
    if (head_arity != expected || block.select.size() != expected) {
      return Status::InvalidArgument(
          "predicate '" + predicate + "' expects " +
          std::to_string(expected) + " argument(s)/column(s)");
    }
    return Status::Ok();
  };
  if (auto c = vocab.FindConcept(predicate)) {
    OLITE_RETURN_IF_ERROR(check_arity(1));
    return MappingAssertion::ForConcept(*c, std::move(block));
  }
  if (auto p = vocab.FindRole(predicate)) {
    OLITE_RETURN_IF_ERROR(check_arity(2));
    return MappingAssertion::ForRole(*p, std::move(block));
  }
  if (auto u = vocab.FindAttribute(predicate)) {
    OLITE_RETURN_IF_ERROR(check_arity(2));
    return MappingAssertion::ForAttribute(*u, std::move(block));
  }
  return Status::NotFound("unknown ontology predicate '" + predicate + "'");
}

Result<MappingSet> ParseMappings(std::string_view text,
                                 const dllite::Vocabulary& vocab) {
  MappingSet out;
  size_t line_no = 0;
  for (const auto& raw : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw);
    if (line.empty() || line[0] == '#') continue;
    auto assertion = ParseMappingLine(line, vocab);
    if (!assertion.ok()) {
      return Status(assertion.status().code(),
                    "line " + std::to_string(line_no) + ": " +
                        assertion.status().message());
    }
    OLITE_RETURN_IF_ERROR(out.Add(std::move(assertion).value()));
  }
  return out;
}

}  // namespace olite::mapping
