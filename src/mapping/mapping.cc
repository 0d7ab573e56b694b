#include "mapping/mapping.h"

namespace olite::mapping {

namespace {

// Renders a value as an individual/value name. Must agree with the name
// rendering of the unfolding path (obda::QueryEngine) — both delegate to
// rdb::Value::ToName so the materialised ABox and the SQL answers name
// the same individuals identically.
std::string ValueToName(const rdb::Value& v) { return v.ToName(); }

}  // namespace

Status MappingSet::Add(MappingAssertion assertion) {
  size_t expected = assertion.kind == TargetKind::kConcept ? 1 : 2;
  if (assertion.source.select.size() != expected) {
    return Status::InvalidArgument(
        "mapping source must project " + std::to_string(expected) +
        " column(s), got " + std::to_string(assertion.source.select.size()));
  }
  if (assertion.source.from_tables.empty()) {
    return Status::InvalidArgument("mapping source has an empty FROM list");
  }
  uint64_t key = IndexKey(assertion.kind, assertion.predicate);
  index_[key].push_back(assertions_.size());
  assertions_.push_back(std::move(assertion));
  return Status::Ok();
}

Status MappingSet::Validate(const rdb::Database& db) const {
  for (size_t i = 0; i < assertions_.size(); ++i) {
    OLITE_RETURN_IF_ERROR(ValidateAssertion(i, db));
  }
  return Status::Ok();
}

Status MappingSet::ValidateAssertion(size_t i,
                                     const rdb::Database& db) const {
  const rdb::SelectBlock& block = assertions_[i].source;
  std::vector<const rdb::Table*> tables;
  for (const auto& name : block.from_tables) {
    auto t = db.GetTable(name);
    if (!t.ok()) {
      return Status(t.status().code(), "mapping #" + std::to_string(i) +
                                           ": " + t.status().message());
    }
    tables.push_back(*t);
  }
  auto check = [&](const rdb::ColumnRef& ref) -> Status {
    if (ref.table_index >= tables.size()) {
      return Status::OutOfRange("mapping #" + std::to_string(i) +
                                ": table index out of range");
    }
    if (!tables[ref.table_index]->schema().ColumnIndex(ref.column)) {
      return Status::NotFound(
          "mapping #" + std::to_string(i) + ": no column '" + ref.column +
          "' in table '" + tables[ref.table_index]->schema().table_name +
          "'");
    }
    return Status::Ok();
  };
  for (const auto& ref : block.select) OLITE_RETURN_IF_ERROR(check(ref));
  for (const auto& j : block.joins) {
    OLITE_RETURN_IF_ERROR(check(j.lhs));
    OLITE_RETURN_IF_ERROR(check(j.rhs));
  }
  for (const auto& filt : block.filters) {
    OLITE_RETURN_IF_ERROR(check(filt.col));
    // A constant of another type than its column matches no row.
    const rdb::Schema& schema = tables[filt.col.table_index]->schema();
    const rdb::ValueType column_type =
        schema.columns[*schema.ColumnIndex(filt.col.column)].type;
    if (filt.value.type() != column_type) {
      return Status::InvalidArgument(
          "mapping #" + std::to_string(i) + ": filter on column '" +
          filt.col.column + "' of table '" + schema.table_name + "' is " +
          rdb::ValueTypeName(filt.value.type()) + " " +
          filt.value.ToString() + ", but the column is " +
          rdb::ValueTypeName(column_type));
    }
  }
  return Status::Ok();
}

std::vector<const MappingAssertion*> MappingSet::For(
    TargetKind kind, uint32_t predicate) const {
  std::vector<const MappingAssertion*> out;
  auto it = index_.find(IndexKey(kind, predicate));
  if (it == index_.end()) return out;
  for (size_t i : it->second) out.push_back(&assertions_[i]);
  return out;
}

Result<dllite::ABox> MaterializeABox(const MappingSet& mappings,
                                     const rdb::Database& db,
                                     dllite::Vocabulary* vocab) {
  dllite::ABox abox;
  for (const auto& assertion : mappings.assertions()) {
    rdb::SqlQuery q;
    q.blocks.push_back(assertion.source);
    OLITE_ASSIGN_OR_RETURN(std::vector<rdb::Row> rows, Execute(db, q));
    for (const auto& row : rows) {
      switch (assertion.kind) {
        case TargetKind::kConcept:
          abox.AddConceptAssertion(
              {assertion.predicate, vocab->InternIndividual(
                                        ValueToName(row[0]))});
          break;
        case TargetKind::kRole:
          abox.AddRoleAssertion(
              {assertion.predicate, vocab->InternIndividual(ValueToName(row[0])),
               vocab->InternIndividual(ValueToName(row[1]))});
          break;
        case TargetKind::kAttribute:
          abox.AddAttributeAssertion(
              {assertion.predicate,
               vocab->InternIndividual(ValueToName(row[0])),
               ValueToName(row[1])});
          break;
      }
    }
  }
  return abox;
}

}  // namespace olite::mapping
