#include "rdb/stats.h"

#include <algorithm>
#include <utility>

namespace olite::rdb {

// ---------------------------------------------------------------------------
// ValueDictionary
// ---------------------------------------------------------------------------

uint32_t ValueDictionary::Find(const Value& v) const {
  if (slots_.empty()) return kNoId;
  const uint64_t hash = v.Hash();
  const size_t mask = slots_.size() - 1;
  for (size_t s = Slot(hash);; s = (s + 1) & mask) {
    const uint32_t id = slots_[s];
    if (id == kNoId || (hashes_[id] == hash && values_[id] == v)) return id;
  }
}

uint32_t ValueDictionary::Intern(const Value& v) {
  if (2 * (values_.size() + 1) > slots_.size()) Grow();
  const uint64_t hash = v.Hash();
  const size_t mask = slots_.size() - 1;
  size_t s = Slot(hash);
  for (; slots_[s] != kNoId; s = (s + 1) & mask) {
    const uint32_t id = slots_[s];
    if (hashes_[id] == hash && values_[id] == v) return id;
  }
  const auto id = static_cast<uint32_t>(values_.size());
  values_.push_back(v);
  hashes_.push_back(hash);
  slots_[s] = id;
  return id;
}

void ValueDictionary::Grow() {
  slots_.assign(std::max<size_t>(64, 2 * slots_.size()), kNoId);
  const size_t mask = slots_.size() - 1;
  for (uint32_t id = 0; id < values_.size(); ++id) {
    size_t s = Slot(hashes_[id]);
    while (slots_[s] != kNoId) s = (s + 1) & mask;
    slots_[s] = id;
  }
}

// ---------------------------------------------------------------------------
// SourceIndex
// ---------------------------------------------------------------------------

std::shared_ptr<const SourceIndex> SourceIndex::Build(const Database& db) {
  auto index = std::make_shared<SourceIndex>();
  ValueDictionary& dict = index->dict_;
  for (const auto& [name, table] : db.tables()) {
    const std::vector<Row>& rows = table.rows();
    TableIndex& ti = index->tables_[&table];
    ti.rows = rows.data();
    ti.num_rows = rows.size();
    ti.columns.resize(table.schema().columns.size());
    for (ColumnIndex& ci : ti.columns) ci.ids.reserve(rows.size());
    for (const Row& row : rows) {
      for (size_t c = 0; c < ti.columns.size(); ++c) {
        ti.columns[c].ids.push_back(dict.Intern(row[c]));
      }
    }
  }
  // Counting sort of each column's rows by id: stable, and linear but for
  // ordering the column's distinct ids. `count` is zero between columns.
  // Distinct counts fall out of it: one per id.
  std::vector<uint32_t> count(dict.size(), 0);
  std::vector<uint32_t> present;
  for (auto& [table, ti] : index->tables_) {
    for (ColumnIndex& ci : ti.columns) {
      present.clear();
      for (uint32_t id : ci.ids) {
        if (count[id]++ == 0) present.push_back(id);
      }
      ci.distinct = present.size();
      // Ids run in first-seen order, so a column is often sorted already.
      if (!std::is_sorted(present.begin(), present.end())) {
        std::sort(present.begin(), present.end());
      }
      uint32_t start = 0;
      for (uint32_t id : present) start += std::exchange(count[id], start);
      ci.perm.resize(ci.ids.size());
      for (size_t r = 0; r < ci.ids.size(); ++r) {
        ci.perm[count[ci.ids[r]]++] = static_cast<uint32_t>(r);
      }
      for (uint32_t id : present) count[id] = 0;
    }
  }
  return index;
}

const SourceIndex::ColumnIndex* SourceIndex::Column(const Table& table,
                                                    size_t col) const {
  auto it = tables_.find(&table);
  if (it == tables_.end()) return nullptr;
  const TableIndex& ti = it->second;
  // A table mutated since the build (or a new one at a recycled address)
  // has different row storage: it reads as not indexed.
  if (ti.rows != table.rows().data() || ti.num_rows != table.NumRows() ||
      col >= ti.columns.size()) {
    return nullptr;
  }
  return &ti.columns[col];
}

std::optional<std::span<const uint32_t>> SourceIndex::EqualRows(
    const Table& table, size_t col, const Value& v) const {
  const ColumnIndex* ci = Column(table, col);
  if (ci == nullptr) return std::nullopt;
  const uint32_t id = dict_.Find(v);
  if (id == ValueDictionary::kNoId) return std::span<const uint32_t>();
  auto range = std::ranges::equal_range(
      ci->perm, id, {}, [ci](uint32_t row) { return ci->ids[row]; });
  return std::span<const uint32_t>(range.begin(), range.end());
}

std::optional<std::span<const uint32_t>> SourceIndex::ColumnIds(
    const Table& table, size_t col) const {
  const ColumnIndex* ci = Column(table, col);
  if (ci == nullptr) return std::nullopt;
  return std::span<const uint32_t>(ci->ids);
}

uint64_t SourceIndex::Distinct(const Table& table, size_t col) const {
  const ColumnIndex* ci = Column(table, col);
  return ci == nullptr ? 0 : ci->distinct;
}

// ---------------------------------------------------------------------------
// DatabaseStats
// ---------------------------------------------------------------------------

DatabaseStats DatabaseStats::Collect(const Database& db) {
  DatabaseStats out;
  out.index_ = SourceIndex::Build(db);
  for (const auto& [name, table] : db.tables()) {
    TableStats ts;
    ts.rows = table.NumRows();
    ts.columns.resize(table.schema().columns.size());
    for (size_t c = 0; c < ts.columns.size(); ++c) {
      ts.columns[c].distinct = out.index_->Distinct(table, c);
    }
    out.tables_.emplace(name, std::move(ts));
  }
  return out;
}

}  // namespace olite::rdb
