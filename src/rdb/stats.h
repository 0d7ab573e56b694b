#ifndef OLITE_RDB_STATS_H_
#define OLITE_RDB_STATS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdb/table.h"

namespace olite::rdb {

/// Dense `uint32` ids for typed values, one per value under `Value ==`
/// (see `Value` for the identity). Ids are handed out in first-`Intern`
/// order. Open addressing over the id array keeps it to one `Value`, its
/// hash and two slots per entry.
class ValueDictionary {
 public:
  static constexpr uint32_t kNoId = UINT32_MAX;

  /// Id of `v`, or kNoId when absent.
  uint32_t Find(const Value& v) const;
  /// Id of `v`, added when absent.
  uint32_t Intern(const Value& v);

  size_t size() const { return values_.size(); }
  const Value& value(uint32_t id) const { return values_[id]; }

 private:
  /// Home slot of `hash`; `slots_` has a power-of-two size.
  size_t Slot(uint64_t hash) const { return hash & (slots_.size() - 1); }
  void Grow();

  std::vector<Value> values_;     ///< id → value
  std::vector<uint64_t> hashes_;  ///< id → hash of its value
  std::vector<uint32_t> slots_;   ///< ids, kNoId = free; load ≤ 1/2
};

/// Immutable equality index over the rows of one frozen database, built
/// once per `CompiledOntology::Compile` by `DatabaseStats::Collect`:
///   * one database-wide `ValueDictionary` of every cell value;
///   * per table column, a row → id array and the row permutation stably
///     sorted by id, so the rows holding one value are one ascending span.
/// It answers only for the `Table` objects it was built from, while their
/// row storage is unchanged; any other table reads as not indexed.
class SourceIndex {
 public:
  static std::shared_ptr<const SourceIndex> Build(const Database& db);

  const ValueDictionary& dictionary() const { return dict_; }

  /// Rows of `table` whose column `col` holds a value `== v`, in ascending
  /// row order (empty when `v` is absent), or nullopt when `table` is not
  /// indexed here.
  std::optional<std::span<const uint32_t>> EqualRows(const Table& table,
                                                     size_t col,
                                                     const Value& v) const;

  /// Column `col` of `table` as its row → id array, ids of `dictionary()`,
  /// or nullopt when `table` is not indexed here (as for `EqualRows`).
  std::optional<std::span<const uint32_t>> ColumnIds(const Table& table,
                                                     size_t col) const;

  /// Distinct values of column `col` under `Value ==`: one per id, so ±0.0
  /// count twice and every NaN of one sign once.
  uint64_t Distinct(const Table& table, size_t col) const;

 private:
  struct ColumnIndex {
    std::vector<uint32_t> ids;   ///< row → id
    std::vector<uint32_t> perm;  ///< rows, stably sorted by id
    uint64_t distinct = 0;       ///< see Distinct()
  };
  struct TableIndex {
    const Row* rows = nullptr;  ///< row storage at build time
    size_t num_rows = 0;
    std::vector<ColumnIndex> columns;
  };

  const ColumnIndex* Column(const Table& table, size_t col) const;

  ValueDictionary dict_;
  std::unordered_map<const Table*, TableIndex> tables_;
};

/// Per-column statistics of one table.
struct ColumnStats {
  /// Distinct values in the column, exact for the in-memory tables this
  /// engine serves (read off the source index). A disk-backed source
  /// would substitute a sketch (e.g. HyperLogLog) behind the same field.
  uint64_t distinct = 0;
};

/// Statistics of one table: row count plus per-column distinct counts, in
/// schema column order.
struct TableStats {
  uint64_t rows = 0;
  std::vector<ColumnStats> columns;

  /// Distinct count of column `col` (1 when unknown/empty — a selectivity
  /// denominator must never be 0).
  uint64_t Distinct(size_t col) const {
    if (col >= columns.size() || columns[col].distinct == 0) return 1;
    return columns[col].distinct;
  }
};

/// Statistics for every table of a database, collected once at load time
/// (the `CompiledOntology` snapshot computes them at `Compile`) and
/// consumed by the columnar evaluator's cost-based join ordering. They
/// carry the database's `SourceIndex`, which prepared plans and constraint
/// inference read; copies share it.
class DatabaseStats {
 public:
  DatabaseStats() = default;

  /// Builds the source index, then reads row counts and exact per-column
  /// distinct counts off it.
  static DatabaseStats Collect(const Database& db);

  /// Stats of `table`, or nullptr when unknown.
  const TableStats* Find(const std::string& table) const {
    auto it = tables_.find(table);
    return it == tables_.end() ? nullptr : &it->second;
  }

  bool empty() const { return tables_.empty(); }

  /// The index `Collect` built; null for default-constructed stats.
  /// Prepared plans share ownership of it.
  const std::shared_ptr<const SourceIndex>& index() const { return index_; }

 private:
  std::map<std::string, TableStats> tables_;
  std::shared_ptr<const SourceIndex> index_;
};

}  // namespace olite::rdb

#endif  // OLITE_RDB_STATS_H_
