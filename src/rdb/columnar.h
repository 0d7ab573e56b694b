#ifndef OLITE_RDB_COLUMNAR_H_
#define OLITE_RDB_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/exec_budget.h"
#include "common/status.h"
#include "rdb/query.h"
#include "rdb/stats.h"
#include "rdb/table.h"

/// Engine-internal structures shared between the row-at-a-time evaluator
/// (query.cc) and the batched columnar evaluator (columnar.cc). Not part
/// of the public rdb API.

namespace olite::rdb {

/// Resolved column reference: (table position in FROM, column position).
struct ResolvedRef {
  size_t table_index;
  size_t column_index;
};

/// A select block with every name resolved against a concrete database:
/// the common IR both evaluators execute.
struct ResolvedBlock {
  std::vector<const Table*> tables;
  std::vector<ResolvedRef> select;
  std::vector<std::pair<ResolvedRef, ResolvedRef>> joins;
  std::vector<std::pair<ResolvedRef, Value>> filters;
  /// Prototype output row with constant coordinates pre-filled;
  /// `select_positions[i]` is the coordinate `select[i]` writes into.
  Row row_template;
  std::vector<size_t> select_positions;
};

/// The result accumulator both engines emit into: a hashed distinct-row
/// set (O(1) dedup per emitted row) plus the shared budget/row-cap
/// bookkeeping. `stopped` latches once a cap is hit; `exhausted` carries
/// the reason (the caller decides between degrading and failing). The
/// final result is sorted once on extraction, so the deterministic
/// (ordered) output contract of `Execute` is preserved.
class EvalSink {
 public:
  EvalSink(const ExecBudget* budget, uint64_t max_rows)
      : budget_(budget), max_rows_(max_rows) {}

  /// Inserts a distinct row. Returns false once evaluation must stop (row
  /// quota or cap hit — the row that blew a budget quota is *not* kept, so
  /// the result set stays exactly at the cap).
  bool Emit(Row row);

  /// Counts one scanned source row and polls the budget every 256 rows.
  /// Returns false once evaluation must stop.
  bool PollScan();

  /// Latches the stop flag with `why` (first reason wins).
  void Exhaust(Status why);

  bool stopped() const { return stop_; }
  const Status& exhausted() const { return exhausted_; }
  size_t size() const { return rows_.size(); }
  uint64_t scanned() const { return scanned_; }

  /// Extracts the accumulated rows in deterministic (sorted) order.
  std::vector<Row> TakeSorted();

 private:
  std::unordered_set<Row, ValueVecHasher> rows_;
  const ExecBudget* budget_ = nullptr;
  uint64_t max_rows_ = 0;
  uint64_t scanned_ = 0;
  bool stop_ = false;
  Status exhausted_;
};

namespace columnar {

/// One equi-join predicate connecting an already-bound plan prefix to the
/// table a step binds: `prefix[prefix_pos].prefix_col == this.col`.
struct JoinPred {
  size_t prefix_pos;
  size_t prefix_col;
  size_t col;
};

/// One step of a block program: bind `table` (the `orig_index`-th FROM
/// entry), apply its local filters/self-equalities, and hash-join it to
/// the prefix via `joins` (empty joins on a non-first step = cross
/// product). `prefix_key` canonically identifies the sub-join computed by
/// the plan prefix ending at this step — two blocks whose prefixes render
/// the same key compute the same intermediate, which the shared-subplan
/// cache materialises once.
struct Step {
  const Table* table = nullptr;
  size_t orig_index = 0;
  std::vector<std::pair<size_t, Value>> filters;
  std::vector<std::pair<size_t, size_t>> self_eq;
  std::vector<JoinPred> joins;
  std::string prefix_key;
};

/// Where a projected output column comes from: step `step_pos`, column
/// `col`, written at output coordinate `out_pos`.
struct Output {
  size_t step_pos;
  size_t col;
  size_t out_pos;
};

/// A compiled block: ordered steps plus the projection layout.
struct BlockProgram {
  std::vector<Step> steps;
  Row row_template;
  std::vector<Output> outputs;
  /// True when cost-based ordering changed the original FROM order.
  bool reordered = false;
};

/// A materialised intermediate: column-major tuple store over the first
/// `cols.size()` steps of a program — `cols[k][i]` is the row index (into
/// step k's table) bound by tuple `i`. Shared between blocks via the
/// prefix cache, so it stores indices, never copies of `Value`s.
struct Chunk {
  std::vector<std::vector<uint32_t>> cols;
  size_t rows = 0;
};

/// The per-execution shared-subplan cache: canonical prefix key → the
/// materialised intermediate. Call-local (one per `Execute`), so plan
/// sharing needs no synchronisation.
using PrefixCache =
    std::unordered_map<std::string, std::shared_ptr<const Chunk>>;

/// Compiles every block: cost-based greedy join ordering (when `stats` is
/// non-null), sharing-aware tie-breaking that clusters structure common to
/// many blocks at the front of the order, and canonical prefix keys. With
/// `shuffle_seed != 0` the order of every block is instead a seeded random
/// permutation — a test hook for the join-order metamorphic check.
std::vector<BlockProgram> CompilePlan(const std::vector<ResolvedBlock>& blocks,
                                      const DatabaseStats* stats,
                                      uint64_t shuffle_seed = 0);

/// Evaluates the compiled plan into `sink`: batched scans (of the equality
/// range of `options.index` when set, see `EvalOptions::index`), hash
/// joins and projection, with the fault site `kRdbExecute` firing once per
/// block and once per batch, and the budget polled per row read. Returns
/// non-OK only for an injected fault; budget/cap exhaustion latches in the
/// sink.
/// `blocks_done` (optional) counts fully evaluated blocks; `stats`
/// (optional) accumulates evaluator counters.
Status EvalPlan(const std::vector<BlockProgram>& programs,
                const EvalOptions& options, EvalSink* sink, EvalStats* stats,
                size_t* blocks_done);

}  // namespace columnar
}  // namespace olite::rdb

#endif  // OLITE_RDB_COLUMNAR_H_
