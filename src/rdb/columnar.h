#ifndef OLITE_RDB_COLUMNAR_H_
#define OLITE_RDB_COLUMNAR_H_

#include <cstdint>
#include <optional>
#include <span>
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
  /// Per FROM entry, the shortest `SourceIndex` range among the entry's
  /// constant filters (ascending row order; empty when a filter's
  /// constant is absent). Empty vector, or nullopt for an entry: read
  /// every row. Bound once by `PreparedPlan::Prepare` from the
  /// statistics' index, which the plan keeps alive; the columnar engine
  /// reads them, the nested-loop engine does not.
  std::vector<std::optional<std::span<const uint32_t>>> ranges;
};

/// The result accumulator both engines emit into: a hashed distinct-row
/// set (O(1) dedup per emitted row) plus the shared budget bookkeeping.
/// `stopped` latches once the budget stops evaluation; `exhausted` carries
/// the reason (the caller decides between degrading and failing). The
/// final result is sorted once on extraction, so the deterministic
/// (ordered) output contract of `Execute` is preserved.
class EvalSink {
 public:
  explicit EvalSink(const ExecBudget* budget) : budget_(budget) {}

  /// Inserts a distinct row. Returns false once evaluation must stop (the
  /// row that blew the kRows quota is *not* kept, so the result set stays
  /// exactly at the cap).
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

/// Slot sentinel: the step's prefix or build is not shared with any other
/// step of the plan.
inline constexpr uint32_t kNoSlot = UINT32_MAX;

/// One step of a block program: bind `table` (the `orig_index`-th FROM
/// entry) by reading `range` (every row when nullopt), apply its local
/// filters/self-equalities to each row read, and hash-join it to the
/// prefix via `joins` (empty joins on a non-first step = cross product):
/// the step's filtered rows are built into a hash table keyed on their
/// `joins[*].col` values, and the prefix tuples probe it.
///
/// Sharing is decided once, by `CompilePlan`, and read by `EvalPlan`
/// through integer slots, so no key is rendered or hashed per call.
/// `prefix_slot` names the sub-join computed by the plan prefix ending at
/// this step when two or more steps of the plan compute the same one (same
/// tables, filters, self-equalities and join structure, in purely
/// positional terms); the call materialises it once. `build_slot` names the
/// step's hash build when two or more join steps of the plan build the same
/// one (same table, filters, self-equalities and build columns); the first
/// step to need it builds it, later ones only probe. kNoSlot: not shared.
struct Step {
  const Table* table = nullptr;
  size_t orig_index = 0;
  std::vector<std::pair<size_t, Value>> filters;
  std::vector<std::pair<size_t, size_t>> self_eq;
  std::vector<JoinPred> joins;
  std::optional<std::span<const uint32_t>> range;
  uint32_t prefix_slot = kNoSlot;
  uint32_t build_slot = kNoSlot;
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
  /// Prefix and build slots no later program uses: `EvalPlan` frees them
  /// once this program has run.
  std::vector<uint32_t> last_prefix_slots;
  std::vector<uint32_t> last_build_slots;
};

/// The programs of one union plus the number of slots their steps share.
/// Immutable once compiled: every call keeps its own slot contents, so a
/// cached plan executes concurrently without locking.
struct Plan {
  std::vector<BlockProgram> programs;
  uint32_t prefix_slots = 0;
  uint32_t build_slots = 0;
};

/// A materialised intermediate: column-major tuple store over the first
/// `cols.size()` steps of a program — `cols[k][i]` is the row index (into
/// step k's table) bound by tuple `i`. Shared between blocks through a
/// prefix slot, so it stores indices, never copies of `Value`s.
struct Chunk {
  std::vector<std::vector<uint32_t>> cols;
  size_t rows = 0;
};

/// Compiles every block: cost-based greedy join ordering (when `stats` is
/// non-null), sharing-aware tie-breaking that clusters structure common to
/// many blocks at the front of the order, and the prefix and build slots
/// of the steps that share. With `shuffle_seed != 0` the order of every
/// block is instead a seeded random permutation — a test hook for the
/// join-order metamorphic check.
Plan CompilePlan(const std::vector<ResolvedBlock>& blocks,
                 const DatabaseStats* stats, uint64_t shuffle_seed = 0);

/// Evaluates the compiled plan into `sink`: batched scans of each step's
/// bound index range (of every row when it has none), hash joins and
/// projection, with the fault site `kRdbExecute` firing once per block and
/// once per batch of rows read or probed, and the budget polled per row
/// read or probed. Each program resumes from its deepest prefix slot
/// already materialised in this call and probes a build slot already built
/// in this call instead of scanning and building again; a prefix or build
/// cut short by the budget is never stored, and each slot is freed after
/// the last program that uses it. Returns non-OK only for an injected
/// fault; budget exhaustion latches in the sink.
/// `blocks_done` (optional) counts fully evaluated blocks; `stats`
/// (optional) accumulates evaluator counters.
Status EvalPlan(const Plan& plan, EvalSink* sink, EvalStats* stats,
                size_t* blocks_done);

}  // namespace columnar
}  // namespace olite::rdb

#endif  // OLITE_RDB_COLUMNAR_H_
