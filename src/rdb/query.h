#ifndef OLITE_RDB_QUERY_H_
#define OLITE_RDB_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/exec_budget.h"
#include "common/result.h"
#include "rdb/table.h"

namespace olite::rdb {

/// A column reference inside a select block: `t<table_index>.<column>`.
struct ColumnRef {
  size_t table_index = 0;  ///< index into SelectBlock::from_tables
  std::string column;

  bool operator==(const ColumnRef& o) const {
    return table_index == o.table_index && column == o.column;
  }
};

/// Equality join condition between two column references.
struct EqJoin {
  ColumnRef lhs;
  ColumnRef rhs;
};

/// Constant selection `col = value`.
struct EqConst {
  ColumnRef col;
  Value value;
};

/// Constant projection: the literal `value` emitted at output coordinate
/// `position`. DL-Lite rewriting can pin an answer coordinate to a
/// constant (a distinguished variable unified with a constant by the
/// reduce step); such coordinates select a literal instead of a column.
struct ConstSelect {
  size_t position = 0;  ///< index into the block's output row
  Value value;
};

/// One select-project-join block:
/// `SELECT <select> FROM from_tables WHERE joins AND filters`.
/// The output row interleaves `select` columns and `const_select`
/// literals: constants claim their `position`; the columns fill the
/// remaining coordinates in order. Arity = select + const_select.
struct SelectBlock {
  std::vector<std::string> from_tables;
  std::vector<ColumnRef> select;
  std::vector<EqJoin> joins;
  std::vector<EqConst> filters;
  std::vector<ConstSelect> const_select;
};

/// A union of SPJ blocks evaluated under set semantics, i.e. a UCQ over
/// the relational sources — exactly the query class DL-Lite rewriting
/// produces. All blocks must project the same arity.
struct SqlQuery {
  std::vector<SelectBlock> blocks;

  /// Renders readable SQL (`SELECT … UNION SELECT …`).
  std::string ToString() const;
};

/// Which physical evaluator executes a query.
enum class EvalEngine : uint8_t {
  /// Resolved at execution time: the `OLITE_EVAL_ENGINE` environment
  /// variable ("columnar" / "nested_loop") when set, else kColumnar. The
  /// env override lets the ctest matrix run the whole tier-1 suite under
  /// either engine without code changes.
  kDefault = 0,
  /// Row-at-a-time left-deep nested-loop join (the original evaluator,
  /// kept as the baseline and fallback).
  kNestedLoop,
  /// Batched columnar operators: filtered scan → hash join → project →
  /// union, with statistics-driven join reordering and shared-subplan
  /// reuse across union blocks.
  kColumnar,
};

/// Canonical name of a *resolved* engine ("columnar" / "nested_loop").
const char* EvalEngineName(EvalEngine e);

/// Resolves kDefault against the environment override.
EvalEngine ResolveEvalEngine(EvalEngine requested);

/// Evaluator counters of one `Execute` call (see AnswerStats::eval for the
/// serving-side surface).
struct EvalStats {
  /// Resolved engine that ran ("columnar" / "nested_loop").
  const char* engine = "";
  /// Batches processed by the columnar engine (scan/build/probe/project
  /// slices of up to 1024 tuples); 0 under the nested-loop engine.
  uint64_t batches = 0;
  /// Source rows visited by scans plus intermediate tuples probed.
  uint64_t rows_scanned = 0;
  /// Distinct shared sub-plan nodes (join prefixes) materialised.
  uint64_t shared_nodes = 0;
  /// Times a block resumed from an already-materialised shared prefix
  /// instead of recomputing it.
  uint64_t shared_node_hits = 0;
  /// Blocks whose cost-based join order differs from the written order.
  uint64_t join_reorders = 0;
  /// Wall-clock per executed union block, in execution order (microseconds).
  /// Feeds the serving layer's execute-per-block trace spans and the
  /// `rdb.block_us` registry histogram; a truncated evaluation reports
  /// only the blocks that ran.
  std::vector<double> block_us;
};

class DatabaseStats;  // rdb/stats.h
class SourceIndex;    // rdb/stats.h

/// Budget controls for `Execute`.
struct EvalOptions {
  /// Shared budget: the kRows quota caps materialised distinct rows, the
  /// deadline/cancellation flag is polled every few hundred scanned source
  /// rows (per batch under the columnar engine). May be null.
  const ExecBudget* budget = nullptr;
  /// On exhaustion return the rows found so far (a sound subset) instead
  /// of kResourceExhausted.
  bool allow_partial = false;
  /// Records a truncation event when evaluation stopped early.
  Degradation* degradation = nullptr;
  /// Physical evaluator; kDefault resolves via OLITE_EVAL_ENGINE, else
  /// columnar.
  EvalEngine engine = EvalEngine::kDefault;
  /// Test hook: with a non-zero seed the columnar engine replaces the
  /// cost-based join order of every block by a seeded random permutation
  /// (recompiled per call). Answers must not change — the conformance
  /// metamorphic check sweeps seeds to prove it.
  uint64_t join_order_seed = 0;
  /// Equality index of the database being queried (`DatabaseStats::
  /// index()`). The columnar engine's filtered scan then reads only the
  /// rows in the index range of a step's first constant filter, of any
  /// type, still checking every filter on them; tables the index was not
  /// built from scan in full. Batches, fault hits and budget polls count
  /// the rows read. The nested-loop engine ignores it. May be null.
  const SourceIndex* index = nullptr;
  /// Evaluator counters, reset and filled when non-null.
  EvalStats* eval_stats = nullptr;
};

/// Evaluates `query` against `db` under the selected engine; distinct rows
/// in deterministic (sorted) order. Each select block is a fault-injection
/// point (`fault::Site::kRdbExecute`; the columnar engine additionally
/// fires it per batch).
Result<std::vector<Row>> Execute(const Database& db, const SqlQuery& query,
                                 const EvalOptions& options = {});

/// Options for `PreparedPlan::Prepare`.
struct PrepareOptions {
  /// Table statistics driving the columnar engine's cost-based join
  /// ordering, collected at load time (`DatabaseStats::Collect`; the
  /// `CompiledOntology` snapshot does this once at `Compile`). Null keeps
  /// the written join order. Only read during `Prepare`.
  const DatabaseStats* stats = nullptr;
};

/// A serve-many execution plan: column references resolved to (table,
/// column) positions and the SQL text rendered once at preparation time,
/// so repeated executions (plan-cache hits) skip both name resolution and
/// re-rendering.
///
/// The plan borrows the `Table` objects of the database it was prepared
/// against: that database must outlive the plan and must not be mutated
/// while the plan is in use (the OBDA snapshot layer guarantees both —
/// a `CompiledOntology` owns its database immutably). Copies share the
/// resolved state and are cheap.
class PreparedPlan {
 public:
  /// Resolves every block against `db` (schema validation included),
  /// renders the SQL text, and compiles the columnar block programs —
  /// with statistics-driven join ordering and shared-prefix clustering
  /// when `options.stats` is supplied.
  static Result<PreparedPlan> Prepare(const Database& db, SqlQuery query,
                                      const PrepareOptions& options);
  static Result<PreparedPlan> Prepare(const Database& db, SqlQuery query);

  const SqlQuery& query() const { return *query_; }
  const std::string& sql_text() const { return sql_text_; }
  size_t num_blocks() const { return query_->blocks.size(); }

 private:
  friend Result<std::vector<Row>> Execute(const PreparedPlan& plan,
                                          const EvalOptions& options);
  struct Resolved;  // defined in query.cc

  PreparedPlan() = default;

  std::shared_ptr<const SqlQuery> query_;
  std::string sql_text_;
  std::shared_ptr<const Resolved> resolved_;
};

/// Evaluates a prepared plan (same semantics and fault-injection sites as
/// `Execute(db, query)`, minus per-call resolution). Safe to call
/// concurrently on one plan: evaluation state is call-local.
Result<std::vector<Row>> Execute(const PreparedPlan& plan,
                                 const EvalOptions& options = {});

}  // namespace olite::rdb

#endif  // OLITE_RDB_QUERY_H_
