#ifndef OLITE_OBDA_QUERY_ENGINE_H_
#define OLITE_OBDA_QUERY_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/lru_cache.h"
#include "common/result.h"
#include "obda/answer.h"
#include "obda/compiled_ontology.h"
#include "obs/metrics.h"
#include "query/cq.h"
#include "rdb/query.h"

namespace olite::obda {

/// A fully compiled plan: everything between parsing and evaluation.
/// `plan == nullptr` encodes an empty unfolding (no mapped disjunct —
/// the certain answers are empty, no SQL to run).
struct CachedPlan {
  std::shared_ptr<const query::UnionQuery> ucq;
  std::shared_ptr<const rdb::PreparedPlan> plan;
  query::RewriteStats rewrite;
  /// Predicates of the *original* CQ's atoms, as sorted deduplicated
  /// `(Atom::Kind << 32) | id` tokens. A delta swap keeps a cached plan
  /// alive exactly when none of its tokens is in the delta's
  /// changed-predicate set (see `RefreshInfo::changed_preds`) — the plan's
  /// whole compilation is a function of those atoms' expansions.
  std::vector<uint64_t> preds;
  /// The renaming-invariant fingerprint hash of the CQ (the entry's shard
  /// hash), kept so a delta swap can copy the plan into the next engine's
  /// cache without re-parsing the key.
  uint64_t fp_hash = 0;
};

/// Outcome of `QueryEngine::InheritPlans`.
struct PlanInheritance {
  uint64_t migrated = 0;     ///< base plans copied into this engine's cache
  uint64_t invalidated = 0;  ///< base plans left behind (changed predicate)
};

/// Serving-side knobs, fixed at engine construction. Besides the cache and
/// metrics wiring they fix the plan-shaping choices (pruning, evaluator,
/// join order): every call on one engine compiles and runs its plans the
/// same way, so the plan-cache key needs no variant for them. To compare
/// two choices, build two engines over one `CompiledOntology`.
struct QueryEngineOptions {
  /// Total plan-cache entries across all shards. 0 disables caching: every
  /// call then runs the cold path (rewrite, unfold, prepare, evaluate).
  size_t plan_cache_capacity = 256;
  /// Shards of the plan cache; more shards = less lock contention under
  /// concurrent Answer() calls with distinct queries.
  size_t plan_cache_shards = 8;
  /// Record per-call counters and latency histograms into a
  /// `obs::MetricsRegistry`: per-stage timings (`stage.*_us`), whole-call
  /// latency (`obda.answer_us`), per-block evaluation latency
  /// (`rdb.block_us`), plan-cache hits/misses/insertions plus hit-rate and
  /// occupancy gauges (`plan_cache.*`), evaluator counters (`rdb.*`) and
  /// degradation-by-stage counters (`degradation.<stage>`). A few relaxed
  /// atomic updates per call; disable to shave the last percent off a
  /// microbenchmark.
  bool enable_metrics = true;
  /// The registry to record into; null = the process-wide
  /// `obs::MetricsRegistry::Default()`. Benchmarks pass a scoped registry
  /// per cell so percentiles do not bleed across configurations.
  obs::MetricsRegistry* metrics = nullptr;
  /// Compile without constraint-aware pruning (obda/constraints.h). The
  /// answers are the same; the compiled union is just larger. The
  /// pruning differential referee runs one engine each way.
  bool disable_constraint_pruning = false;
  /// Physical evaluator for the rdb stage. kDefault resolves through the
  /// OLITE_EVAL_ENGINE environment override, else columnar.
  rdb::EvalEngine engine = rdb::EvalEngine::kDefault;
  /// Forwarded to `rdb::EvalOptions::join_order_seed`: a non-zero seed
  /// randomises the columnar engine's join order per block (answers must
  /// be unaffected; the metamorphic referee checks that).
  uint64_t join_order_seed = 0;
};

/// The online phase of the serving stack: answers queries against one
/// immutable `CompiledOntology` snapshot. Stateless apart from the plan
/// cache (internally synchronised), so any number of threads may call
/// `Answer` on one engine concurrently. The cache belongs to this engine
/// and so to exactly one snapshot: a plan can never be replayed against
/// another snapshot unless `InheritPlans` proved it unaffected.
///
/// The plan cache maps the renaming-invariant fingerprint of a CQ (see
/// query/fingerprint.h) to its compiled plan {rewritten UCQ, prepared SQL
/// plan, rewrite stats}. A hit skips rewriting, minimisation and
/// unfolding entirely and goes straight to evaluation — the per-call
/// budget and fault-injection sites still apply there. Cache invariants:
///  * only *exact* plans are stored — a call whose result was degraded
///    (non-empty `AnswerStats::degradation`) never populates the cache, so
///    a hit always replays the complete rewriting;
///  * a hit is answer-identical to the cold path: the key is the exact
///    canonical text (hash collisions cannot alias two plans).
class QueryEngine {
 public:
  explicit QueryEngine(std::shared_ptr<const CompiledOntology> compiled,
                       QueryEngineOptions options = {});

  /// Certain answers of a CQ in text syntax
  /// (`q(x) :- Professor(x), teaches(x, y)`).
  Result<std::vector<AnswerTuple>> Answer(std::string_view query_text,
                                          AnswerStats* stats = nullptr) const;

  /// Certain answers of a parsed CQ.
  Result<std::vector<AnswerTuple>> Answer(const query::ConjunctiveQuery& cq,
                                          AnswerStats* stats = nullptr) const;

  /// Budgeted answering (see AnswerOptions): bounded wall-clock and
  /// per-stage quotas, cooperative cancellation, and — with
  /// `allow_degraded` — stage-by-stage cuts that trade completeness for
  /// staying inside the budget while keeping answers sound.
  Result<std::vector<AnswerTuple>> Answer(std::string_view query_text,
                                          const AnswerOptions& options,
                                          AnswerStats* stats = nullptr) const;

  Result<std::vector<AnswerTuple>> Answer(const query::ConjunctiveQuery& cq,
                                          const AnswerOptions& options,
                                          AnswerStats* stats = nullptr) const;

  /// Consistency of the virtual ABox w.r.t. the TBox: every negative
  /// inclusion is checked through a boolean query over the sources, plus
  /// functionality on the asserted extension. Always runs the full check
  /// (never consults the plan cache) and returns its findings by value.
  Result<ConsistencyReport> CheckConsistency() const;

  const CompiledOntology& compiled() const { return *compiled_; }
  const std::shared_ptr<const CompiledOntology>& snapshot() const {
    return compiled_;
  }

  /// Live plan-cache counters (aggregated over shards).
  LruCacheMetrics cache_metrics() const { return plan_cache_.metrics(); }

  /// Copies into this engine's cache every plan of `base`'s cache whose
  /// predicates avoid the sorted `changed_preds` tokens (see
  /// `RefreshInfo::changed_preds`); the rest are left behind. Meant for a
  /// fresh engine over a refresh of `base`'s snapshot, before it serves:
  /// the copied plans stay exact because the refresh shares the database
  /// the prepared plans read. Each shard keeps its recency order.
  PlanInheritance InheritPlans(const QueryEngine& base,
                               const std::vector<uint64_t>& changed_preds);

 private:
  /// Registry instruments resolved once at construction, so the per-call
  /// hot path records through raw pointers with no registry lookup (and no
  /// lock). All null when metrics are disabled.
  struct Instruments {
    obs::Counter* answers = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* rows = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* cache_insertions = nullptr;
    obs::Gauge* cache_hit_rate = nullptr;
    obs::Gauge* cache_entries = nullptr;
    obs::Gauge* cache_evictions = nullptr;
    obs::Histogram* answer_us = nullptr;
    /// Indexed like metric_names::kStageHistograms.
    obs::Histogram* stage_us[5] = {};
    obs::Histogram* block_us = nullptr;
    /// Constraint-aware pruning counters (metric_names::kPruned*).
    obs::Counter* pruned_disjuncts = nullptr;
    obs::Counter* pruned_unfoldings = nullptr;
    obs::Counter* constraint_checks = nullptr;
  };

  /// The pipeline behind every `Answer`. `consult_cache` = false runs the
  /// cold path without looking up or storing a plan (the consistency
  /// probes, which must not evict served plans).
  Result<std::vector<AnswerTuple>> Execute(const query::ConjunctiveQuery& cq,
                                           const AnswerOptions& options,
                                           AnswerStats* stats,
                                           bool consult_cache = true) const;

  /// Evaluates a prepared plan and renders rows into answer tuples. Fills
  /// `stats->stage.execute_us`; copies the SQL text into `stats->sql` only
  /// when `capture_sql` is set.
  Result<std::vector<AnswerTuple>> Evaluate(const CachedPlan& plan,
                                            const rdb::EvalOptions& eopts,
                                            bool capture_sql,
                                            AnswerStats* stats) const;

  /// End-of-call bookkeeping: registry counters/histograms/gauges and the
  /// sampled trace, driven entirely by the collected `stats`.
  void Record(const query::ConjunctiveQuery& cq, const AnswerOptions& opts,
              const AnswerStats& stats, bool ok, bool cache_consulted,
              uint64_t fingerprint, bool sampled, double total_us) const;

  std::shared_ptr<const CompiledOntology> compiled_;
  /// Canonical fingerprint text → compiled plan (internally synchronised).
  mutable ShardedLruCache<std::string, std::shared_ptr<const CachedPlan>>
      plan_cache_;
  /// Plan-shaping choices (see QueryEngineOptions).
  bool disable_constraint_pruning_ = false;
  rdb::EvalEngine eval_engine_ = rdb::EvalEngine::kDefault;
  uint64_t join_order_seed_ = 0;
  /// Null when metrics are disabled (QueryEngineOptions::enable_metrics).
  obs::MetricsRegistry* metrics_ = nullptr;
  Instruments ins_;
  /// Calls seen by the trace sampler (only advanced when a sink is set).
  mutable std::atomic<uint64_t> trace_seq_{0};
};

}  // namespace olite::obda

#endif  // OLITE_OBDA_QUERY_ENGINE_H_
