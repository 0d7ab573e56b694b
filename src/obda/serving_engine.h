#ifndef OLITE_OBDA_SERVING_ENGINE_H_
#define OLITE_OBDA_SERVING_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/lru_cache.h"
#include "common/result.h"
#include "obda/answer.h"
#include "obda/compiled_ontology.h"
#include "obda/query_engine.h"

namespace olite::obda {

/// Token-based admission control for the serving layer. All limits of 0
/// keep that guard off; a default-constructed AdmissionOptions admits
/// everything immediately (the engine still tracks in-flight counts).
struct AdmissionOptions {
  /// Concurrent Answer calls allowed past admission. 0 = unlimited.
  size_t max_in_flight = 0;
  /// Callers allowed to wait for a token once `max_in_flight` is reached;
  /// arrivals beyond this are shed immediately. 0 = no queue (saturation
  /// sheds on arrival).
  size_t max_queue_depth = 0;
  /// Longest a queued caller waits for a token before being shed, in
  /// milliseconds. A caller with a tighter `AnswerOptions::deadline_ms`
  /// waits at most its remaining deadline instead — a shed response is
  /// always returned within the caller's own deadline.
  double max_queue_wait_ms = 100;
  /// Retry-after hint embedded in shed statuses (milliseconds); clients
  /// with a RetryPolicy back off at least this long anyway.
  double retry_after_ms = 1.0;
};

/// Everything a ServingEngine needs beyond the initial snapshot.
struct ServingEngineOptions {
  /// Template for each epoch's QueryEngine: cache capacity/shards,
  /// metrics wiring and plan-shaping choices apply to every epoch alike,
  /// which is what lets a delta swap hand plans from one epoch's engine
  /// to the next.
  QueryEngineOptions engine;
  AdmissionOptions admission;
};

/// Outcome of one `ServingEngine::RefreshAndSwap` (authoritative,
/// available even with metrics disabled). Every base cache entry is
/// either migrated or invalidated, so the two plan counts sum to the
/// base cache's size at the swap.
struct DeltaSwapStats {
  /// The closure patch degenerated to scratch classification.
  bool fell_back_scratch = false;
  uint64_t patched_nodes = 0;  ///< closure nodes re-derived
  uint64_t reused_views = 0;   ///< constraint view evaluations skipped
  uint32_t reused_stages = 0;  ///< compile stages shared with the base
  /// Base entries left behind: those touching a changed predicate.
  uint64_t plans_invalidated = 0;
  /// Base entries copied into the new epoch's cache.
  uint64_t plans_migrated = 0;
};

/// Point-in-time admission counters (authoritative, kept under the
/// admission lock — available even with metrics disabled).
struct AdmissionSnapshot {
  uint64_t admitted = 0;   ///< calls that obtained a token
  uint64_t queued = 0;     ///< calls that had to wait for one
  uint64_t shed = 0;       ///< calls rejected with kResourceExhausted
  uint64_t retries = 0;    ///< re-driven attempts (RetryPolicy)
  size_t in_flight = 0;    ///< tokens currently held
  size_t waiting = 0;      ///< callers currently queued
  size_t in_flight_peak = 0;  ///< high-water mark of in_flight
};

/// The hot-swap serving layer: epoch-versioned `CompiledOntology`
/// snapshots behind an RCU-style pointer swap, guarded by token-based
/// admission control with bounded queueing, deterministic overload
/// shedding, and bounded retry-with-backoff.
///
/// **Swap semantics.** Each published snapshot lives in an immutable
/// `Epoch` record {epoch number, QueryEngine}. `Answer` copies the
/// current record's shared_ptr under a brief mutex and holds it for the
/// whole call, so in-flight queries finish on the snapshot they started
/// with while new arrivals immediately see the new epoch; `Swap` never
/// waits for readers (the last in-flight holder releases the old
/// snapshot). Each epoch's engine owns its own plan cache, so a hit can
/// never cross epochs: a full `Swap` starts the new epoch with an empty
/// cache, and a call finishing on a retired epoch stores into that
/// epoch's cache, which dies with it. `RefreshAndSwap` instead carries
/// over every plan the delta provably leaves untouched.
///
/// **Admission.** With `max_in_flight` set, a call first acquires a
/// token; when none is free it queues (bounded by `max_queue_depth`) for
/// at most min(`max_queue_wait_ms`, remaining caller deadline). A full
/// queue or an expired wait sheds the call deterministically:
/// kResourceExhausted with a retry-after hint, never a crash and never
/// more than `max_in_flight` calls past the gate.
///
/// **Retry.** When `AnswerOptions::retry.max_attempts > 1`, transiently
/// failed attempts (kResourceExhausted, kInternal) are re-driven after a
/// jittered exponential backoff, each attempt against the *current*
/// epoch and under the caller's remaining deadline.
///
/// Thread-safe: any number of threads may call `Answer`, `Swap` and the
/// accessors concurrently. Swaps themselves are serialised.
class ServingEngine {
 public:
  explicit ServingEngine(std::shared_ptr<const CompiledOntology> initial,
                         ServingEngineOptions options = {});

  /// Certain answers of a CQ in text syntax, against the current epoch
  /// (admission + retry applied). The text is parsed per attempt against
  /// the attempt's snapshot vocabulary, so it stays valid across swaps.
  Result<std::vector<AnswerTuple>> Answer(std::string_view query_text,
                                          AnswerStats* stats = nullptr) const;
  Result<std::vector<AnswerTuple>> Answer(std::string_view query_text,
                                          const AnswerOptions& options,
                                          AnswerStats* stats = nullptr) const;

  /// Parsed-CQ overload. The CQ's predicate ids must be valid in every
  /// snapshot it may run against (snapshots compiled from the same
  /// vocabulary, as in a data-only refresh); prefer the text overload
  /// when the vocabulary itself can change across swaps.
  Result<std::vector<AnswerTuple>> Answer(const query::ConjunctiveQuery& cq,
                                          const AnswerOptions& options,
                                          AnswerStats* stats = nullptr) const;

  /// Publishes `next` as the new current snapshot and returns its epoch.
  /// Never blocks on in-flight queries; serialised against other swaps.
  uint64_t Swap(std::shared_ptr<const CompiledOntology> next);

  /// Compiles a snapshot (fault site kSnapshotBuild) and swaps it in on
  /// success. A failed build leaves the engine on its previous epoch with
  /// traffic unaffected. Returns the new epoch.
  Result<uint64_t> CompileAndSwap(
      dllite::Ontology ontology, mapping::MappingSet mappings,
      rdb::Database database,
      query::RewriteMode mode = query::RewriteMode::kPerfectRef);

  /// The delta path of CompileAndSwap: builds the next snapshot as a
  /// *refresh* of the current one (`CompiledOntology::Refresh` — shared
  /// stages, incrementally patched closure, per-view constraint reuse)
  /// and swaps it in with *selective* plan-cache invalidation: the new
  /// epoch's engine starts with every cached plan touching none of the
  /// delta's changed predicates (`QueryEngine::InheritPlans`), so hot
  /// queries stay hot across the swap.
  ///
  /// The refresh runs outside every lock against the snapshot current at
  /// entry; if another swap lands meanwhile, returns kFailedPrecondition
  /// (the engine is untouched — recompute against the new current).
  /// A failed refresh likewise leaves the previous epoch serving.
  Result<uint64_t> RefreshAndSwap(const OntologyDelta& delta,
                                  DeltaSwapStats* stats = nullptr);

  /// Epoch of the currently published snapshot (starts at 1).
  uint64_t epoch() const;

  /// The currently published snapshot (a swap may retire it immediately
  /// after this returns; the shared_ptr keeps it alive regardless).
  std::shared_ptr<const CompiledOntology> snapshot() const;

  /// Plan-cache counters spanning every epoch served so far: the current
  /// engine's plus those each retired engine had when it was swapped out
  /// (its remaining entries count as evictions, so `insertions ==
  /// entries + evictions` holds). Cumulative and monotone; lookups and
  /// stores by calls that finish on a retired epoch after its swap are
  /// not counted.
  LruCacheMetrics cache_metrics() const;

  /// Current admission counters.
  AdmissionSnapshot admission() const;

 private:
  /// One published epoch: the record is immutable after construction and
  /// shared with every in-flight call that started on it (the RCU read
  /// side is a shared_ptr copy).
  struct Epoch {
    uint64_t epoch = 0;
    std::shared_ptr<const QueryEngine> engine;
  };

  /// Outcome of one admission attempt.
  struct Admission {
    Status status = Status::Ok();  ///< non-OK = shed (kResourceExhausted)
    bool queued = false;
    double queue_wait_us = 0;
  };

  std::shared_ptr<const Epoch> Current() const;
  /// Makes `engine` current as `next_epoch`, folding the retired engine's
  /// cache counters into `retired_cache_`.
  void Publish(std::shared_ptr<const QueryEngine> engine,
               uint64_t next_epoch);
  /// The admission + retry-with-backoff loop shared by the Answer
  /// overloads; `run(engine, options, stats)` performs one attempt
  /// against the engine of the attempt's epoch.
  template <typename Fn>
  Result<std::vector<AnswerTuple>> AnswerLoop(Fn&& run,
                                              const AnswerOptions& opts,
                                              AnswerStats* stats) const;
  Admission Admit(double remaining_deadline_ms) const;
  void Release() const;
  Status ShedStatus(const char* why) const;

  ServingEngineOptions options_;
  obs::MetricsRegistry* metrics_ = nullptr;  ///< null = metrics disabled

  /// Guards the current-epoch pointer and the retired cache counters.
  /// Held only for the pointer copy/store and the counter reads, never
  /// across query execution or snapshot compilation.
  mutable std::mutex state_mu_;
  std::shared_ptr<const Epoch> current_;
  /// Plan-cache counters of every retired epoch's engine, as of its swap.
  LruCacheMetrics retired_cache_;

  /// Serialises swaps (epoch allocation + engine build + publish).
  std::mutex swap_mu_;
  uint64_t next_epoch_ = 2;  // epoch 1 is the construction snapshot

  /// Admission state. The counters here are authoritative; the metrics
  /// registry (when enabled) mirrors them.
  mutable std::mutex adm_mu_;
  mutable std::condition_variable adm_cv_;
  mutable size_t in_flight_ = 0;
  mutable size_t waiting_ = 0;
  mutable size_t in_flight_peak_ = 0;
  mutable uint64_t admitted_ = 0;
  mutable uint64_t queued_ = 0;
  mutable uint64_t shed_ = 0;
  mutable uint64_t retries_ = 0;

  /// Registry instruments resolved once at construction (null when
  /// metrics are disabled).
  struct Instruments {
    obs::Gauge* epoch = nullptr;
    obs::Histogram* swap_us = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* queued = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* retries = nullptr;
    obs::Histogram* queue_wait_us = nullptr;
    obs::Histogram* queue_depth = nullptr;
    // Delta-compilation instruments (RefreshAndSwap).
    obs::Counter* delta_applied = nullptr;
    obs::Counter* delta_fallback = nullptr;
    obs::Counter* delta_patched_nodes = nullptr;
    obs::Counter* delta_reused_stages = nullptr;
    obs::Counter* delta_plans_invalidated = nullptr;
    obs::Counter* delta_plans_migrated = nullptr;
    obs::Histogram* refresh_us = nullptr;
  };
  Instruments ins_;
};

}  // namespace olite::obda

#endif  // OLITE_OBDA_SERVING_ENGINE_H_
