#include "obda/serving_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/stopwatch.h"

namespace olite::obda {

namespace {

// Stateless splitmix draw over (seed, attempt): the jitter schedule of a
// fixed seed replays identically, which is what the deterministic retry
// tests pin down.
double JitterFactor(uint64_t seed, uint32_t attempt) {
  uint64_t z = seed + attempt * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  // Top 53 bits → [0, 1), scaled into [0.5, 1.0).
  return 0.5 + 0.5 * (static_cast<double>(z >> 11) / 9007199254740992.0);
}

// Transient codes worth re-driving: a shed/blown-budget attempt may
// succeed once load drains, an injected/underlying internal fault may
// not recur. Everything else (parse errors, bad arguments, …) is
// permanent and returned as-is.
bool Retryable(const Status& s) {
  return s.code() == StatusCode::kResourceExhausted ||
         s.code() == StatusCode::kInternal;
}

// Field-wise sum of two cache readings.
LruCacheMetrics Plus(LruCacheMetrics a, const LruCacheMetrics& b) {
  a.hits += b.hits;
  a.misses += b.misses;
  a.insertions += b.insertions;
  a.evictions += b.evictions;
  a.entries += b.entries;
  return a;
}

}  // namespace

ServingEngine::ServingEngine(std::shared_ptr<const CompiledOntology> initial,
                             ServingEngineOptions options)
    : options_(std::move(options)) {
  if (options_.engine.enable_metrics) {
    metrics_ = options_.engine.metrics != nullptr
                   ? options_.engine.metrics
                   : &obs::MetricsRegistry::Default();
    ins_.epoch = &metrics_->gauge(metric_names::kSnapshotEpoch);
    ins_.swap_us = &metrics_->histogram(metric_names::kSnapshotSwapUs);
    ins_.admitted = &metrics_->counter(metric_names::kAdmissionAdmitted);
    ins_.queued = &metrics_->counter(metric_names::kAdmissionQueued);
    ins_.shed = &metrics_->counter(metric_names::kAdmissionShed);
    ins_.retries = &metrics_->counter(metric_names::kAdmissionRetries);
    ins_.queue_wait_us =
        &metrics_->histogram(metric_names::kAdmissionQueueWaitUs);
    ins_.queue_depth =
        &metrics_->histogram(metric_names::kAdmissionQueueDepth);
    ins_.delta_applied =
        &metrics_->counter(metric_names::kSnapshotDeltaApplied);
    ins_.delta_fallback =
        &metrics_->counter(metric_names::kSnapshotDeltaFallback);
    ins_.delta_patched_nodes =
        &metrics_->counter(metric_names::kSnapshotDeltaPatchedNodes);
    ins_.delta_reused_stages =
        &metrics_->counter(metric_names::kSnapshotDeltaReusedStages);
    ins_.delta_plans_invalidated =
        &metrics_->counter(metric_names::kSnapshotDeltaPlansInvalidated);
    ins_.delta_plans_migrated =
        &metrics_->counter(metric_names::kSnapshotDeltaPlansMigrated);
    ins_.refresh_us = &metrics_->histogram(metric_names::kSnapshotRefreshUs);
  }
  Publish(std::make_shared<const QueryEngine>(std::move(initial),
                                              options_.engine),
          1);
  if (ins_.epoch != nullptr) ins_.epoch->Set(1);
}

std::shared_ptr<const ServingEngine::Epoch> ServingEngine::Current() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return current_;
}

void ServingEngine::Publish(std::shared_ptr<const QueryEngine> engine,
                            uint64_t next_epoch) {
  auto record = std::make_shared<Epoch>();
  record->epoch = next_epoch;
  record->engine = std::move(engine);
  std::shared_ptr<const Epoch> retired;  // released after the lock
  std::lock_guard<std::mutex> lock(state_mu_);
  if (current_ != nullptr) {
    // Read under the lock, after every cache_metrics() that still saw this
    // engine as current, so the cumulative counters never go down.
    LruCacheMetrics m = current_->engine->cache_metrics();
    m.evictions += m.entries;
    m.entries = 0;
    retired_cache_ = Plus(retired_cache_, m);
  }
  retired = std::exchange(current_, std::move(record));
}

uint64_t ServingEngine::Swap(std::shared_ptr<const CompiledOntology> next) {
  std::lock_guard<std::mutex> swap_lock(swap_mu_);
  Stopwatch sw;
  const uint64_t e = next_epoch_++;
  Publish(std::make_shared<const QueryEngine>(std::move(next), options_.engine),
          e);
  if (ins_.swap_us != nullptr) ins_.swap_us->Record(sw.ElapsedMicros());
  if (ins_.epoch != nullptr) ins_.epoch->Set(static_cast<double>(e));
  return e;
}

Result<uint64_t> ServingEngine::RefreshAndSwap(const OntologyDelta& delta,
                                               DeltaSwapStats* stats) {
  // Refresh outside every lock, against the snapshot current at entry —
  // a slow (or injected-faulty) refresh never stalls traffic.
  std::shared_ptr<const CompiledOntology> base = snapshot();
  Stopwatch refresh_sw;
  OLITE_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledOntology> next,
                         CompiledOntology::Refresh(base, delta));
  const double refresh_us = refresh_sw.ElapsedMicros();
  const RefreshInfo& info = next->refresh_info();

  std::lock_guard<std::mutex> swap_lock(swap_mu_);
  Stopwatch sw;
  const std::shared_ptr<const Epoch> cur = Current();
  if (cur->engine->snapshot() != base) {
    // Another swap landed while we refreshed: publishing `next` would
    // silently discard that swap's specification. Leave the engine as-is.
    return Status::FailedPrecondition(
        "snapshot changed during delta refresh; recompute against the "
        "current epoch");
  }
  DeltaSwapStats local;
  DeltaSwapStats& ds = stats != nullptr ? *stats : local;
  ds = DeltaSwapStats{};
  ds.fell_back_scratch = info.fell_back_scratch;
  ds.patched_nodes = info.patched_nodes;
  ds.reused_views = info.reused_views;
  ds.reused_stages = info.reused_stages;

  // Selective invalidation: the new engine starts with every base plan
  // untouched by the delta (the PreparedPlans stay valid — the refreshed
  // snapshot shares the same database object). Plans the base stores
  // from here until the publish below are not carried over.
  auto engine = std::make_shared<QueryEngine>(next, options_.engine);
  const PlanInheritance inherited =
      engine->InheritPlans(*cur->engine, info.changed_preds);
  ds.plans_migrated = inherited.migrated;
  ds.plans_invalidated = inherited.invalidated;
  const uint64_t e = next_epoch_++;
  Publish(std::move(engine), e);

  if (ins_.swap_us != nullptr) ins_.swap_us->Record(sw.ElapsedMicros());
  if (ins_.epoch != nullptr) ins_.epoch->Set(static_cast<double>(e));
  if (metrics_ != nullptr) {
    ins_.delta_applied->Add(1);
    if (ds.fell_back_scratch) ins_.delta_fallback->Add(1);
    if (ds.patched_nodes > 0) ins_.delta_patched_nodes->Add(ds.patched_nodes);
    if (ds.reused_stages > 0) ins_.delta_reused_stages->Add(ds.reused_stages);
    if (ds.plans_invalidated > 0) {
      ins_.delta_plans_invalidated->Add(ds.plans_invalidated);
    }
    if (ds.plans_migrated > 0) {
      ins_.delta_plans_migrated->Add(ds.plans_migrated);
    }
    ins_.refresh_us->Record(refresh_us);
  }
  return e;
}

Result<uint64_t> ServingEngine::CompileAndSwap(dllite::Ontology ontology,
                                               mapping::MappingSet mappings,
                                               rdb::Database database,
                                               query::RewriteMode mode) {
  // Compile outside every lock: a slow (or injected-faulty) build never
  // stalls traffic, and on failure the previous epoch keeps serving.
  OLITE_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledOntology> next,
      CompiledOntology::Compile(std::move(ontology), std::move(mappings),
                                std::move(database), mode));
  return Swap(std::move(next));
}

uint64_t ServingEngine::epoch() const { return Current()->epoch; }

LruCacheMetrics ServingEngine::cache_metrics() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return Plus(retired_cache_, current_->engine->cache_metrics());
}

std::shared_ptr<const CompiledOntology> ServingEngine::snapshot() const {
  return Current()->engine->snapshot();
}

AdmissionSnapshot ServingEngine::admission() const {
  std::lock_guard<std::mutex> lock(adm_mu_);
  AdmissionSnapshot snap;
  snap.admitted = admitted_;
  snap.queued = queued_;
  snap.shed = shed_;
  snap.retries = retries_;
  snap.in_flight = in_flight_;
  snap.waiting = waiting_;
  snap.in_flight_peak = in_flight_peak_;
  return snap;
}

Status ServingEngine::ShedStatus(const char* why) const {
  return Status::ResourceExhausted(
      std::string("admission shed (") + why + "); retry after " +
      std::to_string(options_.admission.retry_after_ms) + " ms");
}

ServingEngine::Admission ServingEngine::Admit(
    double remaining_deadline_ms) const {
  Admission adm;
  // Fault site first: an injected admission fault counts as a shed, and
  // is normalised to the shed contract — every admission rejection is
  // kResourceExhausted with a retry-after hint, injected ones included.
  Status injected = fault::InjectAt(fault::Site::kAdmission);
  if (!injected.ok()) {
    {
      std::lock_guard<std::mutex> lock(adm_mu_);
      ++shed_;
    }
    if (ins_.shed != nullptr) ins_.shed->Add(1);
    adm.status = ShedStatus("injected fault");
    return adm;
  }
  const size_t max = options_.admission.max_in_flight;
  std::unique_lock<std::mutex> lock(adm_mu_);
  if (max == 0 || in_flight_ < max) {
    ++in_flight_;
    ++admitted_;
    in_flight_peak_ = std::max(in_flight_peak_, in_flight_);
    lock.unlock();
    if (ins_.admitted != nullptr) ins_.admitted->Add(1);
    return adm;
  }
  if (waiting_ >= options_.admission.max_queue_depth) {
    ++shed_;
    lock.unlock();
    if (ins_.shed != nullptr) ins_.shed->Add(1);
    adm.status = ShedStatus("queue full");
    return adm;
  }
  // Queue for a token, but never past the caller's own deadline: a shed
  // response must arrive within it.
  ++waiting_;
  ++queued_;
  const double depth = static_cast<double>(waiting_);
  double wait_ms = options_.admission.max_queue_wait_ms;
  if (remaining_deadline_ms >= 0) {
    wait_ms = std::min(wait_ms, remaining_deadline_ms);
  }
  Stopwatch wait_sw;
  const bool got_token = adm_cv_.wait_for(
      lock, std::chrono::duration<double, std::milli>(wait_ms),
      [&] { return in_flight_ < max; });
  adm.queued = true;
  adm.queue_wait_us = wait_sw.ElapsedMicros();
  --waiting_;
  if (got_token) {
    ++in_flight_;
    ++admitted_;
    in_flight_peak_ = std::max(in_flight_peak_, in_flight_);
  } else {
    ++shed_;
  }
  lock.unlock();
  if (ins_.queued != nullptr) ins_.queued->Add(1);
  if (ins_.queue_depth != nullptr) ins_.queue_depth->Record(depth);
  if (ins_.queue_wait_us != nullptr) {
    ins_.queue_wait_us->Record(adm.queue_wait_us);
  }
  if (got_token) {
    if (ins_.admitted != nullptr) ins_.admitted->Add(1);
  } else {
    if (ins_.shed != nullptr) ins_.shed->Add(1);
    adm.status = ShedStatus("queue wait expired");
  }
  return adm;
}

void ServingEngine::Release() const {
  {
    std::lock_guard<std::mutex> lock(adm_mu_);
    if (in_flight_ > 0) --in_flight_;
  }
  // notify_all: a single notification can be swallowed by a waiter whose
  // deadline-bounded wait already expired, stranding the freed token
  // while live waiters time out and get shed spuriously.
  adm_cv_.notify_all();
}

template <typename Fn>
Result<std::vector<AnswerTuple>> ServingEngine::AnswerLoop(
    Fn&& run, const AnswerOptions& opts, AnswerStats* stats) const {
  Stopwatch call_sw;
  const RetryPolicy& retry = opts.retry;
  const uint32_t max_attempts = std::max<uint32_t>(1, retry.max_attempts);
  ServeStats serve;
  Status last = Status::Ok();
  for (uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
    double remaining = -1;  // -1 = no caller deadline
    if (opts.deadline_ms > 0) {
      remaining = opts.deadline_ms - call_sw.ElapsedMillis();
      if (remaining <= 0) {
        // The deadline died between attempts (backoff ate it): report the
        // last transient failure rather than inventing a new one. When it
        // died before the *first* attempt (tiny deadline, preemption)
        // there is no last failure yet — shed instead, because a Result
        // must never be built from an OK status.
        if (last.ok()) {
          {
            std::lock_guard<std::mutex> lock(adm_mu_);
            ++shed_;
          }
          if (ins_.shed != nullptr) ins_.shed->Add(1);
          serve.shed = true;
          serve.epoch = epoch();
          last = ShedStatus("deadline expired before attempt");
        }
        break;
      }
    }
    serve.attempts = attempt;
    if (attempt > 1) {
      {
        std::lock_guard<std::mutex> lock(adm_mu_);
        ++retries_;
      }
      if (ins_.retries != nullptr) ins_.retries->Add(1);
    }
    Admission adm = Admit(remaining);
    serve.queue_wait_us = adm.queue_wait_us;
    if (!adm.status.ok()) {
      serve.shed = true;
      serve.epoch = epoch();
      last = std::move(adm.status);
    } else {
      // Re-clock the deadline: Admit() may have blocked queueing for a
      // token, and the engine's own deadline clock only starts now. A
      // call whose queue wait consumed the whole deadline is shed here
      // (token returned) instead of overrunning the caller's wall clock
      // inside the engine.
      if (opts.deadline_ms > 0) {
        remaining = opts.deadline_ms - call_sw.ElapsedMillis();
        if (remaining <= 0) {
          Release();
          {
            std::lock_guard<std::mutex> lock(adm_mu_);
            ++shed_;
          }
          if (ins_.shed != nullptr) ins_.shed->Add(1);
          serve.shed = true;
          serve.epoch = epoch();
          last = ShedStatus("deadline expired in queue");
          break;
        }
      }
      // RCU read side: holding the Epoch record keeps its snapshot alive
      // for the whole attempt, however many swaps land meanwhile.
      std::shared_ptr<const Epoch> cur = Current();
      serve.shed = false;
      serve.epoch = cur->epoch;
      AnswerOptions inner = opts;
      inner.retry = RetryPolicy{};  // the engine never retries
      if (remaining >= 0) inner.deadline_ms = remaining;
      Result<std::vector<AnswerTuple>> result =
          run(*cur->engine, inner, stats);
      Release();
      if (result.ok()) {
        if (stats != nullptr) stats->serve = serve;
        return result;
      }
      last = result.status();
    }
    if (!Retryable(last)) break;
    if (attempt == max_attempts) break;
    double backoff =
        std::min(retry.max_backoff_ms,
                 retry.initial_backoff_ms *
                     std::pow(retry.backoff_multiplier,
                              static_cast<double>(attempt - 1)));
    backoff *= JitterFactor(retry.jitter_seed, attempt);
    if (opts.deadline_ms > 0) {
      backoff =
          std::min(backoff, opts.deadline_ms - call_sw.ElapsedMillis());
    }
    if (backoff > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff));
      serve.backoff_ms += backoff;
    }
  }
  if (stats != nullptr) stats->serve = serve;
  return last;
}

Result<std::vector<AnswerTuple>> ServingEngine::Answer(
    std::string_view query_text, AnswerStats* stats) const {
  return Answer(query_text, AnswerOptions{}, stats);
}

Result<std::vector<AnswerTuple>> ServingEngine::Answer(
    std::string_view query_text, const AnswerOptions& options,
    AnswerStats* stats) const {
  return AnswerLoop(
      [query_text](const QueryEngine& engine, const AnswerOptions& o,
                   AnswerStats* s) { return engine.Answer(query_text, o, s); },
      options, stats);
}

Result<std::vector<AnswerTuple>> ServingEngine::Answer(
    const query::ConjunctiveQuery& cq, const AnswerOptions& options,
    AnswerStats* stats) const {
  return AnswerLoop(
      [&cq](const QueryEngine& engine, const AnswerOptions& o,
            AnswerStats* s) { return engine.Answer(cq, o, s); },
      options, stats);
}

}  // namespace olite::obda
