#include "obda/query_engine.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "common/stopwatch.h"
#include "obda/unfolder.h"
#include "obs/trace.h"
#include "query/fingerprint.h"

namespace olite::obda {

namespace {

using dllite::BasicConcept;
using dllite::BasicConceptKind;
using query::Atom;
using query::ConjunctiveQuery;
using query::Term;

// gr(B, x) as a query atom, for the consistency-check queries.
Atom MembershipAtom(const BasicConcept& b, const Term& x, size_t* fresh) {
  switch (b.kind) {
    case BasicConceptKind::kAtomic:
      return Atom::Concept(b.concept_id, x);
    case BasicConceptKind::kExists: {
      Term y = Term::Var("_c" + std::to_string((*fresh)++));
      if (b.role.inverse) return Atom::Role(b.role.role, y, x);
      return Atom::Role(b.role.role, x, y);
    }
    case BasicConceptKind::kAttrDomain: {
      Term y = Term::Var("_c" + std::to_string((*fresh)++));
      return Atom::Attribute(b.attribute, x, y);
    }
  }
  return Atom::Concept(0, x);
}

}  // namespace

QueryEngine::QueryEngine(std::shared_ptr<const CompiledOntology> compiled,
                         QueryEngineOptions options)
    : compiled_(std::move(compiled)),
      plan_cache_(options.plan_cache_capacity, options.plan_cache_shards),
      disable_constraint_pruning_(options.disable_constraint_pruning),
      eval_engine_(options.engine),
      join_order_seed_(options.join_order_seed) {
  if (options.enable_metrics) {
    metrics_ = options.metrics != nullptr ? options.metrics
                                          : &obs::MetricsRegistry::Default();
    ins_.answers = &metrics_->counter("obda.answers");
    ins_.errors = &metrics_->counter("obda.errors");
    ins_.rows = &metrics_->counter("obda.rows");
    ins_.cache_hits = &metrics_->counter("plan_cache.hits");
    ins_.cache_misses = &metrics_->counter("plan_cache.misses");
    ins_.cache_insertions = &metrics_->counter("plan_cache.insertions");
    ins_.cache_hit_rate = &metrics_->gauge("plan_cache.hit_rate");
    ins_.cache_entries = &metrics_->gauge("plan_cache.entries");
    ins_.cache_evictions = &metrics_->gauge("plan_cache.evictions");
    ins_.answer_us = &metrics_->histogram(metric_names::kAnswerUs);
    for (size_t i = 0; i < 5; ++i) {
      ins_.stage_us[i] =
          &metrics_->histogram(metric_names::kStageHistograms[i]);
    }
    ins_.block_us = &metrics_->histogram(metric_names::kBlockUs);
    ins_.pruned_disjuncts =
        &metrics_->counter(metric_names::kPrunedDisjuncts);
    ins_.pruned_unfoldings =
        &metrics_->counter(metric_names::kPrunedUnfoldings);
    ins_.constraint_checks =
        &metrics_->counter(metric_names::kConstraintChecks);
  }
}

Result<std::vector<AnswerTuple>> QueryEngine::Answer(
    std::string_view query_text, AnswerStats* stats) const {
  return Answer(query_text, AnswerOptions{}, stats);
}

Result<std::vector<AnswerTuple>> QueryEngine::Answer(
    const query::ConjunctiveQuery& cq, AnswerStats* stats) const {
  return Execute(cq, AnswerOptions{}, stats);
}

Result<std::vector<AnswerTuple>> QueryEngine::Answer(
    std::string_view query_text, const AnswerOptions& options,
    AnswerStats* stats) const {
  OLITE_ASSIGN_OR_RETURN(
      ConjunctiveQuery cq,
      query::ParseQuery(query_text, compiled_->ontology().vocab()));
  return Execute(cq, options, stats);
}

Result<std::vector<AnswerTuple>> QueryEngine::Answer(
    const query::ConjunctiveQuery& cq, const AnswerOptions& options,
    AnswerStats* stats) const {
  return Execute(cq, options, stats);
}

Result<std::vector<AnswerTuple>> QueryEngine::Evaluate(
    const CachedPlan& plan, const rdb::EvalOptions& eopts, bool capture_sql,
    AnswerStats* stats) const {
  if (plan.plan == nullptr) {
    // Empty unfolding: no mapped disjunct, the certain answers are empty.
    if (stats != nullptr) {
      stats->sql_blocks = 0;
      stats->rows = 0;
      stats->sql = capture_sql ? "-- empty unfolding" : "";
      stats->eval = rdb::EvalStats{};
    }
    return std::vector<AnswerTuple>{};
  }
  Stopwatch exec_sw;
  rdb::EvalOptions engine_opts = eopts;
  if (stats != nullptr) engine_opts.eval_stats = &stats->eval;
  OLITE_ASSIGN_OR_RETURN(std::vector<rdb::Row> rows,
                         rdb::Execute(*plan.plan, engine_opts));
  std::vector<AnswerTuple> answers;
  answers.reserve(rows.size());
  for (const auto& row : rows) {
    AnswerTuple tuple;
    tuple.reserve(row.size());
    for (const auto& v : row) tuple.push_back(v.ToName());
    answers.push_back(std::move(tuple));
  }
  if (stats != nullptr) {
    stats->sql_blocks = plan.plan->num_blocks();
    stats->rows = answers.size();
    stats->sql = capture_sql ? plan.plan->sql_text() : "";
    stats->stage.execute_us = exec_sw.ElapsedMicros();
  }
  return answers;
}

Result<std::vector<AnswerTuple>> QueryEngine::Execute(
    const ConjunctiveQuery& cq, const AnswerOptions& opts, AnswerStats* stats,
    bool consult_cache) const {
  Stopwatch sw;
  // Trace sampling decision is made up front (per-engine atomic counter);
  // the query text is only rendered if this call is actually sampled.
  const bool sampled =
      opts.trace_sink != nullptr && opts.trace_sample_every > 0 &&
      trace_seq_.fetch_add(1, std::memory_order_relaxed) %
              opts.trace_sample_every ==
          0;
  // Metrics and traces are driven by the collected stats, so when the
  // caller passed none we collect into a local block.
  AnswerStats local_stats;
  if (stats == nullptr && (metrics_ != nullptr || sampled)) {
    stats = &local_stats;
  }
  if (stats != nullptr) {
    stats->stage = StageTimings{};
    stats->cache = CacheStats{};
  }
  std::optional<ExecBudget> owned;  // built from opts' caps
  const ExecBudget* budget = opts.budget;
  if (budget == nullptr) {
    BudgetCaps caps;
    caps.deadline_ms = opts.deadline_ms;
    caps.max_rewrite_iterations = opts.max_rewrite_iterations;
    caps.max_containment_checks = opts.max_containment_checks;
    caps.max_sql_blocks = opts.max_sql_blocks;
    caps.max_rows = opts.max_rows;
    caps.max_constraint_checks = opts.max_constraint_checks;
    if (caps.deadline_ms > 0 || caps.max_rewrite_iterations > 0 ||
        caps.max_containment_checks > 0 || caps.max_sql_blocks > 0 ||
        caps.max_rows > 0 || caps.max_constraint_checks > 0) {
      owned.emplace(caps);
      budget = &*owned;
    }
  }

  Degradation degradation;
  const bool use_cache = plan_cache_.enabled() && consult_cache;
  rdb::EvalOptions eopts;
  eopts.budget = budget;
  eopts.allow_partial = opts.allow_degraded;
  eopts.degradation = &degradation;
  eopts.engine = eval_engine_;
  eopts.join_order_seed = join_order_seed_;
  query::QueryFingerprint fp;
  size_t shard = 0;
  // `finish` wraps every return: it stamps the trail and timings into
  // `stats`, then performs the end-of-call observability recording (both
  // Status and Result expose `ok()`, so one generic path covers errors).
  auto finish = [&](auto result) {
    if (stats != nullptr) {
      stats->degradation = std::move(degradation);
      stats->elapsed_ms = sw.ElapsedMillis();
      if (metrics_ != nullptr || sampled) {
        Record(cq, opts, *stats, result.ok(), use_cache,
               use_cache ? fp.hash : 0, sampled, stats->elapsed_ms * 1000.0);
      }
    }
    return result;
  };

  if (use_cache) {
    fp = query::CanonicalFingerprint(cq);
    shard = plan_cache_.ShardOf(fp.hash);
    if (stats != nullptr) stats->cache.shard = shard;
    if (auto cached = plan_cache_.Get(fp.key, fp.hash)) {
      // Hot path: the plan is already compiled — nothing to rewrite or
      // unfold. Only evaluation runs, and the per-call budget still
      // governs it (row quota, deadline, cancellation, fault injection).
      if (stats != nullptr) {
        stats->cache.hit = true;
        stats->cache.evictions = plan_cache_.ShardEvictions(shard);
        stats->rewrite = query::RewriteStats{};
        stats->rewrite.final_disjuncts = (*cached)->rewrite.final_disjuncts;
        // Carry the compile-time pruning outcome so cached calls still
        // report what the plan they run was pruned down to.
        stats->rewrite.pruned_disjuncts = (*cached)->rewrite.pruned_disjuncts;
        stats->rewrite.pruned_unfoldings =
            (*cached)->rewrite.pruned_unfoldings;
        stats->rewrite.constraint_key_joins =
            (*cached)->rewrite.constraint_key_joins;
      }
      return finish(Evaluate(**cached, eopts, opts.capture_sql, stats));
    }
  }

  query::RewriteRequest req;
  req.budget = budget;
  req.allow_partial = opts.allow_degraded;
  req.degradation = &degradation;
  req.disable_constraint_pruning = disable_constraint_pruning_;

  query::RewriteStats rstats;
  Result<query::UnionQuery> rewritten =
      compiled_->rewriter().Rewrite(cq, req, &rstats);
  if (stats != nullptr) {
    stats->stage.rewrite_us = rstats.expand_us;
    stats->stage.minimize_us = rstats.minimize_us;
  }
  if (!rewritten.ok()) return finish(rewritten.status());

  if (stats != nullptr) stats->rewrite = rstats;

  CachedPlan compiled_plan;
  compiled_plan.ucq = std::make_shared<const query::UnionQuery>(
      std::move(rewritten).value());

  UnfoldOptions uopts;
  uopts.budget = budget;
  uopts.allow_partial = opts.allow_degraded;
  uopts.degradation = &degradation;
  if (!disable_constraint_pruning_) {
    uopts.constraints = &compiled_->constraints();
  }
  UnfoldStats ustats;
  uopts.stats = &ustats;
  Stopwatch stage_sw;
  auto sql = Unfold(*compiled_plan.ucq, compiled_->mappings(),
                    compiled_->database(), uopts);
  if (stats != nullptr) stats->stage.unfold_us = stage_sw.ElapsedMicros();
  // Fold the unfolder's pruning counters into the rewrite stats so one
  // struct carries the whole compile's pruning story (through AnswerStats
  // and the plan cache alike).
  rstats.pruned_unfoldings += ustats.pruned_unfoldings;
  rstats.constraint_key_joins += ustats.key_joins;
  rstats.constraint_checks += ustats.constraint_checks;
  if (!ustats.constraint_prune_complete) {
    rstats.constraint_prune_complete = false;
  }
  if (stats != nullptr) stats->rewrite = rstats;
  compiled_plan.rewrite = rstats;
  if (sql.ok()) {
    // Load-time statistics drive the columnar engine's join ordering.
    rdb::PrepareOptions popts;
    popts.stats = &compiled_->db_stats();
    stage_sw.Reset();
    auto prepared = rdb::PreparedPlan::Prepare(
        compiled_->database(), std::move(sql).value(), popts);
    if (stats != nullptr) stats->stage.prepare_us = stage_sw.ElapsedMicros();
    if (!prepared.ok()) return finish(prepared.status());
    compiled_plan.plan = std::make_shared<const rdb::PreparedPlan>(
        std::move(prepared).value());
  } else if (sql.status().code() != StatusCode::kNotFound) {
    return finish(sql.status());
  }
  // kNotFound leaves compiled_plan.plan null: the empty-unfolding plan.

  Result<std::vector<AnswerTuple>> answers =
      Evaluate(compiled_plan, eopts, opts.capture_sql, stats);

  // Only exact plans enter the cache: a degraded compilation (truncated
  // expansion, skipped pruning, capped unfolding) must not be replayed as
  // if it were the complete rewriting. Degradation during *evaluation*
  // also vetoes the insert — conservative, but eval-stage degradation
  // only occurs under a budget, where re-compiling is the safer default.
  if (use_cache && answers.ok() && degradation.events.empty()) {
    // Invalidation coordinates for delta swaps: the original atoms'
    // predicate tokens and the fingerprint hash of the key.
    for (const Atom& atom : cq.atoms) {
      compiled_plan.preds.push_back(
          (static_cast<uint64_t>(atom.kind) << 32) | atom.predicate);
    }
    std::sort(compiled_plan.preds.begin(), compiled_plan.preds.end());
    compiled_plan.preds.erase(
        std::unique(compiled_plan.preds.begin(), compiled_plan.preds.end()),
        compiled_plan.preds.end());
    compiled_plan.fp_hash = fp.hash;
    plan_cache_.Put(fp.key, fp.hash,
                    std::make_shared<const CachedPlan>(compiled_plan));
    if (stats != nullptr) {
      stats->cache.stored = true;
      stats->cache.evictions = plan_cache_.ShardEvictions(shard);
    }
    if (metrics_ != nullptr) {
      // Occupancy/eviction gauges refresh on the compile path only: the
      // aggregate walks every shard under its lock, which the hit path
      // must not pay.
      ins_.cache_insertions->Add(1);
      LruCacheMetrics m = plan_cache_.metrics();
      ins_.cache_entries->Set(static_cast<double>(m.entries));
      ins_.cache_evictions->Set(static_cast<double>(m.evictions));
    }
  }
  return finish(std::move(answers));
}

PlanInheritance QueryEngine::InheritPlans(
    const QueryEngine& base, const std::vector<uint64_t>& changed_preds) {
  PlanInheritance out;
  const auto items = base.plan_cache_.Items();
  // Items() lists each shard most recent first; inserting in reverse
  // leaves the most recent plan at the front of its new shard.
  for (auto it = items.rbegin(); it != items.rend(); ++it) {
    const CachedPlan& plan = *it->second;
    const bool stale = std::ranges::any_of(plan.preds, [&](uint64_t pred) {
      return std::binary_search(changed_preds.begin(), changed_preds.end(),
                                pred);
    });
    if (stale) {
      ++out.invalidated;
    } else {
      plan_cache_.Put(it->first, plan.fp_hash, it->second);
      ++out.migrated;
    }
  }
  return out;
}

void QueryEngine::Record(const ConjunctiveQuery& cq,
                         const AnswerOptions& opts, const AnswerStats& stats,
                         bool ok, bool cache_consulted, uint64_t fingerprint,
                         bool sampled, double total_us) const {
  if (metrics_ != nullptr) {
    ins_.answers->Add(1);
    if (!ok) ins_.errors->Add(1);
    if (stats.rows > 0) ins_.rows->Add(stats.rows);
    ins_.answer_us->Record(total_us);
    // Zero-valued stages are skipped: a plan-cache hit runs no compile
    // stages, and recording its zeros would drown the compile-path
    // percentiles (it also keeps the hit path at ~2 histogram records).
    const double stage_vals[5] = {stats.stage.rewrite_us,
                                  stats.stage.minimize_us,
                                  stats.stage.unfold_us,
                                  stats.stage.prepare_us,
                                  stats.stage.execute_us};
    for (size_t i = 0; i < 5; ++i) {
      if (stage_vals[i] > 0) ins_.stage_us[i]->Record(stage_vals[i]);
    }
    // A wide union executes dozens of blocks per call; transferring every
    // one into the histogram would dominate the hit path. Each thread
    // transfers every 8th of its calls — unbiased for the per-block
    // distribution, since the choice is independent of block latency.
    thread_local uint64_t block_calls = 0;
    if ((block_calls++ & 7) == 0) {
      for (double b : stats.eval.block_us) ins_.block_us->Record(b);
    }
    if (cache_consulted) {
      if (stats.cache.hit) {
        ins_.cache_hits->Add(1);
      } else {
        ins_.cache_misses->Add(1);
      }
      // The ratio gauge refreshes on each thread's first call and every
      // 64th thereafter: summing the sharded counters costs dozens of
      // atomic loads, too much for every hit, and a hit rate moves slowly
      // anyway. Thread-local pacing keeps the hit path free of shared
      // cache lines.
      thread_local uint64_t calls = 0;
      if ((calls++ & 63) == 0) {
        const double h = static_cast<double>(ins_.cache_hits->Value());
        const double m = static_cast<double>(ins_.cache_misses->Value());
        if (h + m > 0) ins_.cache_hit_rate->Set(h / (h + m));
      }
    }
    // Pruning counters move only on compiles that actually pruned (cache
    // hits replay the carried totals, which would double-count).
    if (!stats.cache.hit) {
      if (stats.rewrite.pruned_disjuncts > 0) {
        ins_.pruned_disjuncts->Add(stats.rewrite.pruned_disjuncts);
      }
      if (stats.rewrite.pruned_unfoldings > 0) {
        ins_.pruned_unfoldings->Add(stats.rewrite.pruned_unfoldings);
      }
      if (stats.rewrite.constraint_checks > 0) {
        ins_.constraint_checks->Add(stats.rewrite.constraint_checks);
      }
    }
    // Degradation events are rare (budgeted calls that actually hit a
    // cap), so the by-stage counters are looked up dynamically.
    for (const auto& event : stats.degradation.events) {
      metrics_->counter("degradation." + event.stage).Add(1);
    }
  }
  if (sampled) {
    obs::QueryTrace trace;
    trace.query = cq.ToString(compiled_->ontology().vocab());
    trace.fingerprint = fingerprint;
    trace.ok = ok;
    trace.cache_hit = stats.cache.hit;
    trace.degraded = !stats.degradation.events.empty();
    trace.rows = stats.rows;
    trace.total_us = total_us;
    const double stage_vals[5] = {stats.stage.rewrite_us,
                                  stats.stage.minimize_us,
                                  stats.stage.unfold_us,
                                  stats.stage.prepare_us,
                                  stats.stage.execute_us};
    for (size_t i = 0; i < 5; ++i) {
      if (stage_vals[i] > 0) {
        trace.spans.push_back({metric_names::kStageLabels[i], stage_vals[i]});
      }
    }
    for (size_t b = 0; b < stats.eval.block_us.size(); ++b) {
      trace.spans.push_back(
          {"execute.block" + std::to_string(b), stats.eval.block_us[b]});
    }
    opts.trace_sink->Record(trace);
  }
}

Result<ConsistencyReport> QueryEngine::CheckConsistency() const {
  ConsistencyReport report;
  const dllite::TBox& tbox = compiled_->ontology().tbox();
  const dllite::Vocabulary& vocab = compiled_->ontology().vocab();
  size_t fresh = 0;

  // Consistency queries never touch the plan cache: they are internal
  // boolean probes, not user workload, and must not evict served plans.
  auto violated = [&](const ConjunctiveQuery& q) -> Result<bool> {
    OLITE_ASSIGN_OR_RETURN(
        std::vector<AnswerTuple> rows,
        Execute(q, AnswerOptions{}, nullptr, /*consult_cache=*/false));
    return !rows.empty();
  };

  for (const auto& ax : tbox.concept_inclusions()) {
    if (ax.rhs.kind != dllite::RhsConceptKind::kNegatedBasic) continue;
    ConjunctiveQuery q;
    Term x = Term::Var("x");
    q.atoms.push_back(MembershipAtom(ax.lhs, x, &fresh));
    q.atoms.push_back(MembershipAtom(ax.rhs.basic, x, &fresh));
    OLITE_ASSIGN_OR_RETURN(bool bad, violated(q));
    if (bad) report.violations.push_back(ToString(ax, vocab));
  }
  for (const auto& ax : tbox.role_inclusions()) {
    if (!ax.negated) continue;
    ConjunctiveQuery q;
    Term x = Term::Var("x");
    Term y = Term::Var("y");
    auto role_atom = [&](dllite::BasicRole r) {
      if (r.inverse) return Atom::Role(r.role, y, x);
      return Atom::Role(r.role, x, y);
    };
    q.atoms.push_back(role_atom(ax.lhs));
    q.atoms.push_back(role_atom(ax.rhs));
    OLITE_ASSIGN_OR_RETURN(bool bad, violated(q));
    if (bad) report.violations.push_back(ToString(ax, vocab));
  }
  for (const auto& ax : tbox.attribute_inclusions()) {
    if (!ax.negated) continue;
    ConjunctiveQuery q;
    Term x = Term::Var("x");
    Term v = Term::Var("v");
    q.atoms.push_back(Atom::Attribute(ax.lhs, x, v));
    q.atoms.push_back(Atom::Attribute(ax.rhs, x, v));
    OLITE_ASSIGN_OR_RETURN(bool bad, violated(q));
    if (bad) report.violations.push_back(ToString(ax, vocab));
  }

  // Functionality: checked on the *asserted* extension retrieved through
  // the mappings (anonymous successors from mandatory participation never
  // violate functionality, and the DL-Lite_A restriction guarantees no
  // sub-role can add tuples).
  for (const auto& f : tbox.functionality()) {
    ConjunctiveQuery q;
    q.head_vars = {"x", "y"};
    Term x = Term::Var("x");
    Term y = Term::Var("y");
    size_t key_position;
    if (f.kind == dllite::FunctionalityAssertion::Kind::kRole) {
      if (f.role.inverse) {
        q.atoms.push_back(Atom::Role(f.role.role, y, x));
      } else {
        q.atoms.push_back(Atom::Role(f.role.role, x, y));
      }
      key_position = 0;
    } else {
      q.atoms.push_back(Atom::Attribute(f.attribute, x, y));
      key_position = 0;
    }
    query::UnionQuery single;
    single.disjuncts.push_back(q);
    auto sql = Unfold(single, compiled_->mappings(), compiled_->database());
    if (!sql.ok()) {
      if (sql.status().code() == StatusCode::kNotFound) continue;  // unmapped
      return sql.status();
    }
    OLITE_ASSIGN_OR_RETURN(std::vector<rdb::Row> rows,
                           rdb::Execute(compiled_->database(), *sql));
    std::set<std::string> seen_keys;
    for (const auto& row : rows) {
      std::string key = row[key_position].ToName();
      if (!seen_keys.insert(key).second) {
        report.violations.push_back(ToString(f, vocab));
        break;
      }
    }
  }
  report.consistent = report.violations.empty();
  return report;
}

}  // namespace olite::obda
