#ifndef OLITE_OBDA_SYSTEM_H_
#define OLITE_OBDA_SYSTEM_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obda/answer.h"
#include "obda/compiled_ontology.h"
#include "obda/query_engine.h"
#include "query/cq.h"
#include "query/rewriter.h"

namespace olite::obda {

/// The OBDA system of the paper's §1: ontology (TBox) + mapping layer +
/// relational sources, offering the core services — certain-answer query
/// answering via rewriting + unfolding, and consistency checking.
///
/// A thin façade over the compile-once/serve-many split:
///  * `CompiledOntology` — the immutable snapshot built at Create (TBox
///    closure, rewriter indexes, validated mappings and schema);
///  * `QueryEngine` — the stateless serving layer with the fingerprinted
///    plan cache.
/// Use those two directly to share one snapshot between several engines or
/// to tune the cache; this class keeps the original single-object API.
class ObdaSystem {
 public:
  /// Validates the mappings against the database schema and compiles the
  /// snapshot. `engine_options` tunes the serving layer (plan-cache
  /// capacity/sharding); the defaults enable a 256-entry cache.
  static Result<std::unique_ptr<ObdaSystem>> Create(
      dllite::Ontology ontology, mapping::MappingSet mappings,
      rdb::Database database,
      query::RewriteMode mode = query::RewriteMode::kPerfectRef,
      QueryEngineOptions engine_options = {});

  /// Certain answers of a CQ in text syntax
  /// (`q(x) :- Professor(x), teaches(x, y)`).
  Result<std::vector<AnswerTuple>> Answer(std::string_view query_text,
                                          AnswerStats* stats = nullptr) const {
    return engine_.Answer(query_text, stats);
  }

  /// Certain answers of a parsed CQ.
  Result<std::vector<AnswerTuple>> Answer(const query::ConjunctiveQuery& cq,
                                          AnswerStats* stats = nullptr) const {
    return engine_.Answer(cq, stats);
  }

  /// Budgeted answering (see AnswerOptions): bounded wall-clock and
  /// per-stage quotas, cooperative cancellation, and — with
  /// `allow_degraded` — a fallback ladder that trades completeness for
  /// staying inside the budget while keeping answers sound.
  Result<std::vector<AnswerTuple>> Answer(std::string_view query_text,
                                          const AnswerOptions& options,
                                          AnswerStats* stats = nullptr) const {
    return engine_.Answer(query_text, options, stats);
  }

  Result<std::vector<AnswerTuple>> Answer(const query::ConjunctiveQuery& cq,
                                          const AnswerOptions& options,
                                          AnswerStats* stats = nullptr) const {
    return engine_.Answer(cq, options, stats);
  }

  /// Consistency of the virtual ABox w.r.t. the TBox, returned by value —
  /// safe to call from any number of threads concurrently.
  Result<ConsistencyReport> CheckConsistency() const {
    return engine_.CheckConsistency();
  }

  const dllite::Ontology& ontology() const { return compiled_->ontology(); }
  const mapping::MappingSet& mappings() const { return compiled_->mappings(); }
  const rdb::Database& database() const { return compiled_->database(); }

  /// The immutable snapshot — shareable with further QueryEngines.
  const std::shared_ptr<const CompiledOntology>& compiled() const {
    return compiled_;
  }
  /// The serving layer (plan cache metrics live here).
  const QueryEngine& engine() const { return engine_; }

 private:
  ObdaSystem(std::shared_ptr<const CompiledOntology> compiled,
             QueryEngineOptions engine_options);

  std::shared_ptr<const CompiledOntology> compiled_;
  QueryEngine engine_;
};

}  // namespace olite::obda

#endif  // OLITE_OBDA_SYSTEM_H_
