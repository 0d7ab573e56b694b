#ifndef OLITE_QUERY_ABOX_EVAL_H_
#define OLITE_QUERY_ABOX_EVAL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "dllite/abox.h"
#include "query/cq.h"
#include "query/rewriter.h"

namespace olite::query {

/// One answer tuple: individual/value names bound to the head variables.
using Tuple = std::vector<std::string>;

/// Evaluates a UCQ directly over a *materialised* ABox (no mappings, no
/// SQL): the certain answers of the UCQ under simple ABox semantics.
/// Combine with `Rewriter` for TBox reasoning; `AnswerOverABox` bundles
/// the two. Results are distinct and sorted.
Result<std::vector<Tuple>> EvaluateOverABox(const UnionQuery& ucq,
                                            const dllite::ABox& abox,
                                            const dllite::Vocabulary& vocab);

/// Certain answers of `cq` w.r.t. TBox ∪ ABox: rewrites the query against
/// the TBox and evaluates the UCQ over the ABox. The materialised-ABox
/// counterpart of `obda::QueryEngine::Answer`.
Result<std::vector<Tuple>> AnswerOverABox(
    const ConjunctiveQuery& cq, const dllite::TBox& tbox,
    const dllite::ABox& abox, const dllite::Vocabulary& vocab,
    RewriteMode mode = RewriteMode::kPerfectRef);

}  // namespace olite::query

#endif  // OLITE_QUERY_ABOX_EVAL_H_
