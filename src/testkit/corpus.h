#ifndef OLITE_TESTKIT_CORPUS_H_
#define OLITE_TESTKIT_CORPUS_H_

#include <string>
#include <vector>

#include "benchgen/workload.h"
#include "common/result.h"
#include "dllite/ontology.h"
#include "mapping/mapping.h"
#include "query/cq.h"
#include "rdb/table.h"
#include "testkit/differential.h"

namespace olite::testkit {

/// One self-contained conformance case: everything the differential
/// drivers need, in concrete (non-generated) form, so it can be shrunk
/// component by component and checked into `tests/corpus/`.
struct ConformanceCase {
  dllite::Ontology ontology;  ///< vocabulary + TBox (ABox stays empty)
  rdb::Database database;
  mapping::MappingSet mappings;
  std::vector<query::ConjunctiveQuery> queries;
  /// Recorded engine mutation (see EngineMutation). A corpus entry with a
  /// mutation documents a *detected* discrepancy: replay must still flag
  /// it, proving the harness end-to-end.
  EngineMutation mutation;
  /// True when replay must find >= 1 discrepancy (mutation self-tests);
  /// false when replay must find none (regression entries).
  bool expect_discrepancy = false;
};

/// Builds a case from a generated workload (drops the materialised ABox —
/// `ToWorkload` re-materialises it).
ConformanceCase CaseFromWorkload(const benchgen::Workload& w);

/// Re-materialises the case into a Workload for the differential drivers.
benchgen::Workload ToWorkload(const ConformanceCase& c);

/// Runs both differential drivers (classification and answering) on the
/// case, honouring its recorded mutation. Returns all discrepancies.
std::vector<std::string> RunCase(const ConformanceCase& c,
                                 bool run_tableau = true);

/// Serialises a case into the line-oriented corpus format:
///
/// ```
///   # optional comments
///   expect discrepancy            (or: expect agree)
///   mutation drop-concept-supers C3   (only when armed)
///   begin ontology
///   concept C0 C1 …               (dllite::ParseOntology format)
///   …
///   end ontology
///   begin tables
///   table facts kind:str s:str
///   row facts 'c_3' 'i5'
///   end tables
///   begin mappings
///   C3(x) <- SELECT t0.s FROM facts t0 WHERE t0.kind = 'c_3'
///   end mappings
///   begin queries
///   q(x0) :- C3(x0)
///   end queries
/// ```
///
/// Every section reuses an existing production parser (ontology, mapping
/// and query text formats); only `tables` is corpus-specific. Fails with
/// kInvalidArgument when a mapping filters on a DOUBLE NaN or ±infinity,
/// which the mapping grammar cannot write.
Result<std::string> SerializeCase(const ConformanceCase& c);

/// Parses the corpus format back. Exact round trip:
/// `ParseCase(SerializeCase(c))` reproduces the case.
Result<ConformanceCase> ParseCase(std::string_view text);

}  // namespace olite::testkit

#endif  // OLITE_TESTKIT_CORPUS_H_
