#ifndef OLITE_MAPPING_MAPPING_H_
#define OLITE_MAPPING_MAPPING_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "dllite/abox.h"
#include "dllite/vocabulary.h"
#include "rdb/query.h"
#include "rdb/table.h"

namespace olite::mapping {

/// Sort of ontology predicate a mapping assertion populates.
enum class TargetKind : uint8_t { kConcept, kRole, kAttribute };

/// One GAV mapping assertion `Φ(x⃗) ⇝ S(x⃗)`: a select-project-join query
/// over the sources whose projected columns provide the instances of one
/// ontology predicate. Concepts take 1 projected column (subject); roles
/// and attributes take 2 (subject, object/value).
struct MappingAssertion {
  TargetKind kind = TargetKind::kConcept;
  uint32_t predicate = 0;  ///< ConceptId / RoleId / AttributeId
  rdb::SelectBlock source;

  static MappingAssertion ForConcept(dllite::ConceptId a,
                                     rdb::SelectBlock block) {
    return {TargetKind::kConcept, a, std::move(block)};
  }
  static MappingAssertion ForRole(dllite::RoleId p, rdb::SelectBlock block) {
    return {TargetKind::kRole, p, std::move(block)};
  }
  static MappingAssertion ForAttribute(dllite::AttributeId u,
                                       rdb::SelectBlock block) {
    return {TargetKind::kAttribute, u, std::move(block)};
  }
};

/// The mapping layer of an OBDA specification: all assertions, indexed by
/// target predicate.
class MappingSet {
 public:
  /// Adds one assertion after arity validation (1 projected column for
  /// concepts, 2 for roles/attributes).
  Status Add(MappingAssertion assertion);

  /// Checks every source query against the database schema: tables and
  /// columns exist, and each constant filter has its column's type. Call
  /// once at OBDA-system construction time.
  Status Validate(const rdb::Database& db) const;

  /// `Validate` for assertion #`i` alone; errors name it "mapping #i".
  Status ValidateAssertion(size_t i, const rdb::Database& db) const;

  const std::vector<MappingAssertion>& assertions() const {
    return assertions_;
  }

  /// All assertions for one target predicate.
  std::vector<const MappingAssertion*> For(TargetKind kind,
                                           uint32_t predicate) const;

  size_t size() const { return assertions_.size(); }

 private:
  static uint64_t IndexKey(TargetKind kind, uint32_t predicate) {
    return (static_cast<uint64_t>(kind) << 32) | predicate;
  }

  std::vector<MappingAssertion> assertions_;
  std::unordered_map<uint64_t, std::vector<size_t>> index_;
};

/// Materialises the virtual ABox: evaluates every mapping assertion over
/// `db` and interns the retrieved values as individuals in `vocab`.
/// Used by tests, examples and the consistency checker; production query
/// answering goes through on-the-fly unfolding instead (src/query).
Result<dllite::ABox> MaterializeABox(const MappingSet& mappings,
                                     const rdb::Database& db,
                                     dllite::Vocabulary* vocab);

}  // namespace olite::mapping

#endif  // OLITE_MAPPING_MAPPING_H_
