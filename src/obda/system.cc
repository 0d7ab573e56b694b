#include "obda/system.h"

#include <utility>

namespace olite::obda {

ObdaSystem::ObdaSystem(std::shared_ptr<const CompiledOntology> compiled,
                       QueryEngineOptions engine_options)
    : compiled_(std::move(compiled)), engine_(compiled_, engine_options) {}

Result<std::unique_ptr<ObdaSystem>> ObdaSystem::Create(
    dllite::Ontology ontology, mapping::MappingSet mappings,
    rdb::Database database, query::RewriteMode mode,
    QueryEngineOptions engine_options) {
  OLITE_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledOntology> compiled,
      CompiledOntology::Compile(std::move(ontology), std::move(mappings),
                                std::move(database), mode));
  return std::unique_ptr<ObdaSystem>(
      new ObdaSystem(std::move(compiled), engine_options));
}

}  // namespace olite::obda
