// End-to-end test of the paper's §3 methodology workflow:
//   (i)   design the ontology in the graphical language,
//   (ii)  translate it into DL-Lite axioms,
//   (iii) quality-check the design with intensional reasoning
//         (classification: no unsatisfiable predicates),
//   (iv)  attach mappings + sources and run the OBDA core services
//         (query answering, consistency checking).

#include <gtest/gtest.h>

#include "core/classifier.h"
#include "core/taxonomy.h"
#include "diagram/diagram.h"
#include "mapping/parser.h"
#include "obda/compiled_ontology.h"
#include "obda/query_engine.h"

namespace olite {
namespace {

TEST(MethodologyWorkflowTest, DiagramToAnswersEndToEnd) {
  // (i) Design: customers hold contracts; VIPs are customers; customers
  // and contracts are disjoint.
  diagram::Diagram d;
  auto customer = d.AddConcept("Customer");
  auto vip = d.AddConcept("VipCustomer");
  auto contract = d.AddConcept("Contract");
  auto holds = d.AddRole("holds");
  auto holds_dom = d.AddDomainRestriction(holds);
  auto holds_ran = d.AddRangeRestriction(holds);
  ASSERT_TRUE(holds_dom.ok());
  ASSERT_TRUE(holds_ran.ok());
  ASSERT_TRUE(d.AddInclusion({vip, customer, false, false, false}).ok());
  ASSERT_TRUE(
      d.AddInclusion({*holds_dom, customer, false, false, false}).ok());
  ASSERT_TRUE(
      d.AddInclusion({*holds_ran, contract, false, false, false}).ok());
  ASSERT_TRUE(
      d.AddInclusion({customer, contract, true, false, false}).ok());
  // Every customer holds some contract.
  ASSERT_TRUE(
      d.AddInclusion({customer, *holds_dom, false, false, false}).ok());
  ASSERT_TRUE(d.Validate().ok());

  // (ii) Translation.
  auto onto = d.ToOntology();
  ASSERT_TRUE(onto.ok()) << onto.status().ToString();
  EXPECT_EQ(onto->tbox().NumAxioms(), 5u);

  // (iii) Design quality control: classification finds no unsatisfiable
  // predicate and the expected hierarchy.
  core::Classification cls = core::Classify(onto->tbox(), onto->vocab());
  EXPECT_TRUE(cls.UnsatisfiableConcepts().empty());
  EXPECT_TRUE(cls.UnsatisfiableRoles().empty());
  core::Taxonomy taxonomy = core::Taxonomy::Build(cls);
  EXPECT_EQ(taxonomy.nodes().size(), 3u);
  auto vip_id = onto->vocab().FindConcept("VipCustomer").value();
  auto customer_id = onto->vocab().FindConcept("Customer").value();
  EXPECT_EQ(taxonomy.nodes()[taxonomy.NodeOf(vip_id)].direct_parents[0],
            taxonomy.NodeOf(customer_id));

  // (iv) OBDA: legacy source + textual mappings.
  rdb::Database db;
  ASSERT_TRUE(db.CreateTable({"crm",
                              {{"cid", rdb::ValueType::kString},
                               {"tier", rdb::ValueType::kString}}})
                  .ok());
  ASSERT_TRUE(db.CreateTable({"contracts",
                              {{"cid", rdb::ValueType::kString},
                               {"contract_no", rdb::ValueType::kString}}})
                  .ok());
  ASSERT_TRUE(db.Insert("crm", {rdb::Value::Str("c1"),
                                rdb::Value::Str("vip")})
                  .ok());
  ASSERT_TRUE(db.Insert("crm", {rdb::Value::Str("c2"),
                                rdb::Value::Str("basic")})
                  .ok());
  ASSERT_TRUE(db.Insert("contracts", {rdb::Value::Str("c1"),
                                      rdb::Value::Str("K-100")})
                  .ok());

  auto mappings = mapping::ParseMappings(R"(
Customer(x)    <- SELECT cid FROM crm
VipCustomer(x) <- SELECT cid FROM crm WHERE tier = 'vip'
holds(x, y)    <- SELECT cid, contract_no FROM contracts
)",
                                         onto->vocab());
  ASSERT_TRUE(mappings.ok()) << mappings.status().ToString();

  auto compiled = obda::CompiledOntology::Compile(
      std::move(onto).value(), std::move(mappings).value(), std::move(db));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const obda::QueryEngine engine(*compiled);

  // Consistency of the virtual ABox (Customer vs Contract disjointness:
  // contract individuals come only from holds-ranges — no overlap).
  auto consistent = engine.CheckConsistency();
  ASSERT_TRUE(consistent.ok()) << consistent.status().ToString();
  EXPECT_TRUE(consistent->consistent);

  // Certain answers: every customer holds some contract — even c2 whose
  // contract is not in the data.
  auto holders = engine.Answer("q(x) :- holds(x, y)");
  ASSERT_TRUE(holders.ok()) << holders.status().ToString();
  EXPECT_EQ(holders->size(), 2u);

  // Actual contract tuples only for c1.
  auto tuples = engine.Answer("q(x, y) :- holds(x, y)");
  ASSERT_TRUE(tuples.ok());
  ASSERT_EQ(tuples->size(), 1u);
  EXPECT_EQ((*tuples)[0], (obda::AnswerTuple{"c1", "K-100"}));

  // VIPs are customers.
  auto customers = engine.Answer("q(x) :- Customer(x)");
  ASSERT_TRUE(customers.ok());
  EXPECT_EQ(customers->size(), 2u);
}

TEST(MethodologyWorkflowTest, DesignErrorCaughtByClassification) {
  // A broken design: VIP is both a Customer and a Contract, which are
  // disjoint — the §3 quality-control step must flag VipCustomer.
  diagram::Diagram d;
  auto customer = d.AddConcept("Customer");
  auto vip = d.AddConcept("VipCustomer");
  auto contract = d.AddConcept("Contract");
  ASSERT_TRUE(d.AddInclusion({vip, customer, false, false, false}).ok());
  ASSERT_TRUE(d.AddInclusion({vip, contract, false, false, false}).ok());
  ASSERT_TRUE(
      d.AddInclusion({customer, contract, true, false, false}).ok());
  auto onto = d.ToOntology();
  ASSERT_TRUE(onto.ok());
  core::Classification cls = core::Classify(onto->tbox(), onto->vocab());
  auto vip_id = onto->vocab().FindConcept("VipCustomer").value();
  EXPECT_EQ(cls.UnsatisfiableConcepts(),
            (std::vector<dllite::ConceptId>{vip_id}));
}

}  // namespace
}  // namespace olite
