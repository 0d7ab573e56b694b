#include <gtest/gtest.h>

#include <memory>

#include "dllite/ontology.h"
#include "mapping/parser.h"
#include "obda/compiled_ontology.h"
#include "obda/query_engine.h"

namespace olite {
namespace {

using dllite::FunctionalityAssertion;
using dllite::Ontology;
using dllite::ParseOntology;

TEST(FunctionalityTest, ParseForms) {
  auto r = ParseOntology(R"(
concept A
role P
attribute u
funct P
funct P-
funct u
)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& f = r->tbox().functionality();
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0].kind, FunctionalityAssertion::Kind::kRole);
  EXPECT_FALSE(f[0].role.inverse);
  EXPECT_TRUE(f[1].role.inverse);
  EXPECT_EQ(f[2].kind, FunctionalityAssertion::Kind::kAttribute);
  // Round trip through ToString.
  auto again = ParseOntology(r->ToString());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->tbox().functionality().size(), 3u);
}

TEST(FunctionalityTest, ParseErrors) {
  Ontology onto;
  onto.DeclareRole("P");
  EXPECT_EQ(onto.AddFunctionality("funct Zzz").code(), StatusCode::kNotFound);
  EXPECT_EQ(onto.AddFunctionality("funct ").code(), StatusCode::kParseError);
}

TEST(FunctionalityTest, DlLiteARestriction) {
  auto bad = ParseOntology("role P Q\nP <= Q\nfunct Q\n");
  ASSERT_TRUE(bad.ok());
  Status s = CheckFunctionalityRestriction(bad->tbox(), bad->vocab());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  // Specialising the inverse is also forbidden.
  auto bad2 = ParseOntology("role P Q\nP <= Q-\nfunct Q\n");
  ASSERT_TRUE(bad2.ok());
  EXPECT_FALSE(
      CheckFunctionalityRestriction(bad2->tbox(), bad2->vocab()).ok());

  // Functionality on the SUB-role is fine.
  auto good = ParseOntology("role P Q\nP <= Q\nfunct P\n");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(
      CheckFunctionalityRestriction(good->tbox(), good->vocab()).ok());

  auto bad_attr = ParseOntology("attribute u w\nu <= w\nfunct w\n");
  ASSERT_TRUE(bad_attr.ok());
  EXPECT_FALSE(
      CheckFunctionalityRestriction(bad_attr->tbox(), bad_attr->vocab()).ok());
}

struct ObdaFixture {
  std::unique_ptr<obda::QueryEngine> sys;
  Status create_status;

  explicit ObdaFixture(const char* tbox_text, bool duplicate_subject) {
    auto parsed = ParseOntology(tbox_text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    rdb::Database db;
    EXPECT_TRUE(db.CreateTable({"t",
                                {{"s", rdb::ValueType::kString},
                                 {"o", rdb::ValueType::kString}}})
                    .ok());
    EXPECT_TRUE(
        db.Insert("t", {rdb::Value::Str("a"), rdb::Value::Str("b")}).ok());
    EXPECT_TRUE(
        db.Insert("t", {rdb::Value::Str(duplicate_subject ? "a" : "c"),
                        rdb::Value::Str("d")})
            .ok());
    auto mappings = mapping::ParseMappings(
        "P(x, y) <- SELECT s, o FROM t\n", parsed->vocab());
    EXPECT_TRUE(mappings.ok()) << mappings.status().ToString();
    auto result = obda::CompiledOntology::Compile(
        std::move(parsed).value(), std::move(mappings).value(),
        std::move(db));
    create_status = result.status();
    if (result.ok()) sys = std::make_unique<obda::QueryEngine>(*result);
  }
};

TEST(FunctionalityTest, ObdaConsistencyDetectsViolation) {
  ObdaFixture ok("role P\nfunct P\n", /*duplicate_subject=*/false);
  ASSERT_TRUE(ok.sys != nullptr) << ok.create_status.ToString();
  auto consistent = ok.sys->CheckConsistency();
  ASSERT_TRUE(consistent.ok());
  EXPECT_TRUE(consistent->consistent);

  ObdaFixture bad("role P\nfunct P\n", /*duplicate_subject=*/true);
  ASSERT_TRUE(bad.sys != nullptr);
  auto inconsistent = bad.sys->CheckConsistency();
  ASSERT_TRUE(inconsistent.ok());
  EXPECT_FALSE(inconsistent->consistent);
  ASSERT_EQ(inconsistent->violations.size(), 1u);
  EXPECT_EQ(inconsistent->violations[0], "funct P");
}

TEST(FunctionalityTest, InverseFunctionalityUsesObjectPosition) {
  // funct P⁻: objects must be unique. Subject duplicates are fine.
  ObdaFixture dup_subject("role P\nfunct P-\n", /*duplicate_subject=*/true);
  ASSERT_TRUE(dup_subject.sys != nullptr);
  auto consistent = dup_subject.sys->CheckConsistency();
  ASSERT_TRUE(consistent.ok());
  EXPECT_TRUE(consistent->consistent);
}

TEST(FunctionalityTest, CreateRejectsDlLiteAViolation) {
  ObdaFixture bad("role P Q\nP <= Q\nfunct Q\n", false);
  EXPECT_TRUE(bad.sys == nullptr);
  EXPECT_EQ(bad.create_status.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace olite
