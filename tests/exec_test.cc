#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "algebra/translate.h"
#include "exec/physical.h"
#include "vql/parser.h"
#include "workload/document_db.h"

namespace vodak {
namespace exec {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    workload::CorpusParams params;
    params.num_documents = 6;
    params.sections_per_document = 2;
    params.paragraphs_per_section = 2;
    params.implementation_fraction = 0.3;
    ASSERT_TRUE(db_.Populate(params).ok());
    ctx_ = std::make_unique<algebra::AlgebraContext>(&db_.catalog());
    eval_ = std::make_unique<ExprEvaluator>(&db_.catalog(), &db_.store(),
                                            &db_.methods());
    exec_ctx_ = ExecContext{&db_.catalog(), &db_.store(), &db_.methods()};
  }

  /// Builds, executes and compares against the naive algebra evaluator.
  void CheckAgainstEval(const algebra::LogicalRef& plan) {
    auto phys = BuildPhysical(plan, exec_ctx_);
    ASSERT_TRUE(phys.ok()) << phys.status().ToString();
    auto rows = ExecuteToSet(phys.value().get());
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    auto expected = algebra::EvalLogical(plan, *eval_);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(rows.value(), expected.value());
  }

  algebra::LogicalRef Translate(const std::string& text) {
    auto q = vql::ParseQuery(text);
    EXPECT_TRUE(q.ok());
    vql::Binder binder(&db_.catalog());
    auto bound = binder.Bind(q.value());
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    auto plan = TranslateQuery(*ctx_, bound.value());
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.value();
  }

  workload::DocumentDb db_;
  std::unique_ptr<algebra::AlgebraContext> ctx_;
  std::unique_ptr<ExprEvaluator> eval_;
  ExecContext exec_ctx_;
};

TEST_F(ExecTest, ExtentScanProducesExtent) {
  auto plan = ctx_->Get("d", "Document").value();
  CheckAgainstEval(plan);
}

TEST_F(ExecTest, MethodScanMatchesSetEvaluation) {
  auto plan = ctx_->ExprSource(
                      "p",
                      vql::ParseExpr(
                          "Paragraph->retrieve_by_string('implementation')")
                          .value())
                  .value();
  CheckAgainstEval(plan);
}

TEST_F(ExecTest, FilterKeepsOnlyMatches) {
  auto get = ctx_->Get("p", "Paragraph").value();
  auto plan =
      ctx_->Select(vql::ParseExpr("p.number == 1").value(), get).value();
  CheckAgainstEval(plan);
}

TEST_F(ExecTest, HashJoinEqualsNestedLoopOnEquiJoin) {
  auto docs = ctx_->Get("d", "Document").value();
  auto secs = ctx_->Get("s", "Section").value();
  // s.document == d is NOT a bare-var equality, so it runs as NL join;
  // wrap the equivalent natural join and compare.
  auto nl = ctx_->Join(vql::ParseExpr("s.document == d").value(), docs,
                       secs)
                .value();
  CheckAgainstEval(nl);

  auto mapped =
      ctx_->Map("d", vql::ParseExpr("s.document").value(),
                ctx_->Get("s", "Section").value())
          .value();
  auto nj = ctx_->NaturalJoin(mapped, ctx_->Get("d", "Document").value())
                .value();
  CheckAgainstEval(nj);
}

TEST_F(ExecTest, BareVarEqualityUsesHashJoin) {
  auto mapped =
      ctx_->Map("x", vql::ParseExpr("s.document").value(),
                ctx_->Get("s", "Section").value())
          .value();
  auto join = ctx_->Join(vql::ParseExpr("x == d").value(), mapped,
                         ctx_->Get("d", "Document").value())
                  .value();
  auto phys = BuildPhysical(join, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  EXPECT_EQ(phys.value()->name(), "HashJoin");
  CheckAgainstEval(join);
}

TEST_F(ExecTest, CrossJoinViaTrueCondition) {
  auto join = ctx_->Join(Expr::Const(Value::Bool(true)),
                         ctx_->Get("d", "Document").value(),
                         ctx_->Get("s", "Section").value())
                  .value();
  CheckAgainstEval(join);
}

TEST_F(ExecTest, MapAndFlatten) {
  auto get = ctx_->Get("d", "Document").value();
  auto map = ctx_->Map("t", vql::ParseExpr("d.title").value(), get).value();
  CheckAgainstEval(map);
  auto flat = ctx_->Flat("s", vql::ParseExpr("d.sections").value(),
                         ctx_->Get("d", "Document").value())
                  .value();
  CheckAgainstEval(flat);
}

TEST_F(ExecTest, ProjectDeduplicates) {
  auto get = ctx_->Get("p", "Paragraph").value();
  auto map =
      ctx_->Map("n", vql::ParseExpr("p.number").value(), get).value();
  auto proj = ctx_->Project({"n"}, map).value();
  auto phys = BuildPhysical(proj, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  auto rows = ExecuteToSet(phys.value().get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().AsSet().size(), 2u);  // paragraph numbers 0..1
  CheckAgainstEval(proj);
}

TEST_F(ExecTest, UnionAndDiff) {
  auto a = ctx_->Select(vql::ParseExpr("p.number == 0").value(),
                        ctx_->Get("p", "Paragraph").value())
               .value();
  auto b = ctx_->Select(vql::ParseExpr("p.number == 1").value(),
                        ctx_->Get("p", "Paragraph").value())
               .value();
  CheckAgainstEval(ctx_->Union(a, b).value());
  CheckAgainstEval(ctx_->Diff(ctx_->Get("p", "Paragraph").value(), a)
                       .value());
}

TEST_F(ExecTest, FullQueriesMatchAlgebraEvaluator) {
  for (const char* query : {
           "ACCESS p FROM p IN Paragraph WHERE "
           "p->contains_string('implementation')",
           "ACCESS [a: p.number, b: q.number] FROM p IN Paragraph, "
           "q IN Paragraph WHERE p->sameDocument(q)",
           "ACCESS d.title FROM d IN Document, p IN d->paragraphs() "
           "WHERE p->contains_string('implementation')",
       }) {
    CheckAgainstEval(Translate(query));
  }
}

TEST_F(ExecTest, ExecuteColumnUnwrapsTuples) {
  auto plan = Translate("ACCESS d.title FROM d IN Document");
  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  auto column = ExecuteColumn(phys.value().get(), "$out");
  ASSERT_TRUE(column.ok());
  EXPECT_EQ(column.value().AsSet().size(), 6u);
  EXPECT_TRUE(column.value().AsSet()[0].is_string());
  EXPECT_FALSE(ExecuteColumn(phys.value().get(), "ghost").ok());
}

TEST_F(ExecTest, RowsProducedCountersTrack) {
  auto plan = Translate("ACCESS p FROM p IN Paragraph");
  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  ASSERT_TRUE(ExecuteToSet(phys.value().get()).ok());
  EXPECT_EQ(phys.value()->rows_produced(), 24u);
}

TEST_F(ExecTest, ExplainShowsOperatorTree) {
  auto plan = Translate(
      "ACCESS p FROM p IN Paragraph WHERE p.number == 0");
  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  std::string explain = ExplainPhysical(*phys.value());
  EXPECT_NE(explain.find("Project"), std::string::npos);
  EXPECT_NE(explain.find("Filter"), std::string::npos);
  EXPECT_NE(explain.find("ExtentScan(p IN Paragraph [source: extent])"),
            std::string::npos);
}

TEST_F(ExecTest, ExplainShowsProjectDedupDecision) {
  // Elided only where the rows are distinct by construction: the
  // projection keeps an extent scan's variable through Select/Map.
  for (const char* query : {
           "ACCESS p FROM p IN Paragraph",
           "ACCESS p FROM p IN Paragraph WHERE p.number == 0",
           "ACCESS s FROM s IN Section WHERE s.number == 1",
       }) {
    const algebra::LogicalRef plan = Translate(query);
    EXPECT_EQ(DistinctProjectKey(*plan), query[7] == 's' ? "s" : "p");
    auto phys = BuildPhysical(plan, exec_ctx_);
    ASSERT_TRUE(phys.ok()) << query;
    const std::string explain = ExplainPhysical(*phys.value());
    EXPECT_NE(explain.find(std::string("[dedup: elided, key ") + query[7] +
                           "]"),
              std::string::npos)
        << query << "\n" << explain;
    CheckAgainstEval(plan);
  }
  for (const char* query : {
           // Projections that drop the scan variable.
           "ACCESS p.number FROM p IN Paragraph",
           "ACCESS d.title FROM d IN Document",
           // Flat: p ranges over a dependent set, not an extent.
           "ACCESS p FROM d IN Document, p IN d->paragraphs()",
           // Flat fans each d out once per paragraph: d repeats.
           "ACCESS d FROM d IN Document, p IN d->paragraphs()",
           // Join: one p per matching section pair.
           "ACCESS p FROM s IN Section, p IN Paragraph WHERE p.section == s",
           // Method scan leaf.
           "ACCESS p FROM p IN Paragraph->retrieve_by_string('implementation')",
       }) {
    const algebra::LogicalRef plan = Translate(query);
    EXPECT_EQ(DistinctProjectKey(*plan), "") << query;
    auto phys = BuildPhysical(plan, exec_ctx_);
    ASSERT_TRUE(phys.ok()) << query;
    const std::string explain = ExplainPhysical(*phys.value());
    EXPECT_NE(explain.find("[dedup: kept]"), std::string::npos)
        << query << "\n" << explain;
    EXPECT_EQ(explain.find("elided"), std::string::npos)
        << query << "\n" << explain;
    // The drain emits each distinct row once.
    auto rows = ExecuteToSet(phys.value().get());
    ASSERT_TRUE(rows.ok()) << query;
    EXPECT_EQ(phys.value()->rows_produced(), rows.value().AsSet().size())
        << query;
    CheckAgainstEval(plan);
  }
}

TEST_F(ExecTest, RestrictedAlgebraDecomposition) {
  // §6.1: complex parameters decompose into atomic operator chains.
  vql::Binder binder(&db_.catalog());
  TypeRef t;
  auto bound = binder.BindExpr(
      vql::ParseExpr("p.section.document").value(),
      {{"p", Type::OidOf("Paragraph")}}, &t);
  ASSERT_TRUE(bound.ok());
  std::string chain = DecomposeToRestrictedOps(bound.value());
  EXPECT_EQ(chain,
            "map_property<t1, section, p>; "
            "map_property<t2, document, t1>");

  auto call = binder.BindExpr(
      vql::ParseExpr("p->contains_string('x')").value(),
      {{"p", Type::OidOf("Paragraph")}}, &t);
  ASSERT_TRUE(call.ok());
  EXPECT_EQ(DecomposeToRestrictedOps(call.value()),
            "map_method<t1, contains_string, p, 'x'>");

  auto cls = binder.BindExpr(
      vql::ParseExpr("Document->select_by_index('T')").value(), {}, &t);
  ASSERT_TRUE(cls.ok());
  EXPECT_EQ(DecomposeToRestrictedOps(cls.value()),
            "method_get<t1, Document, select_by_index, 'T'>");

  EXPECT_EQ(DecomposeToRestrictedOps(Expr::Var("p")), "atom p");
}

}  // namespace
}  // namespace exec
}  // namespace vodak
