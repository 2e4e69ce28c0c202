#include <gtest/gtest.h>

#include "vql/binder.h"
#include "vql/interpreter.h"
#include "vql/lexer.h"
#include "vql/parser.h"
#include "workload/document_db.h"

namespace vodak {
namespace vql {
namespace {

TEST(LexerTest, KeywordsAndHyphenatedOperators) {
  auto tokens = Lex("ACCESS p FROM p IN Paragraph WHERE p IS-IN S "
                    "AND T IS-SUBSET U");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const auto& t : tokens.value()) kinds.push_back(t.kind);
  EXPECT_EQ(kinds[0], TokenKind::kAccess);
  EXPECT_EQ(kinds[2], TokenKind::kFrom);
  EXPECT_EQ(kinds[4], TokenKind::kIn);
  EXPECT_EQ(kinds[6], TokenKind::kWhere);
  EXPECT_EQ(kinds[8], TokenKind::kIsIn);
  EXPECT_EQ(kinds[10], TokenKind::kAnd);
  EXPECT_EQ(kinds[12], TokenKind::kIsSubset);
}

TEST(LexerTest, ArrowVersusMinus) {
  auto tokens = Lex("p->m() - 1");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[1].kind, TokenKind::kArrow);
  EXPECT_EQ(tokens.value()[5].kind, TokenKind::kMinus);
}

TEST(LexerTest, StringAndNumberLiterals) {
  auto tokens = Lex("'Query Optimization' 42 3.5");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].text, "Query Optimization");
  EXPECT_EQ(tokens.value()[1].int_value, 42);
  EXPECT_DOUBLE_EQ(tokens.value()[2].real_value, 3.5);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("'unterminated").ok());
  EXPECT_FALSE(Lex("a ! b").ok());
  EXPECT_FALSE(Lex("a # b").ok());
}

TEST(LexerTest, NumberOverflowIsAParseError) {
  // One past INT64_MAX, and far beyond it: a parse error, not a throw.
  for (const char* src : {"p.number == 9223372036854775808",
                          "p.number == 99999999999999999999"}) {
    auto tokens = Lex(src);
    ASSERT_FALSE(tokens.ok()) << src;
    EXPECT_EQ(tokens.status().code(), StatusCode::kParseError) << src;
    EXPECT_NE(tokens.status().message().find("out of range"),
              std::string::npos)
        << tokens.status().message();
  }
  // REAL literals have no exponent syntax, so a 1e999-sized REAL is
  // spelled out: a 1 followed by 999 zeros, then a fraction.
  const std::string huge_real = "1" + std::string(999, '0') + ".5";
  auto real = Lex("x == " + huge_real);
  ASSERT_FALSE(real.ok());
  EXPECT_EQ(real.status().code(), StatusCode::kParseError);
  // The largest INT still lexes exactly.
  auto max = Lex("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max.value()[0].int_value, INT64_MAX);
}

TEST(ParserTest, NumberOverflowFailsTheQuery) {
  auto q = ParseQuery(
      "ACCESS p FROM p IN Paragraph WHERE p.number == 99999999999999999999");
  EXPECT_FALSE(q.ok());
}

TEST(LexerTest, SingleEqualsIsAssign) {
  // Since the write grammar, a lone '=' lexes as the SET-list
  // assignment token; using it where a comparison is meant is now a
  // *parse* error, not a lex error.
  auto tokens = Lex("a = b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[1].kind, TokenKind::kAssign);
  EXPECT_FALSE(ParseExpr("a = b").ok());
  EXPECT_FALSE(ParseQuery("ACCESS p FROM p IN P WHERE p.x = 1").ok());
}

TEST(LexerTest, IsPrefixNotSpecial) {
  // "IS" not followed by -IN / -SUBSET stays an identifier.
  auto tokens = Lex("IS ISIN IS-OTHER");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens.value()[1].kind, TokenKind::kIdent);
  // IS-OTHER lexes as IS, -, OTHER.
  EXPECT_EQ(tokens.value()[2].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens.value()[3].kind, TokenKind::kMinus);
}

TEST(ParserTest, Example1TupleResultAndJoinPredicate) {
  // Example 1 of the paper, verbatim modulo the arrow spelling.
  auto q = ParseQuery(
      "ACCESS [p: p.number, q: q.number] "
      "FROM p IN Paragraph, q IN Paragraph "
      "WHERE p->sameDocument(q)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().from.size(), 2u);
  EXPECT_EQ(q.value().access->kind(), ExprKind::kTupleCtor);
  EXPECT_EQ(q.value().where->ToString(), "p->sameDocument(q)");
}

TEST(ParserTest, Example2DependentRange) {
  auto q = ParseQuery(
      "ACCESS d.title FROM d IN Document, p IN d->paragraphs() "
      "WHERE p->contains_string('Implementation')");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().from[1].domain->ToString(), "d->paragraphs()");
}

TEST(ParserTest, Example4Query) {
  auto q = ParseQuery(
      "ACCESS p FROM p IN Paragraph "
      "WHERE p->contains_string('Implementation') "
      "AND (p->document()).title == 'Query Optimization'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().where->bin_op(), BinOp::kAnd);
}

TEST(ParserTest, PrecedenceAndParentheses) {
  auto e = ParseExpr("1 + 2 * 3 == 7 AND NOT FALSE");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->ToString(), "(((1 + (2 * 3)) == 7) AND NOT FALSE)");
  EXPECT_EQ(ParseExpr("(1 + 2) * 3").value()->ToString(), "((1 + 2) * 3)");
}

TEST(ParserTest, SetOperatorsParse) {
  auto e = ParseExpr("A INTERSECTION B UNION C");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value()->ToString(), "((A INTERSECTION B) UNION C)");
}

TEST(ParserTest, ParseErrors) {
  EXPECT_FALSE(ParseQuery("ACCESS p WHERE x").ok());     // missing FROM
  EXPECT_FALSE(ParseQuery("FROM p IN Paragraph").ok());  // missing ACCESS
  EXPECT_FALSE(ParseQuery("ACCESS p FROM p Paragraph").ok());
  EXPECT_FALSE(ParseExpr("p->m(").ok());
  EXPECT_FALSE(ParseExpr("[a 1]").ok());
  EXPECT_FALSE(ParseExpr("p .").ok());
  EXPECT_FALSE(ParseExpr("1 2").ok());  // trailing tokens
}

TEST(ParserTest, QueryToStringRoundTrips) {
  const std::string text =
      "ACCESS p FROM p IN Paragraph WHERE "
      "p->contains_string('Implementation')";
  auto q = ParseQuery(text);
  ASSERT_TRUE(q.ok());
  auto q2 = ParseQuery(q.value().ToString());
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_TRUE(Expr::Equals(q.value().where, q2.value().where));
  EXPECT_TRUE(Expr::Equals(q.value().access, q2.value().access));
}

class BindRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    workload::CorpusParams params;
    params.num_documents = 6;
    params.sections_per_document = 2;
    params.paragraphs_per_section = 3;
    params.implementation_fraction = 0.3;
    ASSERT_TRUE(db_.Populate(params).ok());
    binder_ = std::make_unique<Binder>(&db_.catalog());
    interp_ = std::make_unique<Interpreter>(&db_.catalog(), &db_.store(),
                                            &db_.methods());
  }

  Result<Value> Run(const std::string& text) {
    auto q = ParseQuery(text);
    if (!q.ok()) return q.status();
    auto bound = binder_->Bind(q.value());
    if (!bound.ok()) return bound.status();
    return interp_->Run(bound.value());
  }

  workload::DocumentDb db_;
  std::unique_ptr<Binder> binder_;
  std::unique_ptr<Interpreter> interp_;
};

TEST_F(BindRunTest, ExtentRangeClassified) {
  auto q = ParseQuery("ACCESS p FROM p IN Paragraph");
  auto bound = binder_->Bind(q.value());
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound.value().from[0].kind, RangeKind::kExtent);
  EXPECT_EQ(bound.value().from[0].class_name, "Paragraph");
  EXPECT_EQ(bound.value().access_type->ToString(), "Paragraph");
}

TEST_F(BindRunTest, DependentRangeClassified) {
  auto q = ParseQuery(
      "ACCESS p FROM d IN Document, p IN d->paragraphs()");
  auto bound = binder_->Bind(q.value());
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound.value().from[1].kind, RangeKind::kDependent);
  EXPECT_EQ(bound.value().from[1].class_name, "Paragraph");
}

TEST_F(BindRunTest, ClassMethodCallReclassified) {
  auto q = ParseQuery(
      "ACCESS d FROM d IN Document "
      "WHERE d IS-IN Document->select_by_index('Query Optimization')");
  auto bound = binder_->Bind(q.value());
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  // The receiver Var(Document) became a class-object call.
  EXPECT_NE(bound.value().where->ToString().find(
                "Document->select_by_index"),
            std::string::npos);
}

TEST_F(BindRunTest, BindErrors) {
  auto cases = {
      "ACCESS x FROM p IN Paragraph",                  // unbound access var
      "ACCESS p FROM p IN Nowhere",                    // unknown class
      "ACCESS p.nope FROM p IN Paragraph",             // unknown property
      "ACCESS p->nope() FROM p IN Paragraph",          // unknown method
      "ACCESS p FROM p IN Paragraph WHERE p.number",   // non-bool where
      "ACCESS p FROM p IN Paragraph, p IN Document",   // duplicate var
      "ACCESS p->contains_string() FROM p IN Paragraph",  // arity
      "ACCESS p->contains_string(1) FROM p IN Paragraph", // arg type
      "ACCESS d FROM d IN Document WHERE d.title == 'x' + NIL",
  };
  for (const char* text : cases) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    EXPECT_FALSE(binder_->Bind(q.value()).ok()) << text;
  }
}

TEST_F(BindRunTest, SimpleProjection) {
  auto result = Run("ACCESS d.title FROM d IN Document");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().AsSet().size(), 6u);  // titles are unique
}

TEST_F(BindRunTest, WhereFilters) {
  auto result = Run(
      "ACCESS d FROM d IN Document WHERE d.title == 'Query Optimization'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().AsSet().size(), 1u);
}

TEST_F(BindRunTest, Example1SelfJoinIsSymmetric) {
  auto result = Run(
      "ACCESS [p: p.number, q: q.number] "
      "FROM p IN Paragraph, q IN Paragraph WHERE p->sameDocument(q)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Every paragraph pairs with the paragraphs of its own document:
  // 6 docs * (6 paragraphs)^2 pairs, projected to number pairs (dedup:
  // numbers repeat per section, so the distinct set is small).
  EXPECT_FALSE(result.value().AsSet().empty());
}

TEST_F(BindRunTest, Example2DependentRangeRuns) {
  auto result = Run(
      "ACCESS d.title FROM d IN Document, p IN d->paragraphs() "
      "WHERE p->contains_string('implementation')");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().AsSet().empty());
}

TEST_F(BindRunTest, Example3MethodInAccessClause) {
  auto result = Run(
      "ACCESS [doc: d.title, paras: d->paragraphs()] FROM d IN Document");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().AsSet().size(), 6u);
  for (const Value& t : result.value().AsSet()) {
    EXPECT_EQ(t.GetField("paras").value().AsSet().size(), 2u * 3u);
  }
}

TEST_F(BindRunTest, Example4FullQuery) {
  auto result = Run(
      "ACCESS p FROM p IN Paragraph "
      "WHERE p->contains_string('implementation') "
      "AND (p->document()).title == 'Query Optimization'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Cross-check against the PQ plan evaluated by hand (E5 + path).
  MethodCallContext ctx{&db_.catalog(), &db_.store(), &db_.methods(), 0};
  Value by_ir = db_.methods()
                    .InvokeClass(ctx, "Paragraph", "retrieve_by_string",
                                 {Value::String("implementation")})
                    .value();
  Value docs = db_.methods()
                   .InvokeClass(ctx, "Document", "select_by_index",
                                {Value::String("Query Optimization")})
                   .value();
  std::vector<Value> of_doc;
  for (const Value& d : docs.AsSet()) {
    Value paragraphs = db_.methods()
                           .InvokeInstance(ctx, d.AsOid(), "paragraphs", {})
                           .value();
    for (const Value& p : paragraphs.AsSet()) of_doc.push_back(p);
  }
  Value expected = SetIntersect(by_ir, Value::Set(std::move(of_doc)));
  EXPECT_EQ(result.value(), expected);
}

TEST_F(BindRunTest, QueryPlanPqDirectlyAsQuery) {
  // The transformed Q'''' of §2.3 must return the same set as Q.
  auto q_result = Run(
      "ACCESS p FROM p IN Paragraph "
      "WHERE p->contains_string('implementation') "
      "AND (p->document()).title == 'Query Optimization'");
  auto pq_result = Run(
      "ACCESS p FROM p IN Paragraph "
      "WHERE p->contains_string('implementation') "
      "AND p IS-IN "
      "(Document->select_by_index('Query Optimization'))"
      ".sections.paragraphs");
  ASSERT_TRUE(q_result.ok()) << q_result.status().ToString();
  ASSERT_TRUE(pq_result.ok()) << pq_result.status().ToString();
  EXPECT_EQ(q_result.value(), pq_result.value());
}

TEST_F(BindRunTest, EmptyResultIsEmptySet) {
  auto result = Run(
      "ACCESS d FROM d IN Document WHERE d.title == 'No Such Title'");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().AsSet().empty());
}

TEST(WriteParseTest, AllThreeKindsParse) {
  auto ins = ParseWrite("INSERT INTO Section SET number = 7, title = 'x'");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(ins.value().kind, WriteStatement::Kind::kInsert);
  EXPECT_EQ(ins.value().class_name, "Section");
  ASSERT_EQ(ins.value().sets.size(), 2u);
  EXPECT_EQ(ins.value().sets[0].first, "number");

  auto upd = ParseWrite(
      "UPDATE Section SET title = 'y' WHERE self.number == 7");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  EXPECT_EQ(upd.value().kind, WriteStatement::Kind::kUpdate);
  ASSERT_NE(upd.value().where, nullptr);

  auto del = ParseWrite("DELETE FROM Section WHERE self.number == 7");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del.value().kind, WriteStatement::Kind::kDelete);
  EXPECT_TRUE(del.value().sets.empty());
}

TEST(WriteParseTest, ToStringRoundTrips) {
  const std::string text =
      "UPDATE Section SET title = 'y' WHERE self.number == 7";
  auto stmt = ParseWrite(text);
  ASSERT_TRUE(stmt.ok());
  auto again = ParseWrite(stmt.value().ToString());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(stmt.value().ToString(), again.value().ToString());
}

TEST(WriteParseTest, Errors) {
  EXPECT_FALSE(ParseWrite("INSERT Section SET number = 1").ok());
  EXPECT_FALSE(ParseWrite("DELETE Section").ok());
  EXPECT_FALSE(ParseWrite("UPDATE Section SET number == 1").ok());
  EXPECT_FALSE(ParseWrite("INSERT INTO Section").ok());
  EXPECT_FALSE(ParseWrite("ACCESS p FROM p IN Paragraph").ok());
  EXPECT_TRUE(IsWriteStatement("  UPDATE Section SET number = 1"));
  EXPECT_FALSE(IsWriteStatement("ACCESS p FROM p IN Paragraph"));
}

TEST_F(BindRunTest, BindWriteResolvesSlotsAndSelf) {
  auto stmt = ParseWrite(
      "UPDATE Section SET title = 'renamed' WHERE self.number == 1");
  ASSERT_TRUE(stmt.ok());
  auto bound = binder_->BindWrite(stmt.value());
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_EQ(bound.value().kind, WriteStatement::Kind::kUpdate);
  ASSERT_EQ(bound.value().sets.size(), 1u);
  // "title" is Section's slot 1 (declared after "number").
  EXPECT_EQ(bound.value().sets[0].first, 1u);
}

TEST_F(BindRunTest, BindWriteErrors) {
  // Unknown class.
  auto s1 = ParseWrite("INSERT INTO Nope SET x = 1");
  ASSERT_TRUE(s1.ok());
  EXPECT_FALSE(binder_->BindWrite(s1.value()).ok());
  // Unknown property.
  auto s2 = ParseWrite("INSERT INTO Section SET nope = 1");
  ASSERT_TRUE(s2.ok());
  EXPECT_FALSE(binder_->BindWrite(s2.value()).ok());
  // Type mismatch.
  auto s3 = ParseWrite("INSERT INTO Section SET number = 'oops'");
  ASSERT_TRUE(s3.ok());
  EXPECT_FALSE(binder_->BindWrite(s3.value()).ok());
  // Property set twice.
  auto s4 = ParseWrite("INSERT INTO Section SET number = 1, number = 2");
  ASSERT_TRUE(s4.ok());
  EXPECT_FALSE(binder_->BindWrite(s4.value()).ok());
  // `self` only exists for UPDATE / DELETE.
  auto s5 = ParseWrite("INSERT INTO Section SET number = self.number");
  ASSERT_TRUE(s5.ok());
  EXPECT_FALSE(binder_->BindWrite(s5.value()).ok());
  // Non-boolean predicate.
  auto s6 = ParseWrite("DELETE FROM Section WHERE self.number");
  ASSERT_TRUE(s6.ok());
  EXPECT_FALSE(binder_->BindWrite(s6.value()).ok());
}

}  // namespace
}  // namespace vql
}  // namespace vodak
