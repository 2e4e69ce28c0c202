// Parity for the vectorized executor: every physical plan drained
// through NextBatch must agree with the naive logical evaluator (the
// §4.1 set semantics) and, for VQL queries, with the row-mode
// interpreter, which shares no batched-evaluation code with the
// executor. Randomized VQL queries sweep scans, filters, maps,
// flattens and both join algorithms; the batch-native nested-loop join
// and set operators get their own edge cases (batch boundaries, empty
// sides, selected inputs, erroring predicates, thread counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "algebra/eval.h"
#include "algebra/translate.h"
#include "engine/database.h"
#include "exec/parallel.h"
#include "exec/physical.h"
#include "vql/interpreter.h"
#include "vql/parser.h"
#include "workload/document_db.h"
#include "workload/document_knowledge.h"

#include "test_seed.h"

namespace vodak {
namespace exec {
namespace {

/// Drains a freshly opened tree batch by batch; returns the number of
/// live rows emitted, and the size of every batch in `batch_sizes`.
size_t DrainCount(PhysOperator* root,
                  std::vector<size_t>* batch_sizes = nullptr) {
  auto open = root->Open();
  EXPECT_TRUE(open.ok()) << open.ToString();
  size_t rows = 0;
  RowBatch batch;
  for (;;) {
    auto more = root->NextBatch(&batch);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) break;
    EXPECT_GT(batch.active_rows(), 0u)
        << "NextBatch returned true with an empty batch";
    rows += batch.active_rows();
    if (batch_sizes != nullptr) batch_sizes->push_back(batch.num_rows());
  }
  root->Close();
  return rows;
}

class ExecBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    workload::CorpusParams params;
    params.num_documents = 8;
    params.sections_per_document = 2;
    params.paragraphs_per_section = 3;
    params.implementation_fraction = 0.3;
    ASSERT_TRUE(db_.Populate(params).ok());
    ctx_ = std::make_unique<algebra::AlgebraContext>(&db_.catalog());
    eval_ = std::make_unique<ExprEvaluator>(&db_.catalog(), &db_.store(),
                                            &db_.methods());
    exec_ctx_ = ExecContext{&db_.catalog(), &db_.store(), &db_.methods()};
  }

  ExprRef Parse(const std::string& text) {
    auto e = vql::ParseExpr(text);
    EXPECT_TRUE(e.ok()) << text << ": " << e.status().ToString();
    return e.value();
  }

  /// The batch drain against the naive §4.1 evaluator (set level) and,
  /// when `bound` is given, against the row-mode interpreter (result
  /// column). Operators that dedup (Project, Union, Difference) must
  /// also emit each row exactly once: the drained row count equals the
  /// set size.
  void CheckParity(const algebra::LogicalRef& plan,
                   const std::string& label,
                   const vql::BoundQuery* bound = nullptr) {
    auto phys = BuildPhysical(plan, exec_ctx_);
    ASSERT_TRUE(phys.ok()) << label << ": " << phys.status().ToString();

    auto batch_set = ExecuteToSet(phys.value().get());
    ASSERT_TRUE(batch_set.ok()) << label << ": "
                                << batch_set.status().ToString();
    auto oracle = algebra::EvalLogical(plan, *eval_);
    ASSERT_TRUE(oracle.ok()) << label << ": " << oracle.status().ToString();
    EXPECT_EQ(batch_set.value(), oracle.value()) << label;

    const algebra::LogicalOp op = plan->op();
    if (op == algebra::LogicalOp::kProject ||
        op == algebra::LogicalOp::kUnion ||
        op == algebra::LogicalOp::kDiff) {
      EXPECT_EQ(DrainCount(phys.value().get()),
                batch_set.value().AsSet().size())
          << label << ": the root emitted a duplicate row";
    }

    if (bound == nullptr) return;
    const std::string ref = algebra::ResultRef(*bound);
    auto column = ExecuteColumn(phys.value().get(), ref);
    ASSERT_TRUE(column.ok()) << label << ": " << column.status().ToString();
    vql::Interpreter interpreter(&db_.catalog(), &db_.store(),
                                 &db_.methods());
    vql::Interpreter::Options row_mode;
    row_mode.row_mode = true;
    auto naive = interpreter.Run(*bound, row_mode);
    ASSERT_TRUE(naive.ok()) << label << ": " << naive.status().ToString();
    EXPECT_EQ(column.value(), naive.value()) << label << " (row-mode oracle)";
  }

  vql::BoundQuery Bind(const std::string& text) {
    auto q = vql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << text;
    vql::Binder binder(&db_.catalog());
    auto bound = binder.Bind(q.value());
    EXPECT_TRUE(bound.ok()) << text << ": " << bound.status().ToString();
    return std::move(bound).value();
  }

  void CheckQueryParity(const std::string& text) {
    vql::BoundQuery bound = Bind(text);
    auto plan = algebra::TranslateQuery(*ctx_, bound);
    ASSERT_TRUE(plan.ok()) << text << ": " << plan.status().ToString();
    CheckParity(plan.value(), text, &bound);
  }

  workload::DocumentDb db_;
  std::unique_ptr<algebra::AlgebraContext> ctx_;
  std::unique_ptr<ExprEvaluator> eval_;
  ExecContext exec_ctx_;
};

/// Random VQL query over the document schema: 1-2 ranges (independent,
/// dependent or self-join) with 1-2 predicates and a random access
/// expression. Every generated query binds successfully.
std::string RandomQuery(std::mt19937* rng) {
  auto pick = [rng](int n) {
    return static_cast<int>((*rng)() % static_cast<uint32_t>(n));
  };
  std::string from;
  std::vector<std::string> paragraph_vars;
  std::vector<std::string> preds;
  switch (pick(6)) {
    case 0:
      from = "p IN Paragraph";
      paragraph_vars = {"p"};
      break;
    case 1:
      from = "s IN Section";
      preds.push_back("s.number == " + std::to_string(pick(3)));
      break;
    case 2:
      from = "d IN Document";
      preds.push_back("d.title == 'Title " + std::to_string(pick(8)) +
                      "'");
      break;
    case 3:
      from = "p IN Paragraph, q IN Paragraph";
      paragraph_vars = {"p", "q"};
      preds.push_back(pick(2) == 0 ? "p == q" : "p->sameDocument(q)");
      break;
    case 4:
      from = "d IN Document, p IN d->paragraphs()";
      paragraph_vars = {"p"};
      break;
    default:
      from = "s IN Section, p IN Paragraph";
      paragraph_vars = {"p"};
      preds.push_back("p.section == s");
      break;
  }
  for (const std::string& v : paragraph_vars) {
    switch (pick(4)) {
      case 0:
        preds.push_back(v + ".number == " + std::to_string(pick(4)));
        break;
      case 1:
        preds.push_back(v + ".number > " + std::to_string(pick(3)));
        break;
      case 2:
        preds.push_back(v + "->contains_string('implementation')");
        break;
      default:
        preds.push_back(v + "->wordCount() > 20");
        break;
    }
  }
  std::string where;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (i > 0) where += pick(3) == 0 ? " OR " : " AND ";
    where += preds[i];
  }
  std::string var = from.substr(0, 1);
  std::string access = var;
  if ((var == "p" || var == "s") && pick(2) == 0) access = var + ".number";
  return "ACCESS " + access + " FROM " + from +
         (where.empty() ? "" : " WHERE " + where);
}

TEST_F(ExecBatchTest, RandomizedQueriesRowBatchParity) {
  // Seeded from --seed= / VODAK_TEST_SEED (tests/test_seed.h); the
  // fallback reproduces the historical fixed sweep.
  std::mt19937 rng(static_cast<std::mt19937::result_type>(
      vodak::testing::TestSeed()));
  for (int i = 0; i < 60; ++i) {
    std::string query = RandomQuery(&rng);
    SCOPED_TRACE("query #" + std::to_string(i) + ": " + query);
    CheckQueryParity(query);
  }
}

TEST_F(ExecBatchTest, PaperQueriesRowBatchParity) {
  const std::vector<std::string> queries = {
      "ACCESS p FROM p IN Paragraph WHERE "
      "p->contains_string('implementation') AND "
      "(p->document()).title == 'Query Optimization'",
      "ACCESS p FROM p IN Paragraph WHERE "
      "p->contains_string('implementation')",
      "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE "
      "p->contains_string('implementation')",
      "ACCESS p FROM p IN Paragraph WHERE p.section.document IS-IN "
      "Document->select_by_index('Title 1')",
      "ACCESS [a: p.number, b: q.number] FROM p IN Paragraph, "
      "q IN Paragraph WHERE p->sameDocument(q) AND p.number == 0 "
      "AND q.number == 0",
  };
  for (const std::string& query : queries) {
    SCOPED_TRACE(query);
    CheckQueryParity(query);
  }
}

TEST_F(ExecBatchTest, SetOperatorsRowBatchParity) {
  auto low = ctx_->Select(vql::ParseExpr("p.number == 0").value(),
                          ctx_->Get("p", "Paragraph").value())
                 .value();
  auto impl =
      ctx_->Select(
              vql::ParseExpr("p->contains_string('implementation')")
                  .value(),
              ctx_->Get("p", "Paragraph").value())
          .value();
  CheckParity(ctx_->Union(low, impl).value(), "union");
  CheckParity(ctx_->Diff(low, impl).value(), "diff");
  CheckParity(ctx_->Project({"p"}, ctx_->NaturalJoin(low, impl).value())
                  .value(),
              "project-over-natural-join");
}

TEST_F(ExecBatchTest, FlattenAndMapRowBatchParity) {
  auto docs = ctx_->Get("d", "Document").value();
  auto flat = ctx_->Flat("p", vql::ParseExpr("d->paragraphs()").value(),
                         docs)
                  .value();
  auto mapped =
      ctx_->Map("n", vql::ParseExpr("p.number + 1").value(), flat)
          .value();
  CheckParity(mapped, "map-over-flat");
}

TEST_F(ExecBatchTest, ConstOperandSetOpsDoNotTakeComparisonFastPath) {
  // IS-IN with a constant right operand must keep set-membership
  // semantics, not degrade to a total-order comparison (regression test
  // for the fused compare-to-const selection fast path: kIsIn passes
  // IsComparisonOp but must not pass the fast path's guard).
  auto get = ctx_->Get("p", "Paragraph").value();
  ExprRef cond = Expr::Binary(
      BinOp::kIsIn, Expr::Path("p", {"number"}),
      Expr::Const(Value::Set({Value::Int(0), Value::Int(2)})));
  auto plan = ctx_->Select(cond, get).value();
  CheckParity(plan, "p.number IS-IN {0, 2}");

  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  auto result = ExecuteToSet(phys.value().get());
  ASSERT_TRUE(result.ok());
  // 2 of the 3 paragraph numbers per section match across the corpus.
  EXPECT_EQ(result.value().AsSet().size(), 8u * 2u * 2u);

  // And a well-typed constant-base IS-IN agrees across pipelines.
  CheckQueryParity(
      "ACCESS p FROM p IN Paragraph WHERE "
      "p IS-IN Paragraph->retrieve_by_string('implementation')");
}

TEST_F(ExecBatchTest, ScanBatchesRespectDefaultBatchSize) {
  auto plan = ctx_->Get("p", "Paragraph").value();
  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  ASSERT_TRUE(phys.value()->Open().ok());
  RowBatch batch;
  size_t total = 0;
  for (;;) {
    auto more = phys.value()->NextBatch(&batch);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    EXPECT_LE(batch.num_rows(), kDefaultBatchSize);
    EXPECT_EQ(batch.num_columns(), 1u);
    total += batch.num_rows();
  }
  phys.value()->Close();
  EXPECT_EQ(total, 8u * 2u * 3u);
  // Exhausted stream keeps reporting end-of-stream with an empty batch.
  auto again = phys.value()->NextBatch(&batch);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value());
  EXPECT_TRUE(batch.empty());
}

// ------------------------------------ batch-native nested-loop join

TEST_F(ExecBatchTest, NestedLoopJoinCrossesBatchBoundaries) {
  // 48 x 48 = 2304 cross pairs from one left batch: the join splits
  // them over output batches of at most kDefaultBatchSize and resumes
  // in the middle of a left row's inner pass.
  auto p = ctx_->Get("p", "Paragraph").value();
  auto q = ctx_->Get("q", "Paragraph").value();
  auto cross = ctx_->Join(Expr::Const(Value::Bool(true)), p, q).value();
  auto phys = BuildPhysical(cross, exec_ctx_);
  ASSERT_TRUE(phys.ok()) << phys.status().ToString();
  EXPECT_NE(ExplainPhysical(*phys.value()).find("NestedLoopJoin"),
            std::string::npos);
  std::vector<size_t> sizes;
  EXPECT_EQ(DrainCount(phys.value().get(), &sizes), 48u * 48u);
  EXPECT_EQ(sizes, (std::vector<size_t>{1024, 1024, 256}));
  CheckParity(cross, "cross product");

  // A selective predicate over the same pairs: paragraph numbers 0..2,
  // 16 paragraphs each, 6 ordered number pairs with a <= b.
  auto ordered = ctx_->Join(Parse("p.number <= q.number"), p, q).value();
  auto ordered_phys = BuildPhysical(ordered, exec_ctx_);
  ASSERT_TRUE(ordered_phys.ok());
  sizes.clear();
  EXPECT_EQ(DrainCount(ordered_phys.value().get(), &sizes), 6u * 16u * 16u);
  EXPECT_GE(sizes.size(), 3u);
  for (size_t n : sizes) EXPECT_LE(n, kDefaultBatchSize);
  CheckParity(ordered, "p.number <= q.number");
}

TEST_F(ExecBatchTest, NestedLoopJoinWithAnEmptySide) {
  auto p = ctx_->Get("p", "Paragraph").value();
  auto q = ctx_->Get("q", "Paragraph").value();
  auto no_p = ctx_->Select(Parse("p.number == 99"), p).value();
  auto no_q = ctx_->Select(Parse("q.number == 99"), q).value();
  const ExprRef cond = Parse("p->sameDocument(q)");
  const std::vector<std::pair<algebra::LogicalRef, std::string>> plans = {
      {ctx_->Join(cond, p, no_q).value(), "empty inner side"},
      {ctx_->Join(cond, no_p, q).value(), "empty left side"},
      {ctx_->Join(cond, no_p, no_q).value(), "both sides empty"},
  };
  for (const auto& [plan, label] : plans) {
    auto phys = BuildPhysical(plan, exec_ctx_);
    ASSERT_TRUE(phys.ok()) << label;
    EXPECT_EQ(DrainCount(phys.value().get()), 0u) << label;
    CheckParity(plan, label);
  }
}

TEST_F(ExecBatchTest, NestedLoopJoinWalksASelectedLeftBatch) {
  auto left = ctx_->Select(Parse("p.number >= 1"),
                           ctx_->Get("p", "Paragraph").value())
                  .value();
  // The left input really carries a selection vector.
  auto left_phys = BuildPhysical(left, exec_ctx_);
  ASSERT_TRUE(left_phys.ok());
  ASSERT_TRUE(left_phys.value()->Open().ok());
  RowBatch batch;
  ASSERT_TRUE(left_phys.value()->NextBatch(&batch).value());
  EXPECT_TRUE(batch.has_selection());
  left_phys.value()->Close();

  auto right = ctx_->Select(Parse("q.number == 0"),
                            ctx_->Get("q", "Paragraph").value())
                   .value();
  auto plan = ctx_->Join(Parse("p->sameDocument(q)"), left, right).value();
  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  // Each of the 32 selected paragraphs meets the 2 number-0 paragraphs
  // of its document.
  EXPECT_EQ(DrainCount(phys.value().get()), 32u * 2u);
  CheckParity(plan, "selected left side");
}

TEST_F(ExecBatchTest, NestedLoopJoinPredicateErrorFailsTheQuery) {
  auto plan = ctx_->Join(Parse("p.number / (q.number - q.number) > 0"),
                         ctx_->Get("p", "Paragraph").value(),
                         ctx_->Get("q", "Paragraph").value())
                  .value();
  auto phys = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(phys.ok());
  auto result = ExecuteToSet(phys.value().get());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecError)
      << result.status().ToString();

  // The same predicate through the engine: the optimized plan keeps it
  // as the join condition, and the query fails with the same error.
  auto session = workload::MakePaperSession(&db_);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  engine::QueryRequest request;
  request.vql =
      "ACCESS [a: p, b: q] FROM p IN Paragraph, q IN Paragraph "
      "WHERE p.number / (q.number - q.number) > 0";
  std::vector<engine::QueryOutcome> outcomes =
      (*session)->Submit({request});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status.code(), StatusCode::kExecError)
      << outcomes[0].status.ToString();
}

TEST_F(ExecBatchTest, SameDocumentJoinAgreesAtThreads1And4) {
  const std::string text =
      "ACCESS [a: p, b: q] FROM p IN Paragraph, q IN Paragraph "
      "WHERE p->sameDocument(q) AND p.number == 0 AND q.number == 1";
  vql::BoundQuery bound = Bind(text);
  vql::Interpreter interpreter(&db_.catalog(), &db_.store(),
                               &db_.methods());
  vql::Interpreter::Options row_mode;
  row_mode.row_mode = true;
  auto naive = interpreter.Run(bound, row_mode);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ASSERT_FALSE(naive.value().AsSet().empty());

  // Operator level: sameDocument is the join predicate itself, on the
  // driving path, so worker clones share one materialized inner side.
  auto plan = ctx_->Join(Parse("p->sameDocument(q)"),
                         ctx_->Select(Parse("p.number == 0"),
                                      ctx_->Get("p", "Paragraph").value())
                             .value(),
                         ctx_->Select(Parse("q.number == 1"),
                                      ctx_->Get("q", "Paragraph").value())
                             .value())
                  .value();
  auto oracle = algebra::EvalLogical(plan, *eval_);
  ASSERT_TRUE(oracle.ok());
  for (size_t threads : {1u, 4u}) {
    ParallelOptions options;
    options.threads = threads;
    options.morsel_size = 4;
    bool parallelized = false;
    auto rows = ParallelDrainRows(plan, exec_ctx_, options, &parallelized);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(parallelized, threads > 1);
    EXPECT_EQ(rows.value().size(), oracle.value().AsSet().size())
        << "threads=" << threads;
    auto set = ParallelExecuteToSet(plan, exec_ctx_, options);
    ASSERT_TRUE(set.ok());
    EXPECT_EQ(set.value(), oracle.value()) << "threads=" << threads;
  }

  // Engine level: the optimized plan through Submit.
  auto session = workload::MakePaperSession(&db_);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (size_t threads : {1u, 4u}) {
    engine::QueryRequest request;
    request.vql = text;
    request.run.threads = threads;
    std::vector<engine::QueryOutcome> outcomes =
        (*session)->Submit({request});
    ASSERT_EQ(outcomes.size(), 1u);
    ASSERT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
    EXPECT_EQ(outcomes[0].result.result, naive.value())
        << "threads=" << threads;
    EXPECT_NE(outcomes[0].result.physical_explain.find("NestedLoopJoin"),
              std::string::npos)
        << outcomes[0].result.physical_explain;
  }
}

// ------------------------------------------- batch-native set operators

TEST_F(ExecBatchTest, SetOperatorsWithOverlapDuplicatesAndEmptySides) {
  auto get = [&] { return ctx_->Get("p", "Paragraph").value(); };
  auto low = ctx_->Select(Parse("p.number == 0"), get()).value();
  auto impl =
      ctx_->Select(Parse("p->contains_string('implementation')"), get())
          .value();
  auto none = ctx_->Select(Parse("p.number == 99"), get()).value();
  auto all = get();
  CheckParity(ctx_->Union(low, impl).value(), "union, overlapping sides");
  CheckParity(ctx_->Union(low, low).value(), "union of identical sides");
  CheckParity(ctx_->Union(all, low).value(), "union, right inside left");
  CheckParity(ctx_->Diff(low, impl).value(), "diff, overlapping sides");
  CheckParity(ctx_->Diff(low, low).value(), "diff of identical sides");
  CheckParity(ctx_->Diff(all, low).value(), "diff, right inside left");
  CheckParity(ctx_->Union(low, none).value(), "union, empty right side");
  CheckParity(ctx_->Diff(low, none).value(), "diff, empty right side");
  CheckParity(ctx_->Union(none, low).value(), "union, empty left side");
  CheckParity(ctx_->Diff(none, low).value(), "diff, empty left side");
  // Left input with a selection vector and a map column.
  auto mapped = ctx_->Map("n", Parse("p.number"), low).value();
  auto mapped_impl = ctx_->Map("n", Parse("p.number"), impl).value();
  CheckParity(ctx_->Union(mapped, mapped_impl).value(), "union of maps");
}

TEST(ExecBatchSetOpTest, UnionTailLargerThanOneBatch) {
  workload::DocumentDb db;
  ASSERT_TRUE(db.Init().ok());
  workload::CorpusParams params;
  params.num_documents = 120;
  params.sections_per_document = 3;
  params.paragraphs_per_section = 4;  // 1440 paragraphs, numbers 0..3
  params.words_per_paragraph = 8;
  params.vocabulary_size = 200;
  ASSERT_TRUE(db.Populate(params).ok());
  algebra::AlgebraContext ctx(&db.catalog());
  ExecContext exec_ctx{&db.catalog(), &db.store(), &db.methods()};
  ExprEvaluator eval(&db.catalog(), &db.store(), &db.methods());
  auto get = [&] { return ctx.Get("p", "Paragraph").value(); };
  auto none =
      ctx.Select(vql::ParseExpr("p.number == 99").value(), get()).value();
  auto low =
      ctx.Select(vql::ParseExpr("p.number == 0").value(), get()).value();

  // Everything comes from the right-only tail: 1440 rows in two batches.
  auto tail_only = ctx.Union(none, get()).value();
  auto phys = BuildPhysical(tail_only, exec_ctx);
  ASSERT_TRUE(phys.ok());
  std::vector<size_t> sizes;
  EXPECT_EQ(DrainCount(phys.value().get(), &sizes), 1440u);
  EXPECT_EQ(sizes, (std::vector<size_t>{1024, 416}));

  // 360 rows from the left, then a 1080-row tail that skips them.
  auto overlap = ctx.Union(low, get()).value();
  for (const auto& plan : {tail_only, overlap}) {
    auto root = BuildPhysical(plan, exec_ctx);
    ASSERT_TRUE(root.ok());
    sizes.clear();
    EXPECT_EQ(DrainCount(root.value().get(), &sizes), 1440u);
    for (size_t n : sizes) EXPECT_LE(n, kDefaultBatchSize);
    auto got = ExecuteToSet(root.value().get());
    ASSERT_TRUE(got.ok());
    auto oracle = algebra::EvalLogical(plan, eval);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(got.value(), oracle.value());
  }
}

}  // namespace
}  // namespace exec
}  // namespace vodak

int main(int argc, char** argv) {
  return vodak::testing::RunAllTestsWithSeed(argc, argv,
                                             /*fallback=*/20260726);
}
