// Deterministic unit tests for the bytecode VM (exec/vm.h): per-opcode
// lowering shapes, arena reset and steady-state zero-allocation,
// empty/full selection behavior, masked AND/OR short-circuit parity
// against the operator tree and the logical evaluator, the
// fallback-eligibility edges, the engine's RunOptions::vm knob with
// its EXPLAIN annotation, and the dispatch-vs-handoff counter relation
// that ci.sh --vm gates on. The randomized corpus lives in
// tests/vm_diff_test.cc; everything here is seed-free and exact.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/eval.h"
#include "algebra/translate.h"
#include "common/vm_stats.h"
#include "engine/database.h"
#include "exec/physical.h"
#include "exec/row_hash.h"
#include "exec/vm.h"
#include "vql/parser.h"
#include "workload/document_db.h"

namespace vodak {
namespace exec {
namespace {

class VmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Init().ok());
    workload::CorpusParams params;
    params.num_documents = 8;
    params.sections_per_document = 2;
    params.paragraphs_per_section = 3;  // paragraph numbers 0..2
    params.implementation_fraction = 0.3;
    ASSERT_TRUE(db_.Populate(params).ok());
    ctx_ = std::make_unique<algebra::AlgebraContext>(&db_.catalog());
    exec_ctx_ = ExecContext{&db_.catalog(), &db_.store(), &db_.methods()};
  }

  ExprRef Parse(const std::string& text) {
    auto e = vql::ParseExpr(text);
    EXPECT_TRUE(e.ok()) << text << ": " << e.status().ToString();
    return e.value();
  }

  /// The fused-chain shape the VM exists for: map + two filters.
  algebra::LogicalRef ChainPlan() {
    auto get = ctx_->Get("p", "Paragraph").value();
    auto mapped = ctx_->Map("n", Parse("p.number"), get).value();
    auto f1 = ctx_->Select(Parse("n >= 1"), mapped).value();
    return ctx_->Select(Parse("n <= 1"), f1).value();
  }

  /// Compiles `plan`, expecting success; returns the choice.
  VmChoice Compile(const algebra::LogicalRef& plan, bool force) {
    auto choice = TryCompileVm(plan, exec_ctx_, force);
    EXPECT_TRUE(choice.ok()) << choice.status().ToString();
    return std::move(choice).value();
  }

  /// Drains any root through ExecuteColumn on `ref`, batch mode.
  Value Drain(PhysOperator* root, const std::string& ref) {
    auto result = ExecuteColumn(root, ref);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result.value() : Value::Null();
  }

  /// VM (forced) vs operator tree vs the naive logical evaluator (the
  /// §4.1 set semantics, no shared code with either) on one plan.
  void CheckPlanParity(const algebra::LogicalRef& plan,
                       const std::string& ref, const std::string& label) {
    VmChoice choice = Compile(plan, /*force=*/true);
    ASSERT_TRUE(choice.compiled) << label << ": " << choice.annotation;
    const Value vm = Drain(choice.op.get(), ref);
    auto tree = BuildPhysical(plan, exec_ctx_);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    const Value batch = Drain(tree.value().get(), ref);
    const ExprEvaluator evaluator(&db_.catalog(), &db_.store(),
                                  &db_.methods());
    auto logical = algebra::EvalLogicalColumn(plan, ref, evaluator);
    ASSERT_TRUE(logical.ok()) << logical.status().ToString();
    EXPECT_EQ(vm, batch) << label << " (vm vs tree)";
    EXPECT_EQ(vm, logical.value()) << label << " (vm vs logical oracle)";
  }

  workload::DocumentDb db_;
  std::unique_ptr<algebra::AlgebraContext> ctx_;
  ExecContext exec_ctx_;
};

TEST_F(VmTest, CompilesFusedChainWithNativeOpcodes) {
  VmChoice choice = Compile(ChainPlan(), /*force=*/false);
  ASSERT_TRUE(choice.compiled) << choice.annotation;
  EXPECT_NE(choice.annotation.find("[vm: compiled"), std::string::npos);
  auto* vm = static_cast<VmExec*>(choice.op.get());
  EXPECT_EQ(vm->name(), "VmExec");
  const std::string program = vm->program().ToString();
  // The chain lowers to: bind scan column, evaluate the map, test both
  // predicates natively (register-variable compares), filter, emit.
  EXPECT_NE(program.find("OP_Column"), std::string::npos) << program;
  EXPECT_NE(program.find("OP_Eval"), std::string::npos) << program;
  EXPECT_NE(program.find("OP_Test"), std::string::npos) << program;
  EXPECT_NE(program.find("OP_Filter"), std::string::npos) << program;
  EXPECT_NE(program.find("OP_ResultRow"), std::string::npos) << program;
  EXPECT_NE(program.find("OP_Halt"), std::string::npos) << program;
  // Both predicates are native: no generic kTestExpr in this program.
  EXPECT_EQ(program.find("OP_TestExpr"), std::string::npos) << program;
  CheckPlanParity(ChainPlan(), "p", "fused chain");
}

TEST_F(VmTest, PropertyHopPredicateLowersThroughTempRegister) {
  // A compare against a one-hop property off the scan OID materializes
  // the property into a temp register named by its expression
  // (OP_Eval into `$p.number`) and tests it natively — no generic
  // predicate evaluation.
  auto get = ctx_->Get("p", "Paragraph").value();
  auto plan = ctx_->Select(Parse("p.number >= 1"), get).value();
  VmChoice choice = Compile(plan, /*force=*/true);
  ASSERT_TRUE(choice.compiled) << choice.annotation;
  const std::string program =
      static_cast<VmExec*>(choice.op.get())->program().ToString();
  EXPECT_NE(program.find("$p.number"), std::string::npos) << program;
  EXPECT_NE(program.find("OP_Test "), std::string::npos) << program;
  EXPECT_EQ(program.find("OP_TestExpr"), std::string::npos) << program;
  CheckPlanParity(plan, "p", "property-hop predicate");

  // CSE across a predicate stack: a second filter on the same property
  // reuses the register — exactly one OP_Eval in the whole program.
  auto stacked = ctx_->Select(Parse("p.number <= 2"), plan).value();
  VmChoice cse = Compile(stacked, /*force=*/true);
  ASSERT_TRUE(cse.compiled);
  const std::string cse_program =
      static_cast<VmExec*>(cse.op.get())->program().ToString();
  size_t evals = 0;
  for (size_t at = cse_program.find("OP_Eval"); at != std::string::npos;
       at = cse_program.find("OP_Eval", at + 1)) {
    ++evals;
  }
  EXPECT_EQ(evals, 1u) << cse_program;
  CheckPlanParity(stacked, "p", "CSE'd predicate stack");

  // Constant on the left takes the const_lhs path.
  auto flipped = ctx_->Select(Parse("1 <= p.number"), get).value();
  VmChoice lhs_choice = Compile(flipped, /*force=*/true);
  ASSERT_TRUE(lhs_choice.compiled);
  const std::string lhs_program =
      static_cast<VmExec*>(lhs_choice.op.get())->program().ToString();
  EXPECT_NE(lhs_program.find("OP_Test"), std::string::npos) << lhs_program;
  CheckPlanParity(flipped, "p", "const-on-the-left compare");
}

TEST_F(VmTest, LogicOpcodesAndMaskedShortCircuitParity) {
  // AND/OR/NOT over native compares lower to OP_Logic flags.
  auto get = ctx_->Get("p", "Paragraph").value();
  auto mapped = ctx_->Map("n", Parse("p.number"), get).value();
  auto logic =
      ctx_->Select(Parse("(n >= 1 AND n <= 1) OR NOT (n >= 0)"), mapped)
          .value();
  VmChoice choice = Compile(logic, /*force=*/true);
  ASSERT_TRUE(choice.compiled);
  const std::string program =
      static_cast<VmExec*>(choice.op.get())->program().ToString();
  EXPECT_NE(program.find("OP_Logic"), std::string::npos) << program;
  CheckPlanParity(logic, "p", "native AND/OR/NOT tree");

  // Masked short-circuit parity: `6 / n` errors on n == 0, so this
  // predicate is only correct if the right conjunct is never evaluated
  // on masked rows. The arithmetic operand is outside the native
  // subset, so the whole conjunction falls back to one OP_TestExpr —
  // the *same* masked EvalPredicateBatch the tree's Filter runs.
  auto masked =
      ctx_->Select(Parse("n >= 1 AND 6 / n >= 3"), mapped).value();
  VmChoice masked_choice = Compile(masked, /*force=*/true);
  ASSERT_TRUE(masked_choice.compiled);
  const std::string masked_program =
      static_cast<VmExec*>(masked_choice.op.get())->program().ToString();
  EXPECT_NE(masked_program.find("OP_TestExpr"), std::string::npos)
      << masked_program;
  CheckPlanParity(masked, "p", "masked AND with erroring operand");
}

TEST_F(VmTest, ProjectDedupParity) {
  // Project root: gather + set-semantics dedup on emit (numbers repeat
  // across sections, so dedup does real work here).
  auto get = ctx_->Get("p", "Paragraph").value();
  auto mapped = ctx_->Map("n", Parse("p.number"), get).value();
  auto project = ctx_->Project({"n"}, mapped).value();
  VmChoice choice = Compile(project, /*force=*/true);
  ASSERT_TRUE(choice.compiled);
  const auto* vm = static_cast<VmExec*>(choice.op.get());
  EXPECT_TRUE(vm->program().project_dedup);
  EXPECT_NE(vm->program().ToString().find("OP_Project"),
            std::string::npos);
  CheckPlanParity(project, "n", "project-dedup");
  // 3 distinct paragraph numbers across 48 paragraphs.
  VmChoice fresh = Compile(project, /*force=*/true);
  EXPECT_EQ(Drain(fresh.op.get(), "n").AsSet().size(), 3u);
}

TEST_F(VmTest, ScanVariableProjectElidesDedup) {
  // Project keeping the scan variable: rows are distinct by
  // construction, so the VM moves the registers like a map (keeping
  // the filter's selection) instead of gathering into a dedup set.
  auto get = ctx_->Get("p", "Paragraph").value();
  auto filtered = ctx_->Select(Parse("p.number >= 1"), get).value();
  auto project = ctx_->Project({"p"}, filtered).value();
  VmChoice choice = Compile(project, /*force=*/true);
  ASSERT_TRUE(choice.compiled);
  const auto* vm = static_cast<VmExec*>(choice.op.get());
  EXPECT_FALSE(vm->program().project_dedup);
  EXPECT_EQ(vm->program().distinct_key, "p");
  EXPECT_NE(vm->params().find("[dedup: elided, key p]"), std::string::npos)
      << vm->params();
  CheckPlanParity(project, "p", "elided project dedup");

  // The number projection keeps its dedup, and says so.
  auto mapped = ctx_->Map("n", Parse("p.number"), get).value();
  VmChoice kept =
      Compile(ctx_->Project({"n"}, mapped).value(), /*force=*/true);
  ASSERT_TRUE(kept.compiled);
  EXPECT_NE(kept.op->params().find("[dedup: kept]"), std::string::npos)
      << kept.op->params();
}

TEST_F(VmTest, EmptyAndFullSelections) {
  auto get = ctx_->Get("p", "Paragraph").value();
  auto mapped = ctx_->Map("n", Parse("p.number"), get).value();

  // Nothing survives: the VM's never-empty invariant means NextBatch
  // reports end of stream, never a true return with zero live rows.
  auto none = ctx_->Select(Parse("n == 99"), mapped).value();
  VmChoice none_choice = Compile(none, /*force=*/true);
  ASSERT_TRUE(none_choice.compiled);
  ASSERT_TRUE(none_choice.op->Open().ok());
  RowBatch batch;
  auto more = none_choice.op->NextBatch(&batch);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(more.value());
  none_choice.op->Close();

  // Everything survives: full-survival filters keep the batch dense.
  auto all = ctx_->Select(Parse("n >= 0"), mapped).value();
  VmChoice all_choice = Compile(all, /*force=*/true);
  ASSERT_TRUE(all_choice.compiled);
  ASSERT_TRUE(all_choice.op->Open().ok());
  ASSERT_TRUE(all_choice.op->NextBatch(&batch).value());
  EXPECT_FALSE(batch.has_selection());
  EXPECT_EQ(batch.active_rows(), 8u * 2u * 3u);
  all_choice.op->Close();
  CheckPlanParity(none, "p", "empty selection");
  CheckPlanParity(all, "p", "full selection");
}

TEST_F(VmTest, ArenaResetsBetweenQueriesAndStaysAllocationFree) {
  VmChoice choice = Compile(ChainPlan(), /*force=*/false);
  ASSERT_TRUE(choice.compiled);
  auto* vm = static_cast<VmExec*>(choice.op.get());

  // First drain warms the arena's buffer capacities.
  const Value first = Drain(vm, "p");
  EXPECT_GT(vm->arena().RetainedBytes(), 0u);

  // Second drain (fresh Open) reuses them: zero capacity growth — the
  // steady-state claim bench_vm and ci.sh --vm gate process-wide.
  const uint64_t resets_before =
      VmStats::arena_resets.load(std::memory_order_relaxed);
  const uint64_t allocs_before =
      VmStats::arena_allocations.load(std::memory_order_relaxed);
  const Value second = Drain(vm, "p");
  EXPECT_EQ(VmStats::arena_allocations.load(std::memory_order_relaxed),
            allocs_before)
      << "re-drain grew arena buffers; capacities were not retained";
  EXPECT_EQ(VmStats::arena_resets.load(std::memory_order_relaxed),
            resets_before + 1)
      << "Open() must reset the arena exactly once per query";
  EXPECT_EQ(first, second);
}

TEST_F(VmTest, FallbackEligibilityEdges) {
  // Joins are never fusible — not even under force.
  auto low = ctx_->Select(Parse("p.number == 0"),
                          ctx_->Get("p", "Paragraph").value())
                 .value();
  auto impl = ctx_->Select(Parse("p.number == 1"),
                           ctx_->Get("p", "Paragraph").value())
                  .value();
  auto join = ctx_->NaturalJoin(low, impl).value();
  VmChoice join_choice = Compile(join, /*force=*/true);
  EXPECT_FALSE(join_choice.compiled);
  EXPECT_EQ(join_choice.op, nullptr);
  EXPECT_NE(join_choice.annotation.find("joins are not fusible"),
            std::string::npos)
      << join_choice.annotation;

  // Flatten is never fusible.
  auto docs = ctx_->Get("d", "Document").value();
  auto flat = ctx_->Flat("p", Parse("d->paragraphs()"), docs).value();
  VmChoice flat_choice = Compile(flat, /*force=*/true);
  EXPECT_FALSE(flat_choice.compiled);
  EXPECT_NE(flat_choice.annotation.find("flatten is not fusible"),
            std::string::npos)
      << flat_choice.annotation;

  // A bare scan is eligible but not a cost win: kAuto keeps the tree,
  // force compiles it anyway (the eligibility rule is separate from
  // the cost gate).
  auto bare = ctx_->Get("p", "Paragraph").value();
  VmChoice auto_choice = Compile(bare, /*force=*/false);
  EXPECT_FALSE(auto_choice.compiled);
  EXPECT_NE(auto_choice.annotation.find("no fusion win"),
            std::string::npos)
      << auto_choice.annotation;
  VmChoice forced = Compile(bare, /*force=*/true);
  EXPECT_TRUE(forced.compiled);
  CheckPlanParity(bare, "p", "forced bare scan");
}

TEST_F(VmTest, EngineKnobAndExplainAnnotation) {
  engine::Database database(&db_.catalog(), &db_.store(), &db_.methods());
  engine::PlanOptions no_opt;
  no_opt.optimize = false;
  const std::string query =
      "ACCESS p FROM p IN Paragraph "
      "WHERE p.number >= 1 AND p.number <= 1";

  // kAuto compiles the eligible chain and EXPLAIN reports it.
  auto auto_run = database.Run(query, no_opt);
  ASSERT_TRUE(auto_run.ok()) << auto_run.status().ToString();
  EXPECT_NE(auto_run.value().physical_explain.find("[vm: compiled"),
            std::string::npos)
      << auto_run.value().physical_explain;

  // kOff pins the operator tree — no vm annotation at all.
  engine::RunOptions off;
  off.vm = engine::VmMode::kOff;
  auto off_run = database.Run(query, no_opt, off);
  ASSERT_TRUE(off_run.ok());
  EXPECT_EQ(off_run.value().physical_explain.find("[vm:"),
            std::string::npos)
      << off_run.value().physical_explain;
  EXPECT_EQ(auto_run.value().result, off_run.value().result);

  // An ineligible plan under kForce reports the fallback reason.
  engine::RunOptions force;
  force.vm = engine::VmMode::kForce;
  const std::string join_query =
      "ACCESS [a: p, b: q] FROM p IN Paragraph, q IN Paragraph "
      "WHERE p.number == q.number AND p.number == 0";
  auto join_run = database.Run(join_query, no_opt, force);
  ASSERT_TRUE(join_run.ok()) << join_run.status().ToString();
  EXPECT_NE(join_run.value().physical_explain.find("[vm: fallback"),
            std::string::npos)
      << join_run.value().physical_explain;
}

TEST_F(VmTest, FusedDispatchesStayBelowOperatorHandoffs) {
  // The observable ci.sh --vm gates: over the same fused chain, the VM
  // pays one dispatch per scan batch where the tree pays one virtual
  // hand-off per operator per batch.
  const algebra::LogicalRef plan = ChainPlan();
  auto tree = BuildPhysical(plan, exec_ctx_);
  ASSERT_TRUE(tree.ok());
  VmStats::Reset();
  Drain(tree.value().get(), "p");
  const uint64_t handoffs =
      VmStats::operator_handoffs.load(std::memory_order_relaxed);

  VmChoice choice = Compile(plan, /*force=*/false);
  ASSERT_TRUE(choice.compiled);
  VmStats::Reset();
  Drain(choice.op.get(), "p");
  const uint64_t dispatches =
      VmStats::vm_dispatches.load(std::memory_order_relaxed);
  EXPECT_EQ(VmStats::operator_handoffs.load(std::memory_order_relaxed),
            0u)
      << "the VM drain must not pass through tree hand-offs";
  EXPECT_GT(dispatches, 0u);
  EXPECT_LT(dispatches, handoffs);
}

}  // namespace
}  // namespace exec
}  // namespace vodak
