// The VM compiler: lowers an eligible logical chain (Get/ExprSource
// leaf → Select/Map* → optional Project root) into a VmProgram, and
// lets the batch-aware cost model pick VM vs operator-tree execution.
// Parity is by construction: generic expressions run through the very
// same ExprEvaluator entry points the tree operators call, and the
// native kTest/kLogic lowering is restricted to total-order compares
// (ExprEvaluator::IsLowerableCompare) whose eager evaluation is
// observationally identical to the tree's masked short-circuit.
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/sargable.h"
#include "exec/vm.h"
#include "optimizer/cost_model.h"

namespace vodak {
namespace exec {

namespace {

using algebra::LogicalNode;
using algebra::LogicalOp;
using algebra::LogicalRef;

/// Cost figure for EXPLAIN annotations: "%g", not std::to_string's
/// fixed six decimals ("2352" rather than "2352.000000").
std::string FormatCost(double cost) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", cost);
  return buf;
}

/// The analyzed chain, leaf upward.
struct ChainInfo {
  const LogicalNode* leaf = nullptr;
  /// Select/Map nodes in leaf-to-root order.
  std::vector<const LogicalNode*> ops;
  const LogicalNode* project = nullptr;
};

/// Walks the plan from the root; returns an ineligibility reason, or
/// nullopt with `info` filled.
std::optional<std::string> AnalyzeChain(const LogicalRef& plan,
                                        const ExecContext& ctx,
                                        ChainInfo* info) {
  const LogicalNode* node = plan.get();
  if (node->op() == LogicalOp::kProject) {
    info->project = node;
    node = node->input(0).get();
  }
  std::vector<const LogicalNode*> root_to_leaf;
  for (;;) {
    switch (node->op()) {
      case LogicalOp::kSelect:
      case LogicalOp::kMap:
        root_to_leaf.push_back(node);
        node = node->input(0).get();
        continue;
      case LogicalOp::kGet: {
        if (ctx.catalog->FindClass(node->class_name()) == nullptr) {
          return "unknown class '" + node->class_name() + "'";
        }
        info->leaf = node;
        break;
      }
      case LogicalOp::kExprSource: {
        // Method scans are eligible only with a set-at-a-time batch
        // body; scalar-only method scans keep the operator tree
        // (ISSUE rule: "method scans without batch bodies" fall back).
        const ExprRef& e = node->expr();
        if (e->kind() == ExprKind::kClassMethodCall) {
          const MethodRegistry::RegisteredMethod* m =
              ctx.methods->Find(e->name(), e->method(),
                                MethodLevel::kClassObject);
          if (m == nullptr || !m->impl.native_batch) {
            return "method scan " + e->name() + "->" + e->method() +
                   "() has no batch body";
          }
        } else if (e->kind() != ExprKind::kConst &&
                   e->kind() != ExprKind::kSetCtor) {
          return "unsupported scan expression " + e->ToString();
        }
        info->leaf = node;
        break;
      }
      case LogicalOp::kJoin:
      case LogicalOp::kNaturalJoin:
        return "joins are not fusible";
      case LogicalOp::kUnion:
      case LogicalOp::kDiff:
        return "set operators are not fusible";
      case LogicalOp::kFlat:
        return "flatten is not fusible";
      case LogicalOp::kProject:
        return "project below the chain root";
      case LogicalOp::kGroupRef:
        return "group placeholder in executable plan";
    }
    break;
  }
  info->ops.assign(root_to_leaf.rbegin(), root_to_leaf.rend());
  return std::nullopt;
}

/// Compiler scratch state while lowering one chain.
struct Lowering {
  VmProgram program;
  int FindReg(const std::string& name) const {
    for (size_t i = 0; i < program.reg_names.size(); ++i) {
      if (program.reg_names[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
  int NewFlag() { return static_cast<int>(program.flag_slots++); }
  int NewScratch() { return static_cast<int>(program.scratch_slots++); }
  /// Temporary registers for natively lowered property operands. The
  /// register is *named by its expression* ('$' keeps the name out of
  /// the VQL identifier space), so FindReg doubles as common-
  /// subexpression elimination: a predicate stack testing the same
  /// property repeatedly — the shape derived-predicate rewrites emit —
  /// materializes the column once and every later compare reuses the
  /// register, where the operator tree re-reads the store per filter.
  int NewTempReg(const std::string& key) {
    program.reg_names.push_back(key);
    return static_cast<int>(program.reg_names.size()) - 1;
  }
};

/// Tries to lower a predicate natively into kTest/kLogic flags.
/// Returns the flag slot, or -1 when the shape is outside the native
/// subset — the caller then emits one kTestExpr for the whole
/// condition (exact EvalPredicateBatch semantics).
///
/// Native subset: AND/OR/NOT trees whose leaves are total-order
/// compares of (a) a register variable or (b) a property hop off the
/// scan register against a constant. Both operand kinds are pure and
/// never error (property reads on live extent OIDs at the pinned epoch
/// yield a value or NIL; Value::Compare is total), so eager evaluation
/// of both logic operands is observationally identical to the tree's
/// masked short-circuit — the condition the lowering must preserve.
int TryLowerNative(const ExprRef& e, Lowering* lower, bool leaf_is_get) {
  if (e->kind() == ExprKind::kUnary && e->un_op() == UnOp::kNot) {
    const int operand = TryLowerNative(e->operand(), lower, leaf_is_get);
    if (operand < 0) return -1;
    VmInstr in;
    in.op = OpCode::kLogic;
    in.dst = lower->NewFlag();
    in.src_a = operand;
    in.negate = true;
    lower->program.code.push_back(std::move(in));
    return lower->program.code.back().dst;
  }
  if (e->kind() != ExprKind::kBinary) return -1;
  if (e->bin_op() == BinOp::kAnd || e->bin_op() == BinOp::kOr) {
    const int lhs = TryLowerNative(e->lhs(), lower, leaf_is_get);
    if (lhs < 0) return -1;
    const int rhs = TryLowerNative(e->rhs(), lower, leaf_is_get);
    if (rhs < 0) return -1;
    VmInstr in;
    in.op = OpCode::kLogic;
    in.dst = lower->NewFlag();
    in.src_a = lhs;
    in.src_b = rhs;
    in.cmp = e->bin_op();
    lower->program.code.push_back(std::move(in));
    return lower->program.code.back().dst;
  }
  // Leaf shape: the shared sargable classifier (exec/sargable.h) —
  // the same recognizer zone-map pruning uses, so what lowers to a
  // typed compare loop is exactly what segment scans can refute.
  const std::optional<SargableCompare> cmp = ClassifySargableCompare(e);
  if (!cmp) return -1;
  const ExprRef& operand = cmp->operand;
  const ExprRef& constant = cmp->constant;
  const bool const_lhs = cmp->const_lhs;

  int reg = -1;
  if (operand->kind() == ExprKind::kVar) {
    reg = lower->FindReg(operand->var_name());
  } else if (leaf_is_get && operand->kind() == ExprKind::kProperty &&
             operand->base()->kind() == ExprKind::kVar &&
             lower->FindReg(operand->base()->var_name()) == 0) {
    // One property hop off the scan OID: materialize it into a temp
    // register once, then test natively. Reuse is sound because later
    // predicates only ever *narrow* the selection: every row a later
    // kTest reads was live (and therefore written) at kEval time.
    const std::string key = "$" + operand->ToString();
    reg = lower->FindReg(key);
    if (reg < 0) {
      reg = lower->NewTempReg(key);
      VmInstr eval;
      eval.op = OpCode::kEval;
      eval.dst = reg;
      eval.expr = operand;
      eval.scratch = lower->NewScratch();
      lower->program.code.push_back(std::move(eval));
    }
  }
  if (reg < 0) return -1;

  VmInstr in;
  in.op = OpCode::kTest;
  in.dst = lower->NewFlag();
  in.src_a = reg;
  in.cmp = e->bin_op();
  in.const_lhs = const_lhs;
  in.imm = constant->value();
  lower->program.code.push_back(std::move(in));
  return lower->program.code.back().dst;
}

/// Registers must cover the temp registers TryLowerNative adds, so a
/// failed native attempt must not leave half-emitted instructions:
/// lower into a scratch copy and commit only on success.
int LowerPredicate(const ExprRef& cond, Lowering* lower,
                   bool leaf_is_get) {
  Lowering attempt;
  attempt.program.reg_names = lower->program.reg_names;
  attempt.program.flag_slots = lower->program.flag_slots;
  attempt.program.scratch_slots = lower->program.scratch_slots;
  const int flag = TryLowerNative(cond, &attempt, leaf_is_get);
  if (flag >= 0) {
    for (auto& in : attempt.program.code) {
      lower->program.code.push_back(std::move(in));
    }
    lower->program.reg_names = std::move(attempt.program.reg_names);
    lower->program.flag_slots = attempt.program.flag_slots;
    lower->program.scratch_slots = attempt.program.scratch_slots;
    return flag;
  }
  VmInstr in;
  in.op = OpCode::kTestExpr;
  in.dst = lower->NewFlag();
  in.expr = cond;
  lower->program.code.push_back(std::move(in));
  return lower->program.code.back().dst;
}

std::vector<std::string> SchemaRefs(const LogicalNode* node) {
  std::vector<std::string> refs;
  refs.reserve(node->schema().size());
  for (const auto& [name, type] : node->schema()) refs.push_back(name);
  return refs;  // map order = sorted, matching RefsOf in physical.cc
}

}  // namespace

Result<VmChoice> TryCompileVm(const algebra::LogicalRef& plan,
                              const ExecContext& ctx, bool force) {
  VmChoice choice;
  auto fallback = [&choice](const std::string& reason) {
    VmStats::vm_fallbacks.fetch_add(1, std::memory_order_relaxed);
    choice.annotation = "[vm: fallback - " + reason + "]\n";
    return std::move(choice);
  };

  if (ctx.shared_scans != nullptr) {
    return fallback("shared-scan batch keeps the operator tree");
  }
  ChainInfo chain;
  if (auto reason = AnalyzeChain(plan, ctx, &chain)) {
    return fallback(*reason);
  }

  // The batch-aware cost decision: per batch, the tree pays one
  // virtual NextBatch hand-off per chained operator
  // (kBatchOverheadCost each) where the VM pays exactly one fused
  // dispatch. Fusion therefore wins whenever the chain has at least
  // two operators; a bare scan is a wash and keeps the tree.
  const size_t chain_ops =
      1 + chain.ops.size() + (chain.project != nullptr ? 1 : 0);
  double leaf_rows = opt::CostModel::kAssumedBatchRows;
  if (chain.leaf->op() == LogicalOp::kGet) {
    opt::CostModel cost(ctx.catalog, ctx.store, ctx.methods);
    // Segment pruning feedback: a zone-map-skipping leaf emits only
    // the surviving fraction, so the fusion gate prices fewer batches.
    cost.SetSegmentStore(ctx.segments);
    leaf_rows = cost.ExtentCardinality(chain.leaf->class_name()) *
                cost.SegmentSurvivalRate();
  }
  const double batches = opt::CostModel::BatchCount(leaf_rows);
  const double tree_cost =
      opt::CostModel::kBatchOverheadCost * batches * chain_ops;
  const double vm_cost = opt::CostModel::kBatchOverheadCost * batches;
  if (!force && !(vm_cost < tree_cost)) {
    return fallback("single-operator plan, no fusion win (tree " +
                    FormatCost(tree_cost) + " <= vm " +
                    FormatCost(vm_cost) + ")");
  }

  Lowering lower;
  lower.program.reg_names.push_back(chain.leaf->ref());
  {
    VmInstr in;
    in.op = OpCode::kColumn;
    in.dst = 0;
    lower.program.code.push_back(std::move(in));
  }
  const bool leaf_is_get = chain.leaf->op() == LogicalOp::kGet;
  for (const LogicalNode* node : chain.ops) {
    if (node->op() == LogicalOp::kSelect) {
      const int flag = LowerPredicate(node->expr(), &lower, leaf_is_get);
      VmInstr in;
      in.op = OpCode::kFilter;
      in.src_a = flag;
      lower.program.code.push_back(std::move(in));
    } else {  // kMap
      lower.program.reg_names.push_back(node->ref());
      VmInstr in;
      in.op = OpCode::kEval;
      in.dst = static_cast<int>(lower.program.reg_names.size()) - 1;
      in.expr = node->expr();
      in.scratch = lower.NewScratch();
      lower.program.code.push_back(std::move(in));
    }
  }

  if (chain.project != nullptr) {
    lower.program.distinct_key = DistinctProjectKey(*chain.project);
    lower.program.project_dedup = lower.program.distinct_key.empty();
    lower.program.out_refs = chain.project->projection();
    VmInstr in;
    in.op = OpCode::kProject;
    lower.program.code.push_back(std::move(in));
  } else {
    const LogicalNode* root =
        chain.ops.empty() ? chain.leaf : chain.ops.back();
    lower.program.out_refs = SchemaRefs(root);
  }
  for (const std::string& ref : lower.program.out_refs) {
    const int reg = lower.FindReg(ref);
    if (reg < 0) {
      return fallback("output reference '" + ref +
                      "' not produced by the chain");
    }
    lower.program.out_regs.push_back(reg);
  }
  {
    VmInstr in;
    in.op = OpCode::kResultRow;
    lower.program.code.push_back(std::move(in));
    VmInstr halt;
    halt.op = OpCode::kHalt;
    lower.program.code.push_back(std::move(halt));
  }
  lower.program.summary =
      "fused " + std::to_string(chain_ops) + "-operator chain: " +
      std::to_string(lower.program.code.size()) + " ops over " +
      std::to_string(lower.program.reg_names.size()) + " registers";

  // The chain's sargable conjuncts, through the same classifier that
  // just lowered the typed compare loops: a segment-backed leaf skips
  // the segments those compares refute, so the VM never even decodes
  // rows its own filter instructions would drop.
  std::vector<storage::SlotPredicate> leaf_preds;
  if (chain.leaf->op() == LogicalOp::kGet) {
    const ClassDef* cls = ctx.catalog->FindClass(chain.leaf->class_name());
    if (cls != nullptr) {
      for (const LogicalNode* node : chain.ops) {
        if (node->op() != LogicalOp::kSelect) continue;
        std::vector<storage::SlotPredicate> got = CollectSargablePredicates(
            node->expr(), chain.leaf->ref(), *cls);
        leaf_preds.insert(leaf_preds.end(), got.begin(), got.end());
      }
    }
  }
  VODAK_ASSIGN_OR_RETURN(BatchSourcePtr source,
                         MakeLeafBatchSource(*chain.leaf, ctx, &leaf_preds));
  choice.annotation = "[vm: compiled - " + lower.program.summary +
                      "; tree cost " + FormatCost(tree_cost) +
                      " > vm " + FormatCost(vm_cost) + "]\n";
  choice.compiled = true;
  choice.op = PhysOpPtr(
      new VmExec(ctx, std::move(lower.program), std::move(source)));
  VmStats::vm_compiled.fetch_add(1, std::memory_order_relaxed);
  return choice;
}

}  // namespace exec
}  // namespace vodak
