#include "exec/vm.h"

#include <utility>

#include "exec/cancellation.h"

namespace vodak {
namespace exec {

namespace {

/// Comparison verdict from a three-way compare result — the tail half
/// of ExprEvaluator::CompareHolds, split out so the typed kTest loop
/// can feed it an int compare without paying Value::Compare.
bool CmpHolds(BinOp op, int c) {
  switch (op) {
    case BinOp::kEq:
      return c == 0;
    case BinOp::kNe:
      return c != 0;
    case BinOp::kLt:
      return c < 0;
    case BinOp::kLe:
      return c <= 0;
    case BinOp::kGt:
      return c > 0;
    default:
      return c >= 0;  // kGe
  }
}

}  // namespace

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kColumn:
      return "OP_Column";
    case OpCode::kEval:
      return "OP_Eval";
    case OpCode::kTest:
      return "OP_Test";
    case OpCode::kTestExpr:
      return "OP_TestExpr";
    case OpCode::kLogic:
      return "OP_Logic";
    case OpCode::kFilter:
      return "OP_Filter";
    case OpCode::kProject:
      return "OP_Project";
    case OpCode::kResultRow:
      return "OP_ResultRow";
    case OpCode::kHalt:
      return "OP_Halt";
  }
  return "OP_?";
}

std::string VmInstr::ToString(
    const std::vector<std::string>* reg_names) const {
  auto reg = [reg_names](int idx) {
    std::string s = "r" + std::to_string(idx);
    if (reg_names != nullptr && idx >= 0 &&
        static_cast<size_t>(idx) < reg_names->size()) {
      s += "(" + (*reg_names)[idx] + ")";
    }
    return s;
  };
  std::string out = OpCodeName(op);
  switch (op) {
    case OpCode::kColumn:
      out += " " + reg(dst);
      break;
    case OpCode::kEval:
      out += " " + reg(dst) + " := " + expr->ToString();
      break;
    case OpCode::kTest:
      out += " f" + std::to_string(dst) + " := ";
      if (const_lhs) {
        out += imm.ToString() + " " + std::string(BinOpName(cmp)) + " " +
               reg(src_a);
      } else {
        out += reg(src_a) + " " + std::string(BinOpName(cmp)) + " " +
               imm.ToString();
      }
      break;
    case OpCode::kTestExpr:
      out += " f" + std::to_string(dst) + " := " + expr->ToString();
      break;
    case OpCode::kLogic:
      if (negate) {
        out += " f" + std::to_string(dst) + " := NOT f" +
               std::to_string(src_a);
      } else {
        out += " f" + std::to_string(dst) + " := f" +
               std::to_string(src_a) + " " + std::string(BinOpName(cmp)) +
               " f" + std::to_string(src_b);
      }
      break;
    case OpCode::kFilter:
      out += " f" + std::to_string(src_a);
      break;
    case OpCode::kProject:
    case OpCode::kResultRow:
    case OpCode::kHalt:
      break;
  }
  return out;
}

std::string VmProgram::ToString() const {
  std::string out;
  for (size_t i = 0; i < code.size(); ++i) {
    out += std::to_string(i) + ": " + code[i].ToString(&reg_names) + "\n";
  }
  return out;
}

VmExec::VmExec(const ExecContext& ctx, VmProgram program,
               BatchSourcePtr source)
    : PhysOperator(program.out_refs),
      evaluator_(ctx.catalog, ctx.store, ctx.methods, ctx.property_cache,
                 ctx.snapshot_epoch),
      program_(std::move(program)),
      source_(std::move(source)),
      cancel_(ctx.cancel),
      deadline_(ctx.deadline) {
  arena_.Configure(program_.flag_slots, program_.scratch_slots);
}

Status VmExec::Open() {
  seen_.clear();
  arena_.ResetForQuery();
  return source_->Open();
}

void VmExec::Close() {
  source_->Close();
  seen_.clear();
}

BatchEnv VmExec::RegEnv() const {
  BatchEnv env{&program_.reg_names, &regs_.columns(), regs_.num_rows()};
  regs_.ExportSelectionTo(&env);
  return env;
}

size_t VmExec::Emit(RowBatch* out) {
  const size_t out_cols = program_.out_regs.size();
  if (!program_.project_dedup) {
    // Map-style hand-off (also a project whose rows are distinct by
    // construction): registers move into the output columns and the
    // register file's selection transplants (the registers are
    // rebuilt from the next scan batch anyway).
    out->Reset(out_cols);
    for (size_t c = 0; c < out_cols; ++c) {
      out->column(c) = std::move(regs_.column(program_.out_regs[c]));
    }
    out->set_num_rows(regs_.num_rows());
    if (regs_.has_selection()) {
      out->SetSelection(regs_.TakeSelection());
    }
    return out->active_rows();
  }
  // ProjectDedup parity: gather the projected registers of every live
  // row, keep first occurrences across the whole drain, emit dense.
  out->Reset(out_cols);
  size_t out_rows = 0;
  for (size_t i = 0; i < regs_.active_rows(); ++i) {
    const size_t r = regs_.RowAt(i);
    projected_.resize(out_cols);
    for (size_t c = 0; c < out_cols; ++c) {
      projected_[c] = regs_.column(program_.out_regs[c])[r];
    }
    if (seen_.insert(projected_).second) {
      out->AppendRow(projected_);
      ++out_rows;
    }
  }
  return out_rows;
}

Result<bool> VmExec::NextBatch(RowBatch* batch) {
  for (;;) {
    // One cancellation check per scan batch, like every scan leaf.
    VODAK_RETURN_IF_ERROR(CheckQueryAlive(cancel_, deadline_));
    VODAK_ASSIGN_OR_RETURN(bool more, source_->NextBatch(&scan_batch_));
    if (!more) return false;
    // One fused dispatch covers the whole compiled chain for this
    // batch — the observable ci.sh --vm gates against the tree's
    // per-operator hand-off count.
    VmStats::vm_dispatches.fetch_add(1, std::memory_order_relaxed);
    const size_t n = scan_batch_.num_rows();
    regs_.Reset(program_.reg_names.size());
    regs_.set_num_rows(n);

    bool survived = true;
    size_t emitted = 0;
    for (const VmInstr& in : program_.code) {
      switch (in.op) {
        case OpCode::kColumn:
          regs_.column(in.dst) = std::move(scan_batch_.column(0));
          break;
        case OpCode::kEval: {
          BatchEnv env = RegEnv();
          VODAK_ASSIGN_OR_RETURN(ValueColumn computed,
                                 evaluator_.EvalBatch(in.expr, env));
          if (regs_.has_selection()) {
            // Map scatter semantics: one computed value per live row,
            // written back to its physical position; unselected slots
            // stay NIL and are never read.
            ValueColumn& scattered =
                arena_.PrepareScratch(in.scratch, n);
            for (size_t i = 0; i < regs_.active_rows(); ++i) {
              scattered[regs_.RowAt(i)] = std::move(computed[i]);
            }
            regs_.column(in.dst).swap(scattered);
          } else {
            regs_.column(in.dst) = std::move(computed);
          }
          break;
        }
        case OpCode::kTest: {
          const ValueColumn& col = regs_.column(in.src_a);
          const size_t active = regs_.active_rows();
          std::vector<char>& flags = arena_.PrepareFlags(in.dst, active);
          if (in.imm.is_int()) {
            // Typed loop for the dominant shape (INT immediate): an
            // INT row value skips Value::Compare's variant dispatch;
            // anything else (NIL, REAL, ...) takes the generic compare
            // per row, so the result is bit-identical to the slow loop.
            const int64_t imm = in.imm.AsInt();
            for (size_t i = 0; i < active; ++i) {
              const Value& v = col[regs_.RowAt(i)];
              if (v.is_int()) {
                const int64_t x = v.AsInt();
                int c = x < imm ? -1 : (x > imm ? 1 : 0);
                if (in.const_lhs) c = -c;
                flags[i] = CmpHolds(in.cmp, c);
              } else {
                flags[i] =
                    in.const_lhs
                        ? ExprEvaluator::CompareHolds(in.cmp, in.imm, v)
                        : ExprEvaluator::CompareHolds(in.cmp, v, in.imm);
              }
            }
            break;
          }
          for (size_t i = 0; i < active; ++i) {
            const Value& v = col[regs_.RowAt(i)];
            flags[i] =
                in.const_lhs
                    ? ExprEvaluator::CompareHolds(in.cmp, in.imm, v)
                    : ExprEvaluator::CompareHolds(in.cmp, v, in.imm);
          }
          break;
        }
        case OpCode::kTestExpr: {
          BatchEnv env = RegEnv();
          std::vector<char>& flags =
              arena_.PrepareFlags(in.dst, regs_.active_rows());
          VODAK_RETURN_IF_ERROR(
              evaluator_.EvalPredicateBatch(in.expr, env, &flags));
          break;
        }
        case OpCode::kLogic: {
          const std::vector<char>& a = arena_.Flags(in.src_a);
          std::vector<char>& out = arena_.PrepareFlags(in.dst, a.size());
          if (in.negate) {
            for (size_t i = 0; i < a.size(); ++i) out[i] = !a[i];
          } else if (in.cmp == BinOp::kAnd) {
            const std::vector<char>& b = arena_.Flags(in.src_b);
            for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] && b[i];
          } else {
            const std::vector<char>& b = arena_.Flags(in.src_b);
            for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] || b[i];
          }
          break;
        }
        case OpCode::kFilter:
          if (regs_.IntersectSelection(arena_.Flags(in.src_a)) == 0) {
            survived = false;
          }
          break;
        case OpCode::kProject:
          break;
        case OpCode::kResultRow:
          emitted = Emit(batch);
          break;
        case OpCode::kHalt:
          break;
      }
      if (!survived) break;
    }
    // The never-empty invariant: a batch whose rows were all filtered
    // out (or all deduped away) is abandoned, not returned.
    if (!survived || emitted == 0) continue;
    rows_produced_ += emitted;
    return true;
  }
}

}  // namespace exec
}  // namespace vodak
