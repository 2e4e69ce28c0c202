// Compiled query execution: a register bytecode VM over RowBatch
// columns. TryCompileVm lowers an eligible filter→map→project logical
// chain into one VmProgram — a flat instruction list over a register
// file of value columns — and VmExec runs the whole program once per
// scan batch: one fused dispatch where the operator tree pays one
// virtual NextBatch hand-off per operator per batch. Ineligible plans
// (joins, flatten, set ops, method scans without batch bodies) stay on
// the operator tree. Opcode semantics, the eligibility rule, arena
// lifetime and the epoch contract are documented in
// docs/ARCHITECTURE.md §"Compiled execution — the batch VM".
#ifndef VODAK_EXEC_VM_H_
#define VODAK_EXEC_VM_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "common/vm_stats.h"
#include "exec/physical.h"
#include "exec/row_hash.h"
#include "expr/expr_eval.h"

namespace vodak {
namespace exec {

/// The VM's instruction set (the OP_Column / OP_Test / OP_Logic /
/// OP_Project / OP_ResultRow design of SNIPPETS 2-3, specialized to
/// batches): every instruction operates on whole columns / flag
/// vectors, so one program run processes one scan batch end to end.
enum class OpCode : uint8_t {
  /// Bind the scan source's column into register `dst`.
  kColumn,
  /// reg[dst] := expr evaluated over the live rows of the register
  /// file, scattered back to physical row positions (Map semantics:
  /// unselected slots stay NIL, never read).
  kEval,
  /// flag[dst] := reg[src_a] <cmp> imm per live row (or imm <cmp>
  /// reg[src_a] with const_lhs), via the same total-order
  /// ExprEvaluator::CompareHolds the operator tree's fused filter path
  /// uses — bit-identical selection semantics by construction.
  kTest,
  /// flag[dst] := predicate expression over the live rows, through
  /// ExprEvaluator::EvalPredicateBatch (the generic fallback for any
  /// condition the native kTest/kLogic lowering does not cover).
  kTestExpr,
  /// flag[dst] := flag[src_a] AND/OR flag[src_b], or NOT flag[src_a]
  /// when src_b < 0. Only emitted over error-free total-order compare
  /// operands, where eager evaluation equals the tree's masked
  /// short-circuit.
  kLogic,
  /// Narrow the register file's selection to flag[src_a] survivors
  /// (RowBatch::IntersectSelection: marking, no value moves). Zero
  /// survivors abandon the batch and fetch the next one.
  kFilter,
  /// Declares the output gather (which registers feed which output
  /// column, and whether project-dedup applies). Placement marker:
  /// the mapping lives in VmProgram.
  kProject,
  /// Emit the batch: move register columns (or gather+dedup projected
  /// rows) into the output RowBatch.
  kResultRow,
  /// End of program.
  kHalt,
};

const char* OpCodeName(OpCode op);

/// One VM instruction. Operand meaning per opcode is documented on
/// OpCode; unused fields stay at their defaults.
struct VmInstr {
  OpCode op = OpCode::kHalt;
  int dst = -1;
  int src_a = -1;
  int src_b = -1;
  /// kTest: the comparison; kLogic: kAnd / kOr.
  BinOp cmp = BinOp::kEq;
  /// kLogic with src_b < 0: flag[dst] := NOT flag[src_a].
  bool negate = false;
  /// kTest: the constant sits on the left of the comparison.
  bool const_lhs = false;
  /// kTest: the comparison constant.
  Value imm;
  /// kEval / kTestExpr: the expression to evaluate.
  ExprRef expr;
  /// kEval: arena scratch-column slot for the physical scatter.
  int scratch = -1;

  /// Disassembly; with `reg_names` each register prints as
  /// `r<idx>(<name>)` so EXPLAIN output ties back to plan references.
  std::string ToString(
      const std::vector<std::string>* reg_names = nullptr) const;
};

/// A compiled query: the instruction list plus the register and output
/// layout. reg_names[i] is the reference bound to register i (register
/// 0 is always the scan reference); out_regs[c] is the register whose
/// column becomes output column c (named out_refs[c]).
struct VmProgram {
  std::vector<VmInstr> code;
  std::vector<std::string> reg_names;
  std::vector<int> out_regs;
  std::vector<std::string> out_refs;
  /// Root was a logical project: gather + set-semantics dedup on emit.
  bool project_dedup = false;
  /// Root was a logical project whose rows are distinct by
  /// construction (DistinctProjectKey): the scan variable it keeps.
  /// The dedup is elided and the projected registers move like a map's.
  std::string distinct_key;
  size_t flag_slots = 0;
  size_t scratch_slots = 0;
  /// One-line compilation summary for EXPLAIN.
  std::string summary;

  std::string ToString() const;
};

/// Per-query allocation arena: the VM's working buffers (predicate
/// flag vectors, physical scatter columns) live here and are *reused
/// across batches* — after the first batch warms the capacities, the
/// steady-state batch loop allocates nothing (VmStats counts every
/// capacity growth, and bench_vm / ci.sh --vm gate it at zero).
/// ResetForQuery() between queries keeps the capacities and clears the
/// contents.
class QueryArena {
 public:
  /// The flag vector for slot `slot`, resized to `n` entries (contents
  /// unspecified; every consumer overwrites all n).
  std::vector<char>& PrepareFlags(size_t slot, size_t n) {
    std::vector<char>& buf = flags_[slot];
    NoteGrowth(n > buf.capacity() ? (n - buf.capacity()) : 0);
    buf.resize(n);
    return buf;
  }
  std::vector<char>& Flags(size_t slot) { return flags_[slot]; }

  /// The scratch column for slot `slot`, cleared and resized to `n`
  /// NIL values (the Map scatter target: unselected slots stay NIL).
  ValueColumn& PrepareScratch(size_t slot, size_t n) {
    ValueColumn& buf = scratch_[slot];
    NoteGrowth(n > buf.capacity() ? (n - buf.capacity()) * sizeof(Value)
                                  : 0);
    buf.clear();
    buf.resize(n);
    return buf;
  }

  void Configure(size_t flag_slots, size_t scratch_slots) {
    flags_.resize(flag_slots);
    scratch_.resize(scratch_slots);
  }

  /// Per-query reset: contents dropped, capacities retained.
  void ResetForQuery() {
    for (auto& f : flags_) f.clear();
    for (auto& s : scratch_) s.clear();
    VmStats::arena_resets.fetch_add(1, std::memory_order_relaxed);
  }

  /// Bytes currently retained across all buffers.
  size_t RetainedBytes() const {
    size_t bytes = 0;
    for (const auto& f : flags_) bytes += f.capacity();
    for (const auto& s : scratch_) bytes += s.capacity() * sizeof(Value);
    return bytes;
  }

 private:
  void NoteGrowth(size_t bytes) {
    if (bytes == 0) return;
    VmStats::arena_allocations.fetch_add(1, std::memory_order_relaxed);
    VmStats::arena_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }

  std::vector<std::vector<char>> flags_;
  std::vector<ValueColumn> scratch_;
};

/// The VM execution operator: a PhysOperator so the engine drives it
/// through the same ExecuteColumn drain as any tree — but internally it
/// runs the whole compiled chain per scan batch in one dispatch.
/// Density contract (operator-contract table, docs/ARCHITECTURE.md
/// §"Selection vectors"): consumes dense scan batches, emits selected
/// batches (filters mark survivors in the register file's selection)
/// or dense ones (project-dedup gathers; a project whose dedup is
/// elided moves its registers and keeps the selection). Reads resolve
/// at the ExecContext's pinned snapshot epoch exactly like every tree
/// operator: the scan source and the embedded evaluator are both
/// constructed against ExecContext::snapshot_epoch.  [vm-entry]
class VmExec final : public PhysOperator {
 public:
  VmExec(const ExecContext& ctx, VmProgram program,
         BatchSourcePtr source);

  Status Open() override;
  Result<bool> NextBatch(RowBatch* batch) override;
  void Close() override;
  std::string name() const override { return "VmExec"; }
  std::string params() const override {
    // Same uniform source annotation the tree's ScanOp prints: the VM
    // wraps a BatchSource leaf, and EXPLAIN must say which kind.
    std::string out = program_.summary + " ";
    if (program_.project_dedup || !program_.distinct_key.empty()) {
      out += DedupAnnotation(program_.distinct_key) + " ";
    }
    return out + source_->annotation();
  }
  const std::vector<const PhysOperator*> children() const override {
    return {};
  }

  const VmProgram& program() const { return program_; }
  const QueryArena& arena() const { return arena_; }

 private:
  /// Registers viewed as a batch environment over the live rows.
  BatchEnv RegEnv() const;
  /// kResultRow: move/gather the register file into `out`. Returns the
  /// emitted live-row count (0 with project-dedup when every projected
  /// row was already seen).
  size_t Emit(RowBatch* out);

  ExprEvaluator evaluator_;
  VmProgram program_;
  BatchSourcePtr source_;
  const CancellationToken* cancel_;
  Deadline deadline_;
  QueryArena arena_;
  /// The register file: column i is register i, physical row positions
  /// shared with the scan batch; filters narrow its selection.
  RowBatch regs_;
  RowBatch scan_batch_;
  /// Project-dedup state (ProjectDedup parity: one running set per
  /// Open..Close drain).
  std::unordered_set<Row, RowHash, RowEq> seen_;
  Row projected_;
};

/// The compiler's verdict on one plan. `op` is null when the operator
/// tree should run (ineligible shape, or the cost model kept the
/// tree); `annotation` is the EXPLAIN line reporting the choice either
/// way (newline-terminated).
struct VmChoice {
  PhysOpPtr op;
  std::string annotation;
  bool compiled = false;
};

/// Attempts to lower `plan` (a Get/ExprSource leaf under any number of
/// Select/Map operators and an optional Project root) into a VM
/// program. The batch-aware cost model decides VM vs operator tree —
/// the VM wins exactly when fusion removes hand-offs (≥ 2 chained
/// operators); `force` skips the cost gate (RunOptions vm=kForce) but
/// never the eligibility rule. Shared-scan batches always keep the
/// operator tree (their leaves attach to the fan-out ring).
Result<VmChoice> TryCompileVm(const algebra::LogicalRef& plan,
                              const ExecContext& ctx, bool force);

}  // namespace exec
}  // namespace vodak

#endif  // VODAK_EXEC_VM_H_
