// RowBatch: the column-major unit of the vectorized executor. Layout
// and invariants (column/row-count coupling, never-empty returns, the
// selection-vector view and the mark-vs-compact decision rule) are
// documented in docs/ARCHITECTURE.md §"RowBatch: the unit of
// execution" and §"Selection vectors".
#ifndef VODAK_EXEC_ROW_BATCH_H_
#define VODAK_EXEC_ROW_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/copy_stats.h"
#include "common/logging.h"
#include "types/value.h"

namespace vodak {
namespace exec {

/// A physical tuple: values aligned with the operator's reference list
/// (sorted reference names, matching the logical schema's map order).
using Row = std::vector<Value>;

/// Target number of rows per batch in the vectorized pipeline. Operators
/// may emit smaller batches (filters, end of stream) or larger ones
/// (flatten / join fan-out); a returned batch is never empty.
constexpr size_t kDefaultBatchSize = 1024;

/// Column-major batch of rows flowing through the NextBatch pipeline.
/// Column i holds the values of reference refs()[i] for every row, so
/// the batched expression evaluator can bind a reference to a whole
/// column at once instead of rebuilding a per-row environment.
///
/// A batch is either *dense* (every stored row is live) or carries a
/// *selection vector*: a strictly ascending list of live physical row
/// indices into the column storage. Filters mark survivors in the
/// selection instead of moving column values; consumers iterate the
/// live rows through active_rows()/RowAt() and call Compact() only at
/// density boundaries (join build and inner sides, the parallel
/// drivers' row hand-off, final set emit).
class RowBatch {
 public:
  RowBatch() = default;

  /// Drops all rows (and any selection) and resizes to `num_columns`
  /// empty columns.
  void Reset(size_t num_columns) {
    columns_.resize(num_columns);
    for (auto& col : columns_) col.clear();
    num_rows_ = 0;
    ClearSelection();
  }

  /// Physical rows held by the column storage (live or not).
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Live rows: the selection count under a selection vector, every
  /// stored row otherwise. The pipeline's never-empty invariant is on
  /// *active* rows — a batch of 1024 stored rows with an empty
  /// selection is empty.
  size_t active_rows() const { return has_sel_ ? sel_.size() : num_rows_; }
  bool empty() const { return active_rows() == 0; }

  bool has_selection() const { return has_sel_; }
  const std::vector<uint32_t>& selection() const { return sel_; }

  /// Physical index of the i-th live row (i < active_rows()).
  size_t RowAt(size_t i) const {
    return has_sel_ ? static_cast<size_t>(sel_[i]) : i;
  }

  std::vector<Value>& column(size_t i) { return columns_[i]; }
  const std::vector<Value>& column(size_t i) const { return columns_[i]; }
  std::vector<std::vector<Value>>& columns() { return columns_; }
  const std::vector<std::vector<Value>>& columns() const {
    return columns_;
  }

  /// After writing columns directly, records the row count. All columns
  /// must hold exactly `n` values.
  void set_num_rows(size_t n) { num_rows_ = n; }

  /// Installs a selection (ascending physical row indices, each <
  /// num_rows()). Used by operators that pass a child's selection
  /// through unchanged (e.g. Map).
  void SetSelection(std::vector<uint32_t> sel) {
    sel_ = std::move(sel);
    has_sel_ = true;
  }
  /// Moves the selection out (the batch reverts to dense). For
  /// transplanting a child's selection without copying it; only valid
  /// once the donor batch's live rows are no longer needed.
  std::vector<uint32_t> TakeSelection() {
    has_sel_ = false;
    return std::move(sel_);
  }
  void ClearSelection() {
    sel_.clear();
    has_sel_ = false;
  }

  /// Writes this batch's selection view into an env-like object with
  /// `sel`/`sel_count` members (expr's BatchEnv — templated to keep
  /// this header below the expr layer). No-op on a dense batch. The
  /// pipeline's never-empty invariant is a precondition: an empty
  /// selection has no data() to view and would read back as dense.
  template <typename EnvT>
  void ExportSelectionTo(EnvT* env) const {
    if (!has_sel_) return;
    VODAK_DCHECK(!sel_.empty());
    env->sel = sel_.data();
    env->sel_count = sel_.size();
  }

  void AppendRow(const Row& row) {
    for (size_t i = 0; i < columns_.size(); ++i) {
      columns_[i].push_back(row[i]);
    }
    ++num_rows_;
  }

  /// Copies physical row `i` into `row` (resized to num_columns). Under
  /// a selection, pass RowAt(i) — the index is physical, not logical.
  void CopyRowTo(size_t i, Row* row) const {
    row->resize(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      (*row)[c] = columns_[c][i];
    }
  }

  /// Narrows the live rows to those with keep[i] != 0, where keep has
  /// one entry per *active* row (the shape EvalPredicateBatch produces
  /// over this batch's selection view). Pure marking: no column value
  /// moves. Returns the surviving live count. A full-survival
  /// intersection of a dense batch stays dense (no selection is
  /// allocated).
  size_t IntersectSelection(const std::vector<char>& keep) {
    const size_t active = active_rows();
    if (!has_sel_) {
      size_t kept = 0;
      for (size_t i = 0; i < active; ++i) kept += keep[i] ? 1 : 0;
      if (kept == active) return kept;  // all survive: stay dense
      sel_.clear();
      sel_.reserve(kept);
      for (size_t i = 0; i < active; ++i) {
        if (keep[i]) sel_.push_back(static_cast<uint32_t>(i));
      }
      has_sel_ = true;
      return sel_.size();
    }
    size_t kept = 0;
    for (size_t i = 0; i < active; ++i) {
      if (keep[i]) sel_[kept++] = sel_[i];
    }
    sel_.resize(kept);
    return kept;
  }

  /// Gathers the selected rows into dense column storage and drops the
  /// selection. The single explicit densification of the pipeline —
  /// applied only where every column must become row-addressable (the
  /// boundaries listed in the class comment). No-op on a dense batch.
  /// Value moves are counted into BatchCopyStats::compact_moves.
  void Compact() {
    if (!has_sel_) return;
    uint64_t moves = 0;
    for (size_t i = 0; i < sel_.size(); ++i) {
      const size_t src = sel_[i];
      if (src != i) {
        for (auto& col : columns_) col[i] = std::move(col[src]);
        moves += columns_.size();
      }
    }
    for (auto& col : columns_) col.resize(sel_.size());
    num_rows_ = sel_.size();
    ClearSelection();
    if (moves != 0) {
      BatchCopyStats::compact_moves.fetch_add(moves,
                                              std::memory_order_relaxed);
    }
  }

 private:
  size_t num_rows_ = 0;
  std::vector<std::vector<Value>> columns_;
  /// Ascending physical indices of the live rows; meaningful only when
  /// has_sel_ is true.
  std::vector<uint32_t> sel_;
  bool has_sel_ = false;
};

}  // namespace exec
}  // namespace vodak

#endif  // VODAK_EXEC_ROW_BATCH_H_
