// ResultSet: the columnar result surface of query execution.
//
// Until PR 4 every drained plan funneled into std::vector<Row> — one heap
// vector of boxed Values per tuple — which made full-width result
// materialization the dominant host cost of scan-shaped queries
// (`scan_lineitem` sat at ~1x batch-vs-row). A ResultSet instead stores
// the result as typed column arrays (TypedColumn: raw int64 / double /
// string pointers + null masks, boxed fallback on tag mismatch):
//
//  * pipelines append whole RowBatches column-at-a-time (AppendBatch) —
//    typed lanes (a scan's borrowed ones included) copy raw arrays, never
//    constructing a Value;
//  * existing row-oriented callers read the lazily built boxed view
//    (rows()), which reproduces each Value bit-for-bit from the exact
//    type tags (the TypedColumn round-trip invariant).
//
// String payload ownership (the PR 5 dedup contract): a result string is
// stored as one pointer per row, backed by one of
//
//  1. the producing batch's refcounted StringArenas, *retained* by the
//     result column (arena handoff — zero copy; sort/join/aggregate
//     emission arenas live exactly as long as the result does);
//  2. Table storage, borrowed for scan lanes and other table-backed
//     lanes — valid for the Database's lifetime (tables are never dropped
//     while the catalog lives, and a table a query has read is sealed
//     against appends, so its strings and dictionary entries never move);
//  3. the column's own arena, for payloads that had to be copied
//     (transient boxed Values, pool-backed lanes) — deduplicated through
//     the arena's small dictionary for low-cardinality columns.
//
// A ResultSet is therefore safe to hold after the operator tree is gone,
// and — like every other string borrower — must not outlive the Database
// whose tables it may reference.

#ifndef ECODB_EXEC_RESULT_SET_H_
#define ECODB_EXEC_RESULT_SET_H_

#include <cstdint>
#include <vector>

#include "ecodb/exec/row_batch.h"
#include "ecodb/exec/typed_column.h"
#include "ecodb/storage/schema.h"
#include "ecodb/storage/value.h"

namespace ecodb {

class ResultSet {
 public:
  ResultSet() = default;
  explicit ResultSet(const Schema& schema) { Reset(schema); }

  /// Clears all rows and (re)shapes the columns to `schema`.
  void Reset(const Schema& schema);

  int num_cols() const { return static_cast<int>(cols_.size()); }
  size_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Appends every selected row of `batch` column-at-a-time. Typed lanes
  /// (borrowed or owned) append raw values; string payloads are
  /// taken by pointer (retaining the batch's arenas / borrowing table
  /// storage) whenever the producer owns stable bytes, and copied —
  /// dictionary-deduplicated — only when it does not. Steady state
  /// allocates only for column growth.
  void AppendBatch(const RowBatch& batch);

  /// Unboxed view of one cell (no allocation).
  CellView At(size_t row, int col) const {
    return cols_[static_cast<size_t>(col)].View(static_cast<uint32_t>(row));
  }
  /// Boxes one cell.
  Value ValueAt(size_t row, int col) const {
    return BoxCellView(At(row, col));
  }
  /// Boxes one full row.
  Row RowAt(size_t row) const;

  const TypedColumn& col(int i) const {
    return cols_[static_cast<size_t>(i)];
  }

  /// Boxed row-oriented view for existing callers, built lazily on first
  /// access and cached. Bit-for-bit identical to what the pre-columnar
  /// drain produced.
  const std::vector<Row>& rows() const;

  /// Moves the boxed view out (building it first if needed), leaving the
  /// columnar storage in place.
  std::vector<Row> TakeRows();

 private:
  std::vector<TypedColumn> cols_;
  size_t num_rows_ = 0;
  mutable std::vector<Row> row_view_;
  mutable bool row_view_built_ = false;
};

}  // namespace ecodb

#endif  // ECODB_EXEC_RESULT_SET_H_
