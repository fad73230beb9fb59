// ResultSet: the columnar result surface of query execution. The result
// is stored as typed column arrays (TypedColumn: raw int64 / double /
// string pointers + null masks), never as one boxed Row per tuple. Rows
// arrive one of two ways, each cell written once:
//
//  * a streaming root (scan, filter, project, join) hands over whole
//    RowBatches, appended column-at-a-time (AppendBatch), copying each
//    lane's raw array (a scan's borrowed lanes included) without
//    constructing a Value;
//  * a materialized root (sort, aggregation, a limit over either) is
//    drained without an intermediate batch: the result is reserved for
//    the operator's pending rows, and each output column is gathered
//    straight from where the operator holds it — table cells at the rows
//    a sort recorded, or the operator's own pools (AppendGather).
//
// Row-oriented callers read the lazily built boxed view (rows()), which
// reproduces each Value bit-for-bit from the exact type tags.
//
// String payloads are never copied into a result: a result string is one
// pointer per row into either
//
//  1. a refcounted StringArena *retained* by the result column — the
//     producing batch's own arena or one it retained (projected literals,
//     sort / join / aggregate pools) — which lives exactly as long as the
//     result does; or
//  2. Table storage (plain strings and dictionary entries), valid for the
//     Database's lifetime: tables are never dropped while the catalog
//     lives, and a table a query has read is sealed against appends, so
//     its strings never move.
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

  int num_cols() const { return static_cast<int>(columns_.size()); }
  size_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Appends every selected row of `batch` column-at-a-time: raw lane
  /// values, strings by pointer (retaining the batch's arenas / borrowing
  /// table storage). Steady state allocates only for column growth.
  void AppendBatch(const RowBatch& batch);

  /// Capacity for `rows` more rows in every column.
  void Reserve(size_t rows);

  /// Appends `n` rows whose column c holds the n cells of sources[c]
  /// (see CellSource): strings by pointer, retaining a pool's arenas or
  /// borrowing table storage.
  void AppendGather(const std::vector<CellSource>& sources, size_t n);

  /// Unboxed view of one cell (no allocation).
  CellView At(size_t row, int col) const {
    return columns_[static_cast<size_t>(col)].View(static_cast<uint32_t>(row));
  }
  /// Boxes one cell.
  Value ValueAt(size_t row, int col) const {
    return BoxCellView(At(row, col));
  }
  /// Boxes one full row.
  Row RowAt(size_t row) const;

  const TypedColumn& col(int i) const {
    return columns_[static_cast<size_t>(i)];
  }

  /// Boxed row-oriented view for existing callers, built lazily on first
  /// access and cached. Bit-for-bit identical to what the pre-columnar
  /// drain produced.
  const std::vector<Row>& rows() const;

  /// Moves the boxed view out (building it first if needed), leaving the
  /// columnar storage in place.
  std::vector<Row> TakeRows();

 private:
  std::vector<TypedColumn> columns_;
  size_t num_rows_ = 0;
  mutable std::vector<Row> row_view_;
  mutable bool row_view_built_ = false;
};

}  // namespace ecodb

#endif  // ECODB_EXEC_RESULT_SET_H_
