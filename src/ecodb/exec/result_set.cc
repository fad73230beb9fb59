#include "ecodb/exec/result_set.h"

#include <cassert>

namespace ecodb {

void ResultSet::Reset(const Schema& schema) {
  cols_.resize(static_cast<size_t>(schema.num_fields()));
  for (int c = 0; c < schema.num_fields(); ++c) {
    TypedColumn& col = cols_[static_cast<size_t>(c)];
    col.Reset(schema.field(c).type);
    // Copied result strings (boxed producers, pool-backed lanes) dedup
    // through the arena dictionary: low-cardinality columns (flags,
    // modes, names) store one copy per distinct value.
    if (schema.field(c).type == ValueType::kString) col.EnableDictDedup();
  }
  num_rows_ = 0;
  row_view_.clear();
  row_view_built_ = false;
}

void ResultSet::AppendBatch(const RowBatch& batch) {
  assert(batch.num_cols() == num_cols() && "batch/schema arity mismatch");
  const std::vector<uint32_t>& sel = batch.sel();
  if (sel.empty()) return;
  const int n_cols = num_cols();
  const Table* table = batch.lazy_source();
  // Pool-backed string lanes (nested-loop-join inner rows) die at that
  // operator's Close; everything else a lane can point at is table
  // storage or a refcounted arena the batch holds — safe to borrow once
  // the column retains those arenas.
  const bool stable_lanes = !batch.strings_pool_backed();
  for (int c = 0; c < n_cols; ++c) {
    TypedColumn& dst = cols_[static_cast<size_t>(c)];
    // Lazy scan columns: read the table's typed arrays directly when the
    // declared types agree (they do unless an upstream demote happened),
    // hoisting the per-cell tag dispatch out of the row loop. An active
    // lane takes precedence over the lazy binding, mirroring ViewCell.
    if (table != nullptr && !batch.col_materialized(c) &&
        !batch.lane_active(c)) {
      const Column& src = table->column(c);
      const size_t base = batch.lazy_start();
      if (src.type() == dst.type() && !dst.boxed()) {
        switch (RowBatch::LaneKindFor(src.type())) {
          case RowBatch::LaneKind::kInt64:
            for (uint32_t r : sel) dst.AppendNonNullInt64(src.GetInt(base + r));
            continue;
          case RowBatch::LaneKind::kDouble:
            for (uint32_t r : sel) {
              dst.AppendNonNullDouble(src.GetDouble(base + r));
            }
            continue;
          case RowBatch::LaneKind::kStringRef:
            // Arena handoff's sibling: borrow table storage outright —
            // the bytes outlive every query against this Database
            // (GetString decodes dict-encoded columns to their stable
            // dictionary entries).
            for (uint32_t r : sel) {
              dst.AppendNonNullStringPtr(&src.GetString(base + r));
            }
            continue;
          case RowBatch::LaneKind::kStringCode:
          case RowBatch::LaneKind::kNone:
            break;  // LaneKindFor never yields these
        }
      }
    }
    // Typed lanes with no nulls: same hoisted loops.
    if (batch.lane_active(c)) {
      const RowBatch::TypedLane& l = batch.lane(c);
      if (!l.has_nulls && l.type == dst.type() && !dst.boxed()) {
        switch (l.kind) {
          case RowBatch::LaneKind::kInt64:
            for (uint32_t r : sel) dst.AppendNonNullInt64(l.i64[r]);
            continue;
          case RowBatch::LaneKind::kDouble:
            for (uint32_t r : sel) dst.AppendNonNullDouble(l.f64[r]);
            continue;
          case RowBatch::LaneKind::kStringRef:
            if (stable_lanes) {
              // Arena handoff: keep the producer's arenas alive and take
              // the pointers instead of copying the bytes.
              dst.RetainStorageOf(batch);
              for (uint32_t r : sel) dst.AppendNonNullStringPtr(l.str[r]);
            } else {
              for (uint32_t r : sel) dst.AppendNonNullString(*l.str[r]);
            }
            continue;
          case RowBatch::LaneKind::kStringCode:
            // Dictionary-code lane: decode to table-owned dictionary
            // entries — stable for the Database's lifetime, so borrow
            // them like any other table storage (no retention needed).
            for (uint32_t r : sel) {
              dst.AppendNonNullStringPtr(&l.dict->DictString(l.codes[r]));
            }
            continue;
          case RowBatch::LaneKind::kNone:
            break;
        }
      }
      // Null-carrying string lanes borrow per-cell through the generic
      // loop below; retain up front so AppendStable is legal.
      if (stable_lanes && l.kind == RowBatch::LaneKind::kStringRef &&
          !dst.boxed()) {
        dst.RetainStorageOf(batch);
        for (uint32_t r : sel) dst.AppendStable(batch.ViewCell(c, r));
        continue;
      }
    }
    for (uint32_t r : sel) dst.Append(batch.ViewCell(c, r));
  }
  num_rows_ += sel.size();
  row_view_built_ = false;
}

Row ResultSet::RowAt(size_t row) const {
  Row out;
  out.reserve(cols_.size());
  for (int c = 0; c < num_cols(); ++c) out.push_back(ValueAt(row, c));
  return out;
}

const std::vector<Row>& ResultSet::rows() const {
  if (!row_view_built_) {
    row_view_.clear();
    row_view_.reserve(num_rows_);
    for (size_t r = 0; r < num_rows_; ++r) row_view_.push_back(RowAt(r));
    row_view_built_ = true;
  }
  return row_view_;
}

std::vector<Row> ResultSet::TakeRows() {
  rows();  // ensure built
  row_view_built_ = false;
  return std::move(row_view_);
}

}  // namespace ecodb
