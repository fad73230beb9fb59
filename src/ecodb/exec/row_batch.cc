#include "ecodb/exec/row_batch.h"

namespace ecodb {

void RowBatch::BorrowTableRows(const Table& table, size_t start, size_t n) {
  assert(table.sealed() && "plain strings are pinned by Table::Seal");
  for (int c = 0; c < table.num_columns(); ++c) {
    const Column& src = table.column(c);
    TypedLane& l = lanes_[static_cast<size_t>(c)];
    l.type = src.type();
    l.kind = LaneKindFor(src.type());
    switch (l.kind) {
      case LaneKind::kInt64:
        l.borrowed = src.ints_data() + start;
        break;
      case LaneKind::kDouble:
        l.borrowed = src.doubles_data() + start;
        break;
      case LaneKind::kStringRef:
        if (src.dict_encoded()) {
          l.kind = LaneKind::kStringCode;
          l.dict = &src;
          l.borrowed = src.codes_data() + start;
        } else {
          l.borrowed = src.string_ptrs_data() + start;
        }
        break;
      case LaneKind::kStringCode:
      case LaneKind::kNone:
        break;  // tables are NOT NULL and typed by construction
    }
  }
  num_rows_ = n;
  ExtendIdentitySel(0);
}

void RowBatch::DemoteLaneDense(int i) {
  const size_t c = static_cast<size_t>(i);
  TypedLane& l = lanes_[c];
  if (l.kind == LaneKind::kNone) return;
  const size_t n = l.LaneSize();
  std::vector<Value>& dst = cols_[c];
  dst.clear();
  dst.reserve(n);
  for (uint32_t r = 0; r < n; ++r) dst.push_back(BoxCellView(l.ViewAt(r)));
  l.Clear();
  filled_[c] = 1;
}

void RowBatch::AppendCellDense(int i, ValueType declared, const CellView& v,
                               bool stable_str) {
  const bool null = v.is_null();
  TypedLane* l = nullptr;
  if (null || v.type == declared) l = StartLaneAppend(i, declared);
  if (l == nullptr) {
    // Tag mismatch, unrepresentable type, or the column is already boxed.
    if (lane_active(i)) DemoteLaneDense(i);
    cols_[static_cast<size_t>(i)].push_back(BoxCellView(v));
    return;
  }
  if (null && !l->has_nulls) {
    l->has_nulls = true;
    l->nulls.assign(l->LaneSize(), 0);
  }
  switch (l->kind) {
    case LaneKind::kInt64:
      l->i64.push_back(null ? 0 : v.i);
      break;
    case LaneKind::kDouble:
      l->f64.push_back(null ? 0.0 : v.d);
      break;
    case LaneKind::kStringRef:
      l->str.push_back(null ? nullptr
                            : (stable_str ? v.s : arena()->Intern(*v.s)));
      break;
    case LaneKind::kStringCode:
      // StartLaneAppend never hands out a code lane (kind mismatch with
      // LaneKindFor(kString) demotes it first); unreachable.
      break;
    case LaneKind::kNone:
      break;
  }
  if (l->has_nulls) l->nulls.push_back(null ? 1 : 0);
}

void RowBatch::MaterializeRow(uint32_t r, Row* out) const {
  out->clear();
  out->reserve(cols_.size());
  for (int c = 0; c < num_cols(); ++c) out->push_back(CellValue(c, r));
}

void RowBatch::EnsureCol(int i) const {
  if (!lane_active(i)) return;
  // Box only the live positions of the lane.
  const size_t c = static_cast<size_t>(i);
  const TypedLane& l = lanes_[c];
  std::vector<Value>& dst = cols_[c];
  dst.clear();
  dst.resize(num_rows_);
  for (uint32_t r : sel_) dst[r] = BoxCellView(l.ViewAt(r));
  filled_[c] = 1;
}

}  // namespace ecodb
