#include "ecodb/exec/row_batch.h"

namespace ecodb {

void RowBatch::BorrowTableRows(const Table& table, size_t start, size_t n) {
  assert(table.sealed() && "plain strings are pinned by Table::Seal");
  for (int c = 0; c < table.num_columns(); ++c) {
    const Column& src = table.column(c);
    TypedLane& l = lanes_[static_cast<size_t>(c)];
    l.type = src.type();
    l.kind = LaneKindFor(src.type());
    if (l.kind == LaneKind::kStringRef && src.dict_encoded()) {
      l.kind = LaneKind::kStringCode;
      l.dict = &src;
    }
    l.table = &src;
    l.table_row = static_cast<uint32_t>(start);
  }
  num_rows_ = n;
  ExtendIdentitySel(0);
}

void RowBatch::AppendGather(int i, const RowBatch& src, int src_col,
                            const uint32_t* rows, size_t n) {
  const TypedLane& s = src.lane(src_col);
  const uint8_t* src_nulls = s.has_nulls ? s.nulls.data() : nullptr;
  if (s.kind == LaneKind::kStringCode) {
    if (TypedLane* l = StartCodeLaneAppend(i, s.dict)) {
      const int32_t* v = s.code_data();
      for (size_t k = 0; k < n; ++k) l->codes.push_back(v[rows[k]]);
      l->GatherNulls(src_nulls, rows, n);
      return;
    }
  }
  TypedLane* l = StartLaneAppend(i, s.type);
  switch (s.kind) {
    case LaneKind::kInt64: {
      const int64_t* v = s.i64_data();
      for (size_t k = 0; k < n; ++k) l->i64.push_back(v[rows[k]]);
      break;
    }
    case LaneKind::kDouble: {
      const double* v = s.f64_data();
      for (size_t k = 0; k < n; ++k) l->f64.push_back(v[rows[k]]);
      break;
    }
    case LaneKind::kStringRef: {
      // The pointers target table storage or arenas `src` keeps alive;
      // keep them alive for this batch too.
      RetainStringStorage(src);
      const std::string* const* v = s.str_data();
      for (size_t k = 0; k < n; ++k) l->str.push_back(v[rows[k]]);
      break;
    }
    case LaneKind::kStringCode: {
      // Another dictionary than the output lane's: decode to the
      // table-stable entries.
      const int32_t* v = s.code_data();
      for (size_t k = 0; k < n; ++k) {
        const uint32_t r = rows[k];
        l->str.push_back(s.IsNullAt(r) ? nullptr
                                       : &s.dict->DictString(v[r]));
      }
      break;
    }
    case LaneKind::kNone:
      break;
  }
  l->GatherNulls(src_nulls, rows, n);
}

void RowBatch::DecodeCodeLane(TypedLane* l) {
  l->str.resize(l->codes.size());
  for (uint32_t r = 0; r < l->codes.size(); ++r) {
    l->str[r] = l->IsNullAt(r) ? nullptr : &l->dict->DictString(l->codes[r]);
  }
  l->codes.clear();
  l->dict = nullptr;
  l->kind = LaneKind::kStringRef;
}

}  // namespace ecodb
