#include "ecodb/exec/typed_column.h"

#include <cassert>
#include <utility>

namespace ecodb {

TypedColumn::TypedColumn(TypedColumn&& o) noexcept { *this = std::move(o); }

TypedColumn& TypedColumn::operator=(TypedColumn&& o) noexcept {
  if (this == &o) return *this;
  // Drop our own state first (releases tracked bytes, detaches our arena).
  if (str_ != nullptr) str_->DetachMemoryTracker();
  TrackReleaseAll();
  type_ = o.type_;
  has_nulls_ = o.has_nulls_;
  dict_mixed_ = o.dict_mixed_;
  dict_ = o.dict_;
  size_ = o.size_;
  i64_ = std::move(o.i64_);
  f64_ = std::move(o.f64_);
  strp_ = std::move(o.strp_);
  str_ = std::move(o.str_);
  retained_ = std::move(o.retained_);
  nulls_ = std::move(o.nulls_);
  tracker_ = o.tracker_;
  tracked_bytes_ = o.tracked_bytes_;
  // The source must not release the bytes we now own.
  o.tracker_ = nullptr;
  o.tracked_bytes_ = 0;
  o.size_ = 0;
  o.has_nulls_ = false;
  return *this;
}

TypedColumn::~TypedColumn() {
  // The arena may be retained by emitted batches that outlive the query's
  // ExecContext (and thus the tracker) — sever its tracker link before it
  // escapes our control.
  if (str_ != nullptr) str_->DetachMemoryTracker();
  TrackReleaseAll();
}

void TypedColumn::Reset(ValueType declared_type) {
  TrackReleaseAll();
  type_ = declared_type;
  has_nulls_ = false;
  dict_mixed_ = false;
  dict_ = nullptr;
  size_ = 0;
  i64_.clear();
  f64_.clear();
  strp_.clear();
  if (RowBatch::LaneKindFor(declared_type) == RowBatch::LaneKind::kStringRef) {
    // A fresh arena unless this column is the sole owner of the old one
    // (emitted batches may still reference the previous query's strings).
    if (str_ == nullptr || str_.use_count() > 1) {
      if (str_ != nullptr) str_->DetachMemoryTracker();
      str_ = std::make_shared<StringArena>();
    } else {
      str_->Clear();
    }
    if (tracker_ != nullptr) str_->set_memory_tracker(tracker_);
  } else {
    if (str_ != nullptr) str_->DetachMemoryTracker();
    str_.reset();
  }
  retained_.clear();
  nulls_.clear();
}

ValueType CellSource::type() const {
  return pool != nullptr ? pool->type() : table->type();
}

bool CellSource::may_hold_nulls() const {
  return pool != nullptr && pool->has_nulls();
}

namespace {

/// Raw destinations of one gather: the array of the cells' storage class
/// and, when the source may hold nulls, the null mask.
struct CellSink {
  int64_t* i64 = nullptr;
  double* f64 = nullptr;
  const std::string** str = nullptr;
  uint8_t* nulls = nullptr;
};

/// Grows the array of storage class `kind` (one of the three) to
/// at + n cells and points a sink at the new ones.
CellSink ExtendCells(RowBatch::LaneKind kind, size_t at, size_t n,
                     std::vector<int64_t>* i64, std::vector<double>* f64,
                     std::vector<const std::string*>* str) {
  CellSink sink;
  switch (kind) {
    case RowBatch::LaneKind::kInt64:
      i64->resize(at + n);
      sink.i64 = i64->data() + at;
      break;
    case RowBatch::LaneKind::kDouble:
      f64->resize(at + n);
      sink.f64 = f64->data() + at;
      break;
    case RowBatch::LaneKind::kStringRef:
      str->resize(at + n);
      sink.str = str->data() + at;
      break;
    case RowBatch::LaneKind::kStringCode:
    case RowBatch::LaneKind::kNone:
      break;  // gather destinations are LaneKindFor kinds
  }
  return sink;
}

template <typename T>
void GatherArray(const T* src, const uint32_t* idx, size_t n, T* dst) {
  for (size_t k = 0; k < n; ++k) dst[k] = src[idx[k]];
}

/// The gather kernel: out[k] = cell k of `src`, for k < n.
void GatherCells(const CellSource& src, size_t n, const CellSink& out) {
  if (n == 0) return;
  const uint32_t* idx = src.idx;
  if (src.pool != nullptr) {
    const TypedColumn& p = *src.pool;
    switch (RowBatch::LaneKindFor(p.type())) {
      case RowBatch::LaneKind::kInt64:
        GatherArray(p.i64().data(), idx, n, out.i64);
        break;
      case RowBatch::LaneKind::kDouble:
        GatherArray(p.f64().data(), idx, n, out.f64);
        break;
      case RowBatch::LaneKind::kStringRef:
        GatherArray(p.strp().data(), idx, n, out.str);
        break;
      case RowBatch::LaneKind::kStringCode:
      case RowBatch::LaneKind::kNone:
        break;  // LaneKindFor never yields these
    }
    if (out.nulls != nullptr) {
      GatherArray(p.nulls().data(), idx, n, out.nulls);
    }
    return;
  }
  const Column& t = *src.table;
  switch (RowBatch::LaneKindFor(t.type())) {
    case RowBatch::LaneKind::kInt64:
      GatherArray(t.ints_data(), idx, n, out.i64);
      break;
    case RowBatch::LaneKind::kDouble:
      GatherArray(t.doubles_data(), idx, n, out.f64);
      break;
    case RowBatch::LaneKind::kStringRef:
      if (t.dict_encoded()) {
        const int32_t* codes = t.codes_data();
        const std::string* entries = &t.DictString(0);
        for (size_t k = 0; k < n; ++k) out.str[k] = entries + codes[idx[k]];
      } else {
        GatherArray(t.string_ptrs_data(), idx, n, out.str);
      }
      break;
    case RowBatch::LaneKind::kStringCode:
    case RowBatch::LaneKind::kNone:
      break;  // LaneKindFor never yields these
  }
}

}  // namespace

void GatherToLane(const CellSource& src, size_t n, RowBatch* out,
                  int out_col) {
  RowBatch::TypedLane* l = out->StartLaneAppend(out_col, src.type());
  const size_t at = l->LaneSize();
  CellSink sink = ExtendCells(l->kind, at, n, &l->i64, &l->f64, &l->str);
  if (src.may_hold_nulls()) {
    if (!l->has_nulls) {
      l->has_nulls = true;
      l->nulls.assign(at, 0);
    }
    l->nulls.resize(at + n);
    sink.nulls = l->nulls.data() + at;
  } else if (l->has_nulls) {
    l->nulls.resize(at + n, 0);
  }
  if (sink.str != nullptr && src.pool != nullptr) {
    out->RetainArena(src.pool->strings());
    for (const StringArenaPtr& a : src.pool->retained_arenas()) {
      out->RetainArena(a);
    }
  }
  GatherCells(src, n, sink);
}

void TypedColumn::AppendGather(const CellSource& src, size_t n) {
  assert(src.type() == type_ && "a source's cells carry the column's type");
  assert(tracker_ == nullptr && "gathered columns are untracked");
  if (n == 0) return;
  const size_t at = size_;
  CellSink sink = ExtendCells(RowBatch::LaneKindFor(type_), at, n, &i64_,
                              &f64_, &strp_);
  nulls_.resize(at + n, 0);
  if (src.may_hold_nulls()) sink.nulls = nulls_.data() + at;
  if (sink.str != nullptr && src.pool == nullptr) {
    NoteStringSource(src.table->dict_encoded() ? src.table : nullptr);
  } else if (sink.str != nullptr) {
    RetainStorageOfColumn(*src.pool);
    if (src.pool->dict_mixed_) {
      dict_mixed_ = true;
    } else if (src.pool->dict_ != nullptr) {
      NoteStringSource(src.pool->dict_);
    }
  }
  GatherCells(src, n, sink);
  for (size_t k = 0; sink.nulls != nullptr && !has_nulls_ && k < n; ++k) {
    has_nulls_ = sink.nulls[k] != 0;
  }
  size_ += static_cast<uint32_t>(n);
}

void TypedColumn::Reserve(size_t n) {
  nulls_.reserve(size_ + n);
  switch (RowBatch::LaneKindFor(type_)) {
    case RowBatch::LaneKind::kInt64:
      i64_.reserve(size_ + n);
      break;
    case RowBatch::LaneKind::kDouble:
      f64_.reserve(size_ + n);
      break;
    case RowBatch::LaneKind::kStringRef:
      strp_.reserve(size_ + n);
      break;
    case RowBatch::LaneKind::kStringCode:
    case RowBatch::LaneKind::kNone:
      break;  // LaneKindFor never yields these
  }
}

void TypedColumn::AppendLane(const RowBatch& batch,
                             const RowBatch::TypedLane& l) {
  const std::vector<uint32_t>& sel = batch.sel();
  const size_t n = sel.size();
  if (n == 0) return;
  assert(l.type == type_ && "a lane's cells carry its column's type");
  const size_t start = size_;
  nulls_.resize(start + n, 0);
  size_t n_null = 0;
  if (l.has_nulls) {
    for (size_t i = 0; i < n; ++i) {
      if (l.nulls[sel[i]] != 0) {
        nulls_[start + i] = 1;
        ++n_null;
      }
    }
    has_nulls_ |= n_null > 0;
  }
  const uint8_t* is_null = nulls_.data() + start;
  // 8 per non-null cell slot plus 1 per null, plus the borrowed string
  // payloads below.
  uint64_t bytes = 8 * static_cast<uint64_t>(n - n_null) + n_null;
  // Numeric cells gather unconditionally, then null slots are zeroed.
  switch (l.kind) {
    case RowBatch::LaneKind::kInt64: {
      const int64_t* v = l.i64_data();
      i64_.resize(start + n);
      int64_t* out = i64_.data() + start;
      for (size_t i = 0; i < n; ++i) out[i] = v[sel[i]];
      for (size_t i = 0; n_null > 0 && i < n; ++i) {
        if (is_null[i]) out[i] = 0;
      }
      break;
    }
    case RowBatch::LaneKind::kDouble: {
      const double* v = l.f64_data();
      f64_.resize(start + n);
      double* out = f64_.data() + start;
      for (size_t i = 0; i < n; ++i) out[i] = v[sel[i]];
      for (size_t i = 0; n_null > 0 && i < n; ++i) {
        if (is_null[i]) out[i] = 0.0;
      }
      break;
    }
    case RowBatch::LaneKind::kStringRef: {
      // Arena handoff: keep the producer's arenas alive and take the
      // pointers instead of copying the bytes.
      RetainStorageOf(batch);
      const std::string* const* v = l.str_data();
      strp_.resize(start + n);
      for (size_t i = 0; i < n; ++i) {
        if (!is_null[i]) strp_[start + i] = v[sel[i]];
      }
      if (n_null < n) NoteStringSource(nullptr);
      break;
    }
    case RowBatch::LaneKind::kStringCode: {
      // Dictionary entries are table-owned and sealed: borrow them like
      // any other table storage.
      const int32_t* v = l.code_data();
      strp_.resize(start + n);
      for (size_t i = 0; i < n; ++i) {
        if (!is_null[i]) strp_[start + i] = &l.dict->DictString(v[sel[i]]);
      }
      if (n_null < n) NoteStringSource(l.dict);
      break;
    }
    case RowBatch::LaneKind::kNone:
      break;
  }
  size_ += static_cast<uint32_t>(n);
  if (tracker_ == nullptr) return;
  // Payload bytes are read only for a tracked pool.
  if (l.kind == RowBatch::LaneKind::kStringRef ||
      l.kind == RowBatch::LaneKind::kStringCode) {
    const std::string* const* cells = strp_.data() + start;
    for (size_t i = 0; i < n; ++i) {
      if (!is_null[i]) bytes += cells[i]->size();
    }
  }
  TrackCharge(bytes);
}

void TypedColumn::AppendColumn(const TypedColumn& src) {
  assert(src.type_ == type_ && "fragments share their pool's type");
  const size_t n = src.size_;
  size_t n_null = 0;
  if (src.has_nulls_) {
    for (uint8_t b : src.nulls_) n_null += b;
    has_nulls_ = true;
  }
  nulls_.insert(nulls_.end(), src.nulls_.begin(), src.nulls_.end());
  uint64_t bytes = 8 * static_cast<uint64_t>(n - n_null) + n_null;
  switch (RowBatch::LaneKindFor(type_)) {
    case RowBatch::LaneKind::kInt64:
      i64_.insert(i64_.end(), src.i64_.begin(), src.i64_.end());
      break;
    case RowBatch::LaneKind::kDouble:
      f64_.insert(f64_.end(), src.f64_.begin(), src.f64_.end());
      break;
    case RowBatch::LaneKind::kStringRef:
      RetainStorageOfColumn(src);
      strp_.insert(strp_.end(), src.strp_.begin(), src.strp_.end());
      for (size_t i = 0; tracker_ != nullptr && i < n; ++i) {
        if (src.strp_[i] != nullptr) bytes += src.strp_[i]->size();
      }
      if (src.dict_mixed_) {
        dict_mixed_ = true;
      } else if (src.dict_ != nullptr) {
        NoteStringSource(src.dict_);
      }
      break;
    case RowBatch::LaneKind::kStringCode:
    case RowBatch::LaneKind::kNone:
      break;  // LaneKindFor never yields these
  }
  size_ += static_cast<uint32_t>(n);
  TrackCharge(bytes);
}

void TypedColumn::AppendImpl(const CellView& v, bool stable_str) {
  const bool null = v.type == ValueType::kNull;
  assert((null || v.type == type_) && "cells carry the declared type");
  if (null) has_nulls_ = true;
  nulls_.push_back(null ? 1 : 0);
  switch (RowBatch::LaneKindFor(type_)) {
    case RowBatch::LaneKind::kInt64:
      i64_.push_back(null ? 0 : v.i);
      TrackCharge(null ? 1 : 8);
      break;
    case RowBatch::LaneKind::kDouble:
      f64_.push_back(null ? 0.0 : v.d);
      TrackCharge(null ? 1 : 8);
      break;
    case RowBatch::LaneKind::kStringRef:
      if (null) {
        strp_.push_back(nullptr);
        TrackCharge(1);
        break;
      }
      NoteStringSource(nullptr);
      if (stable_str) {
        strp_.push_back(v.s);
        TrackCharge(8 + v.s->size());  // borrowed payload, not in our arena
      } else {
        strp_.push_back(str_->Intern(*v.s));
        TrackCharge(8);  // payload charged by the arena's tracker
      }
      break;
    case RowBatch::LaneKind::kStringCode:
    case RowBatch::LaneKind::kNone:
      break;  // LaneKindFor never yields these
  }
  ++size_;
}

// --- InputPool ---

namespace {

Status SourceChanged() {
  return Status::Internal(
      "breaker input columns changed source or do not share one scan");
}

/// String payload bytes of the selected cells of borrowed lane `l`.
uint64_t BorrowedPayloadBytes(const RowBatch::TypedLane& l,
                              const std::vector<uint32_t>& sel) {
  uint64_t bytes = 0;
  if (l.kind == RowBatch::LaneKind::kStringCode) {
    const int32_t* codes = l.code_data();
    for (uint32_t r : sel) bytes += l.dict->DictString(codes[r]).size();
  } else if (l.kind == RowBatch::LaneKind::kStringRef) {
    const std::string* const* v = l.str_data();
    for (uint32_t r : sel) bytes += v[r]->size();
  }
  return bytes;
}

}  // namespace

InputPool& InputPool::operator=(InputPool&& o) noexcept {
  if (this == &o) return *this;
  Clear();
  cols_ = std::move(o.cols_);
  rows_ = std::move(o.rows_);
  n_ = o.n_;
  bound_ = o.bound_;
  reserve_ = o.reserve_;
  ref_bytes_ = o.ref_bytes_;
  tracker_ = o.tracker_;
  // The source must not release the bytes we now own.
  o.tracker_ = nullptr;
  o.Clear();
  return *this;
}

void InputPool::Reset(const Schema& schema, MemoryTracker* tracker) {
  Clear();
  tracker_ = tracker;
  cols_.resize(static_cast<size_t>(schema.num_fields()));
  for (int c = 0; c < schema.num_fields(); ++c) {
    TypedColumn& owned = cols_[static_cast<size_t>(c)].owned;
    owned.Reset(schema.field(c).type);
    owned.set_memory_tracker(tracker);
  }
}

void InputPool::Clear() {
  if (tracker_ != nullptr) tracker_->Release(ref_bytes_);
  ref_bytes_ = 0;
  cols_.clear();  // TypedColumn destructors release their own bytes
  rows_.clear();
  rows_.shrink_to_fit();
  n_ = 0;
  bound_ = false;
  reserve_ = SIZE_MAX;
}

template <typename TableOf>
void InputPool::Bind(TableOf table_of) {
  if (bound_) return;
  bound_ = true;
  bool by_reference = false;
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].table = table_of(c);
    by_reference |= cols_[c].table != nullptr;
    if (cols_[c].table == nullptr && reserve_ != SIZE_MAX) {
      cols_[c].owned.Reserve(reserve_);
    }
  }
  if (by_reference && reserve_ != SIZE_MAX) rows_.reserve(reserve_);
}

Status InputPool::Append(const RowBatch& batch) {
  const std::vector<uint32_t>& sel = batch.sel();
  const size_t n = sel.size();
  if (n == 0) return Status::OK();
  assert(static_cast<size_t>(batch.num_cols()) == cols_.size());
  Bind([&batch](size_t c) { return batch.lane(static_cast<int>(c)).table; });
  const RowBatch::TypedLane* scan = nullptr;  // the lanes' one scan
  uint64_t bytes = 0;
  for (size_t c = 0; c < cols_.size(); ++c) {
    const RowBatch::TypedLane& l = batch.lane(static_cast<int>(c));
    if (l.table != cols_[c].table) return SourceChanged();
    if (l.table == nullptr) {
      cols_[c].owned.AppendLane(batch, l);
      continue;
    }
    if (scan == nullptr) scan = &l;
    if (l.table_row != scan->table_row) return SourceChanged();
    bytes += 8 * static_cast<uint64_t>(n) + BorrowedPayloadBytes(l, sel);
  }
  if (scan != nullptr) {
    const size_t at = rows_.size();
    rows_.resize(at + n);
    for (size_t k = 0; k < n; ++k) rows_[at + k] = scan->table_row + sel[k];
  }
  n_ += n;
  ref_bytes_ += bytes;
  if (tracker_ != nullptr) tracker_->Charge(bytes);
  return Status::OK();
}

Status InputPool::AppendPool(const InputPool& frag) {
  if (frag.n_ == 0) return Status::OK();
  assert(frag.cols_.size() == cols_.size());
  Bind([&frag](size_t c) { return frag.cols_[c].table; });
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (frag.cols_[c].table != cols_[c].table) return SourceChanged();
    if (cols_[c].table == nullptr) {
      cols_[c].owned.AppendColumn(frag.cols_[c].owned);
    }
  }
  rows_.insert(rows_.end(), frag.rows_.begin(), frag.rows_.end());
  n_ += frag.n_;
  ref_bytes_ += frag.ref_bytes_;
  if (tracker_ != nullptr) tracker_->Charge(frag.ref_bytes_);
  return Status::OK();
}

void InputPool::Sources(const uint32_t* pos, size_t n,
                        std::vector<CellSource>* out) {
  out->resize(cols_.size());
  if (!rows_.empty()) {
    gather_rows_.resize(n);
    for (size_t k = 0; k < n; ++k) gather_rows_[k] = rows_[pos[k]];
  }
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (cols_[c].table != nullptr) {
      (*out)[c] = CellSource{nullptr, cols_[c].table, gather_rows_.data()};
    } else {
      (*out)[c] = CellSource{&cols_[c].owned, nullptr, pos};
    }
  }
}

}  // namespace ecodb
