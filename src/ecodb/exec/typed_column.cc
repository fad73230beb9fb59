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

void TypedColumn::GatherInto(RowBatch* out, int out_col,
                             const uint32_t* indices, size_t n) const {
  RowBatch::TypedLane* lane = out->StartLaneAppend(out_col, type_);
  switch (RowBatch::LaneKindFor(type_)) {
    case RowBatch::LaneKind::kInt64:
      for (size_t i = 0; i < n; ++i) lane->i64.push_back(i64_[indices[i]]);
      break;
    case RowBatch::LaneKind::kDouble:
      for (size_t i = 0; i < n; ++i) lane->f64.push_back(f64_[indices[i]]);
      break;
    case RowBatch::LaneKind::kStringRef:
      // The emitted pointers target this column's own arena, borrowed
      // arenas, or table storage; hand `out` every refcounted handle.
      out->RetainArena(str_);
      for (const StringArenaPtr& a : retained_) out->RetainArena(a);
      for (size_t i = 0; i < n; ++i) lane->str.push_back(strp_[indices[i]]);
      break;
    case RowBatch::LaneKind::kStringCode:
    case RowBatch::LaneKind::kNone:
      break;  // LaneKindFor never yields these
  }
  lane->GatherNulls(has_nulls_ ? nulls_.data() : nullptr, indices, n);
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
        if (is_null[i]) continue;
        const std::string* s = v[sel[i]];
        strp_[start + i] = s;
        bytes += s->size();
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
        if (is_null[i]) continue;
        const std::string* s = &l.dict->DictString(v[sel[i]]);
        strp_[start + i] = s;
        bytes += s->size();
      }
      if (n_null < n) NoteStringSource(l.dict);
      break;
    }
    case RowBatch::LaneKind::kNone:
      break;
  }
  size_ += static_cast<uint32_t>(n);
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
      for (const std::string* s : src.strp_) {
        if (s != nullptr) bytes += s->size();
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

}  // namespace ecodb
