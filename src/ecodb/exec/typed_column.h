// TypedColumn: one column of a contiguous column-major pool — the hash
// join's build side, the nested-loop join's inner side, SortOp's
// materialized input and keys, HashAgg's result columns and the
// ResultSet's storage all use it. Cells are stored typed — raw int64 /
// double / string pointers plus a byte null mask — and every non-null
// cell carries the declared type tag, so a cell round-trips through the
// pool bit-exactly. A column of declared type kNull stores only nulls.
//
// Batch input enters through AppendLane, one lane at a
// time, read straight from the lane's array (borrowed by a scan, owned by
// the batch, or an expression's evaluated lane). The destination grows once and the memory tracker is
// charged once per batch, with the same logical bytes the per-cell
// appends charge.
//
// String cells are one `const std::string*` per row. The pointee is
// either (a) bytes this column interned into its own refcounted arena
// (Append, the copy path), or (b) *borrowed* storage — table columns and
// their dictionaries, or arenas the column retained. AppendLane
// always borrows: table strings, dictionary entries and the strings of
// arena-backed lanes, retaining the batch's arenas. Gather-style emission
// hands the same pointers to output batches, which retain the column's
// own arena plus everything it borrowed.

#ifndef ECODB_EXEC_TYPED_COLUMN_H_
#define ECODB_EXEC_TYPED_COLUMN_H_

#include <cstdint>
#include <vector>

#include "ecodb/exec/row_batch.h"
#include "ecodb/storage/string_arena.h"
#include "ecodb/storage/value.h"
#include "ecodb/util/memory_tracker.h"

namespace ecodb {

class TypedColumn {
 public:
  TypedColumn() = default;
  // Move-only once accounting entered the picture: a copy would double-
  // release its tracked bytes. Nothing in-tree copies columns.
  TypedColumn(TypedColumn&& o) noexcept;
  TypedColumn& operator=(TypedColumn&& o) noexcept;
  TypedColumn(const TypedColumn&) = delete;
  TypedColumn& operator=(const TypedColumn&) = delete;
  ~TypedColumn();

  void Reset(ValueType declared_type);

  /// Optional logical-byte accounting (operator scratch pools only —
  /// never ResultSet columns, which outlive the query's ExecContext).
  /// Every appended cell charges its LogicalCellBytes: 8 per cell slot
  /// plus string payload, the latter through the arena's own tracker for
  /// copied strings and directly for borrowed ones, so the total is the
  /// same on either path. Call after Reset (the tracker survives Reset).
  void set_memory_tracker(MemoryTracker* tracker) {
    tracker_ = tracker;
    if (str_ != nullptr) str_->set_memory_tracker(tracker);
  }

  /// Appends a cell (NULL or of the declared type), copying string
  /// payloads into this column's arena.
  void Append(const CellView& v) { AppendImpl(v, /*stable_str=*/false); }

  /// Appends a cell whose string payload (if any) is guaranteed by the
  /// caller to stay alive and at the same address for this column's
  /// lifetime: table storage, or an arena the caller retained into this
  /// column via RetainStorageOf. Stores the pointer, copies nothing.
  void AppendStable(const CellView& v) { AppendImpl(v, /*stable_str=*/true); }

  /// Appends the cells of `lane` at `batch`'s selection (a lane of this
  /// column's declared type, indexed like `batch`'s rows — one of its
  /// columns or an expression evaluated over it), in selection order: the
  /// cells and tracked bytes of one Append per cell, except that every
  /// string is borrowed (retaining the batch's arenas) rather than copied.
  void AppendLane(const RowBatch& batch, const RowBatch::TypedLane& lane);

  /// Appends every cell of `src` (a worker-built fragment of the same
  /// pool and type) with the tracked bytes of one Append per cell. String
  /// cells are carried by pointer: this column retains `src`'s own arena
  /// plus everything `src` borrowed.
  void AppendColumn(const TypedColumn& src);

  /// Unboxed view of entry `idx` (string views point into the arena /
  /// borrowed storage).
  CellView View(uint32_t idx) const {
    if (has_nulls_ && nulls_[idx]) return CellView::Null();
    switch (RowBatch::LaneKindFor(type_)) {
      case RowBatch::LaneKind::kInt64:
        return CellView::Int64(i64_[idx], type_);
      case RowBatch::LaneKind::kDouble:
        return CellView::Double(f64_[idx]);
      case RowBatch::LaneKind::kStringRef:
        return CellView::String(strp_[idx]);
      case RowBatch::LaneKind::kStringCode:
      case RowBatch::LaneKind::kNone:
        break;  // LaneKindFor never yields these
    }
    return CellView::Null();
  }

  /// Typed non-null appends for dense bulk gathers, hoisting the per-cell
  /// tag dispatch out of the row loop. Legal only when the value matches
  /// the declared type's storage class.
  void AppendNonNullInt64(int64_t v) {
    nulls_.push_back(0);
    i64_.push_back(v);
    ++size_;
    TrackCharge(8);
  }
  void AppendNonNullDouble(double v) {
    nulls_.push_back(0);
    f64_.push_back(v);
    ++size_;
    TrackCharge(8);
  }

  /// Retains every arena that keeps `batch`'s string pointers valid, so
  /// AppendStable may borrow them. A no-op for batches with no arenas
  /// (scan batches — their strings live in table storage).
  void RetainStorageOf(const RowBatch& batch) {
    RetainArena(batch.own_arena_handle());
    for (const StringArenaPtr& a : batch.retained_arenas()) RetainArena(a);
  }

  /// Retains every arena keeping `col`'s string pointers valid (its own
  /// interned payload plus everything it borrowed), so AppendStable may
  /// carry `col`'s cells into this column by pointer. Used when the
  /// morsel coordinator absorbs a worker-built fragment column into the
  /// operator's global column without re-copying string bytes.
  void RetainStorageOfColumn(const TypedColumn& col) {
    RetainArena(col.strings());
    for (const StringArenaPtr& a : col.retained_arenas()) RetainArena(a);
  }

  /// Gathers entries `indices[0..n)` into column `out_col` of `out`,
  /// append-style (strings by pointer; `out` retains this column's own
  /// arena plus everything it borrowed, so the pointers survive even the
  /// owning operator's teardown; null masks backfilled against whatever
  /// the lane already holds). The shared emission path of join match
  /// flushing, columnar sort output and columnar aggregate emission.
  void GatherInto(RowBatch* out, int out_col, const uint32_t* indices,
                  size_t n) const;

  ValueType type() const { return type_; }
  uint32_t size() const { return size_; }
  /// The table dictionary every non-null string cell of this column is
  /// an entry of — cells that AppendLane took from a code lane or a
  /// dict-encoded table column of one Column — or nullptr when there is
  /// none (no string cells yet, other string sources). Entries of a
  /// sorted dictionary order like their codes (Column::DictCodeOf).
  const Column* string_dict() const { return dict_mixed_ ? nullptr : dict_; }
  bool has_nulls() const { return has_nulls_; }
  const std::vector<int64_t>& i64() const { return i64_; }
  const std::vector<double>& f64() const { return f64_; }
  /// Refcounted handle to this column's own interned-string payload;
  /// borrowed arenas are in retained_arenas().
  const StringArenaPtr& strings() const { return str_; }
  const std::vector<StringArenaPtr>& retained_arenas() const {
    return retained_;
  }
  bool IsNullAt(uint32_t idx) const { return has_nulls_ && nulls_[idx]; }

 private:
  void AppendImpl(const CellView& v, bool stable_str);
  /// Records where the non-null string cells just appended point:
  /// entries of `dict`, or (nullptr) anywhere else.
  void NoteStringSource(const Column* dict) {
    if (dict == nullptr || (dict_ != nullptr && dict_ != dict)) {
      dict_mixed_ = true;
    } else {
      dict_ = dict;
    }
  }
  // Linear-scan dedup: in-tree producers expose a handful of
  // query-lifetime arenas (a join pool's, a sort column's own), so the
  // retained list stays O(1) per column. A producer minting a fresh
  // arena per batch would make this quadratic over the consume loop —
  // switch to a hash set if one ever appears.
  void RetainArena(const StringArenaPtr& a) {
    if (a == nullptr || a->empty()) return;
    for (const StringArenaPtr& r : retained_) {
      if (r == a) return;
    }
    retained_.push_back(a);
  }
  void TrackCharge(uint64_t bytes) {
    if (tracker_ != nullptr) {
      tracker_->Charge(bytes);
      tracked_bytes_ += bytes;
    }
  }
  /// Releases this column's own tracked bytes (not the arena's — the
  /// arena releases its payload charges itself on Clear/Detach).
  void TrackReleaseAll() {
    if (tracker_ != nullptr) {
      tracker_->Release(tracked_bytes_);
    }
    tracked_bytes_ = 0;
  }

  ValueType type_ = ValueType::kNull;
  bool has_nulls_ = false;
  bool dict_mixed_ = false;        ///< string cells of several sources
  const Column* dict_ = nullptr;   ///< see string_dict()
  uint32_t size_ = 0;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<const std::string*> strp_;  ///< one pointer per row
  StringArenaPtr str_;                    ///< owned (interned) bytes
  std::vector<StringArenaPtr> retained_;  ///< borrowed bytes kept alive
  std::vector<uint8_t> nulls_;
  MemoryTracker* tracker_ = nullptr;
  uint64_t tracked_bytes_ = 0;  ///< column-side charges (excludes arena's)
};

}  // namespace ecodb

#endif  // ECODB_EXEC_TYPED_COLUMN_H_
