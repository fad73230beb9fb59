// TypedColumn: one column of a contiguous column-major pool — the hash
// join's build side, the nested-loop join's inner side, SortOp's owned
// input columns and keys, HashAgg's result columns and the ResultSet's
// storage all use it. Cells are stored typed — raw int64 / double /
// string pointers plus a byte null mask — and every non-null cell
// carries the declared type tag, so a cell round-trips through the pool
// bit-exactly. A column of declared type kNull stores only nulls.
//
// Batch input enters through AppendLane, one lane at a time, read
// straight from the lane's array (borrowed by a scan, owned by the batch,
// or an expression's evaluated lane). The destination grows once and the
// memory tracker is charged once per batch, with the same logical bytes
// the per-cell appends charge.
//
// String cells are one `const std::string*` per row. The pointee is
// either (a) bytes this column interned into its own refcounted arena
// (Append, the copy path), or (b) *borrowed* storage — table columns and
// their dictionaries, or arenas the column retained. AppendLane
// always borrows: table strings, dictionary entries and the strings of
// arena-backed lanes, retaining the batch's arenas.
//
// Materialized output leaves through one gather kernel. A CellSource
// names the cells one column contributes to a gather: entries of a
// TypedColumn, or — held by reference — rows of a sealed table Column
// (InputPool, SortOp's input, keeps scan columns that way). The kernel
// reads each cell once and writes it either into a batch lane
// (GatherToLane) or onto the end of a TypedColumn (AppendGather, the
// ResultSet's columns), decoding dictionary codes to their table-owned
// entries. Destinations retain the source column's own arena plus
// everything it borrowed, so the pointers survive even the owning
// operator's teardown.

#ifndef ECODB_EXEC_TYPED_COLUMN_H_
#define ECODB_EXEC_TYPED_COLUMN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "ecodb/exec/row_batch.h"
#include "ecodb/storage/schema.h"
#include "ecodb/storage/string_arena.h"
#include "ecodb/storage/value.h"
#include "ecodb/util/memory_tracker.h"
#include "ecodb/util/status.h"

namespace ecodb {

class TypedColumn;

/// The cells one column contributes to an n-cell gather: entries
/// idx[0..n) of `pool`, or, held by reference, rows idx[0..n) of the
/// sealed table Column `table` (whose cells are never null).
struct CellSource {
  const TypedColumn* pool = nullptr;
  const Column* table = nullptr;
  const uint32_t* idx = nullptr;

  ValueType type() const;
  bool may_hold_nulls() const;
};

/// Appends the n cells of `src` densely to column `out_col` of `out`
/// (strings by pointer, codes decoded to their dictionary entries, null
/// masks backfilled against whatever the lane already holds).
void GatherToLane(const CellSource& src, size_t n, RowBatch* out,
                  int out_col);

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

  /// Gathers entries `indices[0..n)` into column `out_col` of `out`
  /// (GatherToLane over this column): the emission path of join match
  /// flushing.
  void GatherInto(RowBatch* out, int out_col, const uint32_t* indices,
                  size_t n) const {
    GatherToLane(CellSource{this, nullptr, indices}, n, out, out_col);
  }

  /// Appends the n cells of `src` (of this column's type), for result
  /// columns filled straight from an operator's state. Untracked columns
  /// only: ResultSet columns outlive the query's tracker.
  void AppendGather(const CellSource& src, size_t n);

  /// Capacity for `n` more cells, so appends up to that many never regrow.
  void Reserve(size_t n);

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
  const std::vector<const std::string*>& strp() const { return strp_; }
  const std::vector<uint8_t>& nulls() const { return nulls_; }
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

/// A pipeline breaker's materialized input (SortOp's), held by reference
/// where the input allows. A column whose lanes a scan lends is kept as
/// its table Column plus one table row per entry. Every borrowed lane of
/// a batch comes from one scan — joins, aggregates and computed
/// projections emit owned lanes — so one row vector serves all such
/// columns. Only the other columns are appended to TypedColumns. The
/// first non-empty batch fixes which columns are held by reference.
///
/// The memory tracker is charged, per batch, what TypedColumn::AppendLane
/// would charge for every column: 8 per non-null cell, 1 per null, plus
/// string payload. The logical footprint does not depend on how the pool
/// holds a column.
class InputPool {
 public:
  InputPool() = default;
  InputPool(InputPool&& o) noexcept { *this = std::move(o); }
  InputPool& operator=(InputPool&& o) noexcept;
  InputPool(const InputPool&) = delete;
  InputPool& operator=(const InputPool&) = delete;
  ~InputPool() { Clear(); }

  /// Empties the pool and shapes it to `schema`; `tracker` (nullable)
  /// is charged as described above.
  void Reset(const Schema& schema, MemoryTracker* tracker);
  /// Releases every entry and its tracked bytes.
  void Clear();

  /// Capacity for `n` entries (SIZE_MAX: unknown, none), taken once the
  /// first input shows which columns are held by reference.
  void Reserve(size_t n) { reserve_ = n; }

  /// Appends `batch`'s selected rows. Fails if a column's source changes
  /// across batches, or its borrowed lanes are not rows of one scan (no
  /// operator emits either).
  Status Append(const RowBatch& batch);
  /// Appends a fragment of the same schema (a morsel worker's, built
  /// untracked), charging what Append charged for its batches.
  Status AppendPool(const InputPool& frag);

  size_t size() const { return n_; }
  /// Fills out[c] with column c's share of a gather of entries
  /// pos[0..n): owned columns read at `pos`, by-reference columns at the
  /// entries' table rows, looked up once for all of them into scratch
  /// that stays valid until the next call.
  void Sources(const uint32_t* pos, size_t n, std::vector<CellSource>* out);

 private:
  /// On the first input: holds column c by reference when table_of(c)
  /// names its table Column, and applies the reservation.
  template <typename TableOf>
  void Bind(TableOf table_of);

  struct Col {
    const Column* table = nullptr;  ///< held by reference, or nullptr
    TypedColumn owned;              ///< otherwise
  };
  std::vector<Col> cols_;
  std::vector<uint32_t> rows_;  ///< table row of each entry
  std::vector<uint32_t> gather_rows_;  ///< Sources' table-row scratch
  size_t n_ = 0;
  bool bound_ = false;
  size_t reserve_ = SIZE_MAX;
  uint64_t ref_bytes_ = 0;  ///< logical bytes of the by-reference columns
  MemoryTracker* tracker_ = nullptr;
};

}  // namespace ecodb

#endif  // ECODB_EXEC_TYPED_COLUMN_H_
