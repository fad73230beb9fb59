// RowBatch: the unit of vectorized execution. A batch holds up to
// kDefaultBatchRows tuples in column-major order plus a selection vector
// of the row indexes that are logically alive. Operators communicate by
// filling / narrowing batches, which amortizes the per-tuple virtual-call,
// copy and accounting overhead of tuple-at-a-time pulls across ~1k tuples.
//
// A column of a batch lives in one of two representations:
//
//  1. *Typed lane*: raw int64 / double / string-pointer / dictionary-code
//     arrays with a byte-per-row null mask. A lane is either *borrowed* —
//     scans point it at the table's own arrays for the batch's row range,
//     copying nothing — or *owned*, appended to by gather-style producers
//     (join match emission, typed projections, pool emission). Readers
//     see one array either way (TypedLane::i64_data() and friends).
//     Kernels read lanes directly; boxed Values are only manufactured if
//     a slow-path consumer touches the column.
//  2. *Boxed*: a std::vector<Value> (AppendRow producers, generic
//     expression results, and the on-demand boxing of a lane).
//
// ViewCell() exposes either representation as an unboxed CellView, which
// is how typed kernels (hashing, key equality, comparisons, aggregation)
// touch cells without allocating.
//
// Conventions:
//  * `sel()` holds ascending physical row indexes; only those positions of
//    each column are meaningful. Producers that emit dense output (scans,
//    joins) fill an identity selection; filters narrow it in place.
//  * Batches are reused across NextBatch calls; Reset() keeps column and
//    lane capacity so steady-state execution does not allocate.
//  * Borrowed lanes and lane string pointers reference storage owned by
//    one of: the table (sealed once a query reads it, so it never moves);
//    a refcounted StringArena — a batch that gathers string pointers out
//    of another batch or an arena-backed column *retains* the source
//    arenas (RetainArena / RetainStringStorage), so those bytes stay
//    alive even after the source batch is Reset or the owning operator
//    Closes; or an operator-owned pool frozen until that operator's Close
//    (the nested-loop join's materialized inner rows), which is safe
//    because every batch is consumed before the tree closes. Producers
//    that must copy an unstable string (one living in a boxed Value of a
//    transient batch) intern it into this batch's own arena instead of
//    falling back to boxed output.

#ifndef ECODB_EXEC_ROW_BATCH_H_
#define ECODB_EXEC_ROW_BATCH_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ecodb/storage/string_arena.h"
#include "ecodb/storage/table.h"
#include "ecodb/storage/value.h"

namespace ecodb {

class RowBatch {
 public:
  /// Default number of tuples per batch (the classic vector size: large
  /// enough to amortize per-batch overhead, small enough to stay
  /// cache-resident).
  static constexpr size_t kDefaultBatchRows = 1024;

  /// Physical storage class of a typed lane. kStringCode is a
  /// dictionary-code lane: int32 codes into a table Column's sorted
  /// dictionary. It views/boxes exactly like a string lane (ViewAt
  /// decodes to the dict entry's stable, table-owned address — no arena
  /// retention needed), but code-aware consumers (predicates, hashing,
  /// group-by, sort) read the codes directly and never touch payload
  /// bytes.
  enum class LaneKind : uint8_t {
    kNone,
    kInt64,
    kDouble,
    kStringRef,
    kStringCode
  };

  /// One typed column lane. `type` is the exact Value type tag cells box
  /// back to (kInt64/kDate/kBool share the i64 array). `nulls` is a
  /// byte-per-row null mask, only consulted when has_nulls is set.
  ///
  /// Cells are owned (producers append to the vector of the lane's kind)
  /// or borrowed: `borrowed` then points at row 0 of this batch inside a
  /// table array and the vectors stay empty. Readers go through the
  /// *_data() pointers, which resolve to whichever holds the cells. A
  /// borrowed lane has no nulls and is never appended to.
  struct TypedLane {
    LaneKind kind = LaneKind::kNone;
    ValueType type = ValueType::kNull;
    bool has_nulls = false;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<const std::string*> str;
    std::vector<int32_t> codes;          ///< kStringCode cells
    const Column* dict = nullptr;        ///< kStringCode decode source
    std::vector<uint8_t> nulls;
    const void* borrowed = nullptr;      ///< table cells, or nullptr

    void Clear() {
      kind = LaneKind::kNone;
      type = ValueType::kNull;
      has_nulls = false;
      i64.clear();
      f64.clear();
      str.clear();
      codes.clear();
      dict = nullptr;
      nulls.clear();
      borrowed = nullptr;
    }
    const int64_t* i64_data() const {
      return borrowed != nullptr ? static_cast<const int64_t*>(borrowed)
                                 : i64.data();
    }
    const double* f64_data() const {
      return borrowed != nullptr ? static_cast<const double*>(borrowed)
                                 : f64.data();
    }
    const std::string* const* str_data() const {
      return borrowed != nullptr
                 ? static_cast<const std::string* const*>(borrowed)
                 : str.data();
    }
    const int32_t* code_data() const {
      return borrowed != nullptr ? static_cast<const int32_t*>(borrowed)
                                 : codes.data();
    }
    /// Number of cells appended so far (dense producers; owned lanes).
    size_t LaneSize() const {
      switch (kind) {
        case LaneKind::kInt64:
          return i64.size();
        case LaneKind::kDouble:
          return f64.size();
        case LaneKind::kStringRef:
          return str.size();
        case LaneKind::kStringCode:
          return codes.size();
        case LaneKind::kNone:
          break;
      }
      return 0;
    }
    bool IsNullAt(uint32_t r) const { return has_nulls && nulls[r] != 0; }
    CellView ViewAt(uint32_t r) const {
      if (IsNullAt(r)) return CellView::Null();
      switch (kind) {
        case LaneKind::kInt64:
          return CellView::Int64(i64_data()[r], type);
        case LaneKind::kDouble:
          return CellView::Double(f64_data()[r]);
        case LaneKind::kStringRef:
          return CellView::String(str_data()[r]);
        case LaneKind::kStringCode:
          return CellView::String(&dict->DictString(code_data()[r]));
        case LaneKind::kNone:
          break;
      }
      return CellView::Null();
    }
  };

  /// Lane storage class for a Value type; kNone when the type has no
  /// typed representation (producers must stay boxed).
  static LaneKind LaneKindFor(ValueType t) {
    switch (t) {
      case ValueType::kInt64:
      case ValueType::kDate:
      case ValueType::kBool:
        return LaneKind::kInt64;
      case ValueType::kDouble:
        return LaneKind::kDouble;
      case ValueType::kString:
        return LaneKind::kStringRef;
      case ValueType::kNull:
        break;
    }
    return LaneKind::kNone;
  }

  RowBatch() = default;

  /// Clears rows, selection and lanes, (re)shaping to `num_cols`
  /// columns. Column and lane capacity is retained so steady-state reuse
  /// is allocation-free.
  void Reset(int num_cols) {
    cols_.resize(static_cast<size_t>(num_cols));
    for (auto& c : cols_) c.clear();
    lanes_.resize(static_cast<size_t>(num_cols));
    for (auto& l : lanes_) l.Clear();
    filled_.assign(static_cast<size_t>(num_cols), 0);
    sel_.clear();
    num_rows_ = 0;
    retained_.clear();
    strings_pool_backed_ = false;
    if (arena_ != nullptr) {
      if (arena_.use_count() == 1) {
        arena_->Clear();  // sole owner: reuse
      } else {
        arena_.reset();  // someone downstream retained it; start fresh
      }
    }
  }

  int num_cols() const { return static_cast<int>(cols_.size()); }
  size_t num_rows() const { return num_rows_; }
  void set_num_rows(size_t n) { num_rows_ = n; }

  /// Producer API (scans): after Reset(table.num_columns()), makes this
  /// batch rows [start, start + n) of `table` with an identity selection.
  /// Every column becomes a lane borrowed from the table's arrays —
  /// dictionary columns as code lanes, plain strings as string-ref lanes
  /// over the column's per-row addresses. Nothing is copied.
  void BorrowTableRows(const Table& table, size_t start, size_t n);

  /// Column accessors; lane columns are boxed on first touch.
  const std::vector<Value>& col(int i) const {
    EnsureCol(i);
    return cols_[static_cast<size_t>(i)];
  }
  std::vector<Value>& col(int i) {
    EnsureCol(i);
    return cols_[static_cast<size_t>(i)];
  }

  std::vector<uint32_t>& sel() { return sel_; }
  const std::vector<uint32_t>& sel() const { return sel_; }

  /// True when column `i` is backed by a typed lane that has not been
  /// boxed over (the lane arrays are authoritative).
  bool lane_active(int i) const {
    const size_t c = static_cast<size_t>(i);
    return lanes_[c].kind != LaneKind::kNone && !filled_[c];
  }
  const TypedLane& lane(int i) const {
    return lanes_[static_cast<size_t>(i)];
  }
  /// Column `i`'s lane when it is a dictionary-code lane without nulls —
  /// what code-aware consumers (IN-lists, group-by, hashing) read
  /// directly — else nullptr.
  const TypedLane* code_lane(int i) const {
    const TypedLane& l = lanes_[static_cast<size_t>(i)];
    return lane_active(i) && l.kind == LaneKind::kStringCode && !l.has_nulls
               ? &l
               : nullptr;
  }

  /// Producer API: claims column `i` as a typed lane for cells of exact
  /// type `type` and returns it for direct filling (dense push_back, or
  /// resize + scatter by physical row). Returns nullptr when `type` has
  /// no lane representation — the producer must fill col(i) boxed.
  TypedLane* StartLane(int i, ValueType type) {
    const LaneKind kind = LaneKindFor(type);
    if (kind == LaneKind::kNone) return nullptr;
    TypedLane& l = lanes_[static_cast<size_t>(i)];
    l.Clear();
    l.kind = kind;
    l.type = type;
    return &l;
  }

  /// Producer API for append-style (dense) producers that may emit one
  /// column across several gather flushes: returns the lane to keep
  /// appending cells of exact type `type` to. Starts the lane if the
  /// column is still empty; returns the active lane if the type matches;
  /// returns nullptr — demoting any mismatched lane to boxed first — when
  /// the producer must append boxed Values via col(i) instead.
  TypedLane* StartLaneAppend(int i, ValueType type) {
    const size_t c = static_cast<size_t>(i);
    TypedLane& l = lanes_[c];
    assert(l.borrowed == nullptr);
    if (l.kind != LaneKind::kNone && !filled_[c]) {
      // Kind must match too: a code lane shares type kString with a
      // string-ref lane but stores int32 codes, not pointers.
      if (l.type == type && l.kind == LaneKindFor(type)) return &l;
      DemoteLaneDense(i);
      return nullptr;
    }
    if (filled_[c] || !cols_[c].empty()) return nullptr;  // already boxed
    return StartLane(i, type);
  }

  /// Producer API: claims column `i` as a dictionary-code lane decoding
  /// through `dict` (table-owned, stable for the query — see the Column
  /// dictionary contract in storage/table.h). The producer fills `codes`
  /// (and `nulls` if it sets has_nulls).
  TypedLane* StartCodeLane(int i, const Column* dict) {
    TypedLane& l = lanes_[static_cast<size_t>(i)];
    l.Clear();
    l.kind = LaneKind::kStringCode;
    l.type = ValueType::kString;
    l.dict = dict;
    return &l;
  }

  /// Append-style counterpart of StartCodeLane: returns the active code
  /// lane when it decodes through the same `dict` (or starts one on an
  /// untouched column). Returns nullptr — without demoting — when the
  /// column is in any other state; the caller falls back to
  /// StartLaneAppend(i, kString) with decoded pointers.
  TypedLane* StartCodeLaneAppend(int i, const Column* dict) {
    const size_t c = static_cast<size_t>(i);
    TypedLane& l = lanes_[c];
    assert(l.borrowed == nullptr);
    if (l.kind == LaneKind::kStringCode && !filled_[c]) {
      return l.dict == dict ? &l : nullptr;
    }
    if (l.kind != LaneKind::kNone && !filled_[c]) return nullptr;
    if (filled_[c] || !cols_[c].empty()) return nullptr;  // already boxed
    return StartCodeLane(i, dict);
  }

  /// Producer API: boxes a densely-filled lane (rows [0, lane length))
  /// into the boxed column and retires the lane, so the producer can
  /// continue appending boxed values. Used when a gather source changes
  /// representation mid-batch.
  void DemoteLaneDense(int i);

  // --- String ownership (see the header comment's lifetime rule) ---

  /// This batch's own arena, for producers that must copy an unstable
  /// string payload but want to keep the column in lane form. Created on
  /// first use; cleared or replaced by Reset().
  StringArena* arena() {
    if (arena_ == nullptr) arena_ = std::make_shared<StringArena>();
    return arena_.get();
  }

  /// Keeps `a`'s strings alive for this batch's lifetime (and, through
  /// the consumer's own RetainStringStorage call, transitively for any
  /// batch gathered from this one).
  void RetainArena(const StringArenaPtr& a) {
    if (a == nullptr || a->empty()) return;
    for (const StringArenaPtr& r : retained_) {
      if (r == a) return;
    }
    retained_.push_back(a);
  }

  /// Retains every arena that keeps `src`'s string-ref lanes valid: its
  /// own arena plus everything it retained. Producers call this before
  /// gathering string pointers out of `src` into this batch's lanes.
  /// Also propagates `src`'s pool-backed marker: a batch gathered from a
  /// pool-backed batch may carry the same pool pointers.
  void RetainStringStorage(const RowBatch& src) {
    RetainArena(src.arena_);
    for (const StringArenaPtr& r : src.retained_) RetainArena(r);
    strings_pool_backed_ |= src.strings_pool_backed_;
  }

  /// Marks this batch's string lanes as (possibly) referencing an
  /// operator-owned pool frozen only until that operator's Close (the
  /// nested-loop join's materialized inner rows). Such pointers are safe
  /// for pipeline consumption — every batch is consumed before the tree
  /// closes — but must NOT be borrowed across an operator Close or into a
  /// query result: cross-Close borrowers (sort/build-pool materialization,
  /// ResultSet arena handoff) check this flag and fall back to copying.
  void MarkStringsPoolBacked() { strings_pool_backed_ = true; }
  bool strings_pool_backed() const { return strings_pool_backed_; }

  /// The arena handles behind this batch's string lanes, for columnar
  /// pools (TypedColumn) that borrow string pointers out of the batch and
  /// must keep the bytes alive past the batch's own lifetime.
  const StringArenaPtr& own_arena_handle() const { return arena_; }
  const std::vector<StringArenaPtr>& retained_arenas() const {
    return retained_;
  }

  /// Appends cell `v` densely to column `i`, keeping the column in lane
  /// form while every non-null cell's exact tag matches `declared`.
  /// String payloads are appended by pointer when `stable_str` is true
  /// (the caller guarantees the pointee outlives this batch, per the
  /// retention contract) and interned into this batch's arena otherwise.
  /// Falls back to boxed appends — demoting any existing lane — on tag
  /// mismatch or for types with no lane representation.
  void AppendCellDense(int i, ValueType declared, const CellView& v,
                       bool stable_str);

  /// Number of logically-alive rows.
  size_t active() const { return sel_.size(); }
  bool empty() const { return sel_.empty(); }

  /// Appends one row (copying values) and marks it selected.
  void AppendRow(const Row& row) {
    for (size_t c = 0; c < cols_.size(); ++c) cols_[c].push_back(row[c]);
    sel_.push_back(static_cast<uint32_t>(num_rows_));
    ++num_rows_;
  }

  /// Extends the selection with the identity [from, num_rows_).
  void ExtendIdentitySel(size_t from) {
    sel_.reserve(num_rows_);
    for (size_t r = from; r < num_rows_; ++r) {
      sel_.push_back(static_cast<uint32_t>(r));
    }
  }

  /// Unboxed view of cell (col, r), whatever its representation. The view
  /// borrows from the batch / table / lane and follows the same lifetime
  /// rule as the batch itself.
  CellView ViewCell(int col, uint32_t r) const {
    if (lane_active(col)) return lanes_[static_cast<size_t>(col)].ViewAt(r);
    return CellView::Of(cols_[static_cast<size_t>(col)][r]);
  }

  /// Boxes a single cell without boxing the whole column.
  Value CellValue(int col, uint32_t r) const {
    if (lane_active(col)) return BoxCellView(ViewCell(col, r));
    return cols_[static_cast<size_t>(col)][r];
  }

  /// Three-way compare of `v` against cell (col, r) — exactly
  /// v.Compare(boxed cell), but lane cells compare in place with no
  /// heap-allocating Value constructed.
  int CompareCell(const Value& v, int col, uint32_t r) const {
    return CompareCellViews(CellView::Of(v), ViewCell(col, r));
  }

  /// Materializes physical row `r` into `out`.
  void MaterializeRow(uint32_t r, Row* out) const;

 private:
  void EnsureCol(int i) const;

  mutable std::vector<std::vector<Value>> cols_;
  std::vector<TypedLane> lanes_;
  std::vector<uint32_t> sel_;
  size_t num_rows_ = 0;

  /// filled_[c] set => cols_[c] holds the authoritative boxed values.
  mutable std::vector<uint8_t> filled_;

  StringArenaPtr arena_;  ///< owned string payloads (lazily created)
  std::vector<StringArenaPtr> retained_;  ///< borrowed payloads kept alive
  /// Set when string lanes may point into an operator pool that dies at
  /// that operator's Close (not covered by arena retention).
  bool strings_pool_backed_ = false;
};

// Multi-column key hashing over whole batches (typed, unboxed for lane
// columns) lives in exec/hash_table.h (HashKeyColumnsBatch), alongside
// the flat hash index it feeds.

}  // namespace ecodb

#endif  // ECODB_EXEC_ROW_BATCH_H_
