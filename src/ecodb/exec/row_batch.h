// RowBatch: the unit of vectorized execution. A batch holds up to
// kDefaultBatchRows tuples in column-major order plus a selection vector
// of the row indexes that are logically alive. Operators communicate by
// filling / narrowing batches, which amortizes the per-tuple virtual-call,
// copy and accounting overhead of tuple-at-a-time pulls across ~1k tuples.
//
// Every column is a *typed lane*: a raw int64 / double / string-pointer /
// dictionary-code array with a byte-per-row null mask, whose cells all
// carry the column's declared type (or are NULL). A lane is either
// *borrowed* — scans point it at a table Column from the table row of the
// batch's row 0, and projections pass such a lane on — copying nothing,
// or *owned*, filled by the producer (join match emission, projections,
// pool emission, expression evaluation). Readers see one array either
// way (TypedLane::i64_data() and friends). Because a borrowed lane names
// its table Column and row, a pipeline breaker can keep a table row per
// input row instead of the cells (SortOp does). ViewCell() exposes a cell as an
// unboxed CellView, which is how kernels (hashing, key equality,
// comparisons, aggregation) touch cells without allocating. Expressions
// evaluate into lanes too (Expr::EvalBatch); MaterializeRow boxes a row
// only for the scalar evaluator.
//
// Conventions:
//  * `sel()` holds ascending physical row indexes; only those positions of
//    each column are meaningful. Producers that emit dense output (scans,
//    joins) fill an identity selection; filters narrow it in place.
//  * Batches are reused across NextBatch calls; Reset() keeps lane
//    capacity so steady-state execution does not allocate.
//  * Borrowed lanes and lane string pointers reference storage owned by
//    either the table (sealed once a query reads it, so it never moves)
//    or a refcounted StringArena. A batch that gathers string pointers
//    out of another batch or an arena-backed column *retains* the source
//    arenas (RetainArena / RetainStringStorage), so those bytes stay
//    alive even after the source batch is Reset or the owning operator
//    Closes. Producers that compute a string (a projected literal) intern
//    it into this batch's own arena.

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

  /// Physical storage class of a typed lane (kNone: not filled yet).
  /// kStringCode is a dictionary-code lane: int32 codes into a table
  /// Column's sorted dictionary. It views exactly like a string lane
  /// (ViewAt decodes to the dict entry's stable, table-owned address — no
  /// arena retention needed), but code-aware consumers (predicates,
  /// hashing, group-by, sort) read the codes directly and never touch
  /// payload bytes.
  enum class LaneKind : uint8_t {
    kNone,
    kInt64,
    kDouble,
    kStringRef,
    kStringCode
  };

  /// One typed column lane. `type` is the exact Value type tag of every
  /// non-null cell (kInt64/kDate/kBool share the i64 array; a kNull column
  /// is an i64 lane whose cells are all null). `nulls` is a byte-per-row
  /// null mask, only consulted when has_nulls is set.
  ///
  /// Cells are owned (producers append to the vector of the lane's kind)
  /// or borrowed: `table` then is the sealed table Column holding them,
  /// lane row r being table row `table_row + r`, and the vectors stay
  /// empty. Readers go through the *_data() pointers, which resolve to
  /// whichever holds the cells. A borrowed lane has no nulls and is never
  /// appended to.
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
    const Column* table = nullptr;       ///< borrowed cells' column
    uint32_t table_row = 0;              ///< table row of lane row 0

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
      table = nullptr;
      table_row = 0;
    }
    bool is_borrowed() const { return table != nullptr; }
    /// The lane's strings are table storage, which outlives the query: a
    /// scan's borrowed cells or dictionary codes.
    bool table_strings() const {
      return is_borrowed() || kind == LaneKind::kStringCode;
    }
    const int64_t* i64_data() const {
      return table != nullptr ? table->ints_data() + table_row : i64.data();
    }
    const double* f64_data() const {
      return table != nullptr ? table->doubles_data() + table_row
                              : f64.data();
    }
    const std::string* const* str_data() const {
      return table != nullptr ? table->string_ptrs_data() + table_row
                              : str.data();
    }
    const int32_t* code_data() const {
      return table != nullptr ? table->codes_data() + table_row
                              : codes.data();
    }
    /// Restarts this lane as an owned lane of exact type `t` holding `n`
    /// zeroed, non-null cells, for producers that write by physical row.
    void Start(ValueType t, size_t n) {
      Clear();
      kind = LaneKindFor(t);
      type = t;
      switch (kind) {
        case LaneKind::kInt64:
          i64.resize(n);
          break;
        case LaneKind::kDouble:
          f64.resize(n);
          break;
        case LaneKind::kStringRef:
          str.resize(n, nullptr);
          break;
        case LaneKind::kStringCode:
        case LaneKind::kNone:
          break;  // LaneKindFor never yields these
      }
    }
    /// Marks cell `r` of a Start()ed lane NULL.
    void SetNull(uint32_t r) {
      if (!has_nulls) {
        has_nulls = true;
        nulls.assign(LaneSize(), 0);
      }
      nulls[r] = 1;
    }
    /// Makes this lane borrow the same table cells as `src`, a borrowed
    /// lane with this lane's row numbering.
    void ShareBorrowed(const TypedLane& src) {
      assert(src.is_borrowed());
      Clear();
      kind = src.kind;
      type = src.type;
      dict = src.dict;
      table = src.table;
      table_row = src.table_row;
    }
    /// A dictionary-code lane without nulls: what code-aware consumers
    /// (IN-lists, group-by) read directly.
    bool is_null_free_codes() const {
      return kind == LaneKind::kStringCode && !has_nulls;
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
    /// Extends the null mask over the `n` cells just appended, the k-th
    /// taking src_nulls[rows[k]] (src_nulls null: none of them is null).
    void GatherNulls(const uint8_t* src_nulls, const uint32_t* rows,
                     size_t n) {
      if (src_nulls != nullptr && !has_nulls) {
        has_nulls = true;
        nulls.assign(LaneSize() - n, 0);
      }
      if (!has_nulls) return;
      if (src_nulls == nullptr) {
        nulls.resize(LaneSize(), 0);
        return;
      }
      for (size_t k = 0; k < n; ++k) nulls.push_back(src_nulls[rows[k]]);
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

  /// Lane storage class for a Value type. Strings map to string-ref
  /// lanes; code lanes are started explicitly (StartCodeLane).
  static LaneKind LaneKindFor(ValueType t) {
    switch (t) {
      case ValueType::kDouble:
        return LaneKind::kDouble;
      case ValueType::kString:
        return LaneKind::kStringRef;
      case ValueType::kInt64:
      case ValueType::kDate:
      case ValueType::kBool:
      case ValueType::kNull:
        break;
    }
    return LaneKind::kInt64;
  }

  RowBatch() = default;

  /// Clears rows, selection and lanes, (re)shaping to `num_cols`
  /// columns. Lane capacity is retained so steady-state reuse is
  /// allocation-free.
  void Reset(int num_cols) {
    lanes_.resize(static_cast<size_t>(num_cols));
    for (auto& l : lanes_) l.Clear();
    sel_.clear();
    num_rows_ = 0;
    retained_.clear();
    if (arena_ != nullptr) {
      if (arena_.use_count() == 1) {
        arena_->Clear();  // sole owner: reuse
      } else {
        arena_.reset();  // someone downstream retained it; start fresh
      }
    }
  }

  int num_cols() const { return static_cast<int>(lanes_.size()); }
  size_t num_rows() const { return num_rows_; }
  void set_num_rows(size_t n) { num_rows_ = n; }

  /// Producer API (scans): after Reset(table.num_columns()), makes this
  /// batch rows [start, start + n) of `table` with an identity selection.
  /// Every column becomes a lane borrowed from the table's arrays —
  /// dictionary columns as code lanes, plain strings as string-ref lanes
  /// over the column's per-row addresses. Nothing is copied.
  void BorrowTableRows(const Table& table, size_t start, size_t n);

  std::vector<uint32_t>& sel() { return sel_; }
  const std::vector<uint32_t>& sel() const { return sel_; }

  const TypedLane& lane(int i) const {
    return lanes_[static_cast<size_t>(i)];
  }

  /// Producer API: claims column `i` as a lane for cells of exact type
  /// `type` and returns it for direct filling (dense push_back, or
  /// resize + scatter by physical row).
  TypedLane* StartLane(int i, ValueType type) {
    TypedLane& l = lanes_[static_cast<size_t>(i)];
    l.Clear();
    l.kind = LaneKindFor(type);
    l.type = type;
    return &l;
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

  /// Producer API for append-style (dense) producers that may emit one
  /// column across several gather flushes: returns the lane to keep
  /// appending cells of exact type `type` to, starting it if the column
  /// is still empty. A code lane is decoded to string pointers first
  /// (its entries are table-stable), so the returned lane always has
  /// kind LaneKindFor(type).
  TypedLane* StartLaneAppend(int i, ValueType type) {
    TypedLane& l = lanes_[static_cast<size_t>(i)];
    assert(!l.is_borrowed());
    if (l.kind == LaneKind::kNone) return StartLane(i, type);
    assert(l.type == type && "a column's cells share its declared type");
    if (l.kind == LaneKind::kStringCode) DecodeCodeLane(&l);
    return &l;
  }

  /// Append-style counterpart of StartCodeLane: returns the active code
  /// lane when it decodes through the same `dict` (or starts one on an
  /// untouched column). Returns nullptr when the column is in any other
  /// state; the caller falls back to StartLaneAppend(i, kString) with
  /// decoded pointers.
  TypedLane* StartCodeLaneAppend(int i, const Column* dict) {
    TypedLane& l = lanes_[static_cast<size_t>(i)];
    assert(!l.is_borrowed());
    if (l.kind == LaneKind::kNone) return StartCodeLane(i, dict);
    return l.kind == LaneKind::kStringCode && l.dict == dict ? &l : nullptr;
  }

  /// Appends cells rows[0..n) of column `src_col` of `src` densely to
  /// column `i`: code lanes stay codes while the dictionary matches,
  /// string pointers are carried with `src`'s arenas retained. The
  /// shared emission path of the joins' probe / outer side.
  void AppendGather(int i, const RowBatch& src, int src_col,
                    const uint32_t* rows, size_t n);

  // --- String ownership (see the header comment's lifetime rule) ---

  /// This batch's own arena, for producers that compute a string payload.
  /// Created on first use; cleared or replaced by Reset().
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
  void RetainStringStorage(const RowBatch& src) {
    RetainArena(src.arena_);
    for (const StringArenaPtr& r : src.retained_) RetainArena(r);
  }

  /// The arena handles behind this batch's string lanes, for columnar
  /// pools (TypedColumn) that borrow string pointers out of the batch and
  /// must keep the bytes alive past the batch's own lifetime.
  const StringArenaPtr& own_arena_handle() const { return arena_; }
  const std::vector<StringArenaPtr>& retained_arenas() const {
    return retained_;
  }

  /// Number of logically-alive rows.
  size_t active() const { return sel_.size(); }
  bool empty() const { return sel_.empty(); }

  /// Extends the selection with the identity [from, num_rows_).
  void ExtendIdentitySel(size_t from) {
    sel_.reserve(num_rows_);
    for (size_t r = from; r < num_rows_; ++r) {
      sel_.push_back(static_cast<uint32_t>(r));
    }
  }

  /// Unboxed view of cell (col, r). The view borrows from the lane / table
  /// and follows the same lifetime rule as the batch itself.
  CellView ViewCell(int col, uint32_t r) const {
    return lanes_[static_cast<size_t>(col)].ViewAt(r);
  }

  /// Boxes physical row `r` into `out` (the scalar evaluator's input).
  void MaterializeRow(uint32_t r, Row* out) const;

 private:
  /// Turns code lane `l` into a string-ref lane over its dictionary
  /// entries (same cells and nulls).
  static void DecodeCodeLane(TypedLane* l);

  std::vector<TypedLane> lanes_;
  std::vector<uint32_t> sel_;
  size_t num_rows_ = 0;

  StringArenaPtr arena_;  ///< owned string payloads (lazily created)
  std::vector<StringArenaPtr> retained_;  ///< borrowed payloads kept alive
};

// Multi-column key hashing over whole batches (typed, unboxed for lane
// columns) lives in exec/hash_table.h (HashKeyColumnsBatch), alongside
// the flat hash index it feeds.

}  // namespace ecodb

#endif  // ECODB_EXEC_ROW_BATCH_H_
