// Vectorized pull-based physical operators.
//
// Each operator pulls RowBatches from its children and reports its
// logical work to the ExecContext, which converts it into simulated CPU
// cycles, DRAM traffic and disk I/O. Open/NextBatch/Close life cycle;
// NextBatch sets *has_rows = false at end of stream.

#ifndef ECODB_EXEC_OPERATORS_H_
#define ECODB_EXEC_OPERATORS_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ecodb/exec/exec_context.h"
#include "ecodb/exec/expr.h"
#include "ecodb/exec/hash_table.h"
#include "ecodb/exec/result_set.h"
#include "ecodb/exec/row_batch.h"
#include "ecodb/exec/sort_keys.h"
#include "ecodb/exec/typed_column.h"
#include "ecodb/storage/catalog.h"
#include "ecodb/storage/schema.h"
#include "ecodb/util/status.h"

namespace ecodb {

// Morsel-parallel breaker drivers (exec/morsel.cc). They rebuild the
// private consume state of HashAggOp / SortOp from worker-shipped
// fragments with the exact single-threaded charge sequence, so the
// operators friend them instead of exposing their internals.
class MorselAggDriver;
class MorselSortDriver;

class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;

  /// Pull: fills `out` (Reset by the callee) with at least one and at
  /// most `max_rows` selected tuples (max_rows <= kDefaultBatchRows), or
  /// sets *has_rows = false at end of stream. Draining callers pass
  /// RowBatch::kDefaultBatchRows. Streaming operators pass the cap to the
  /// child that drives their output — scan, filter and project to their
  /// child, the joins to their probe/outer side — so a pull at cap 1
  /// reads and charges exactly one driving row further down the
  /// pipeline.
  virtual Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) = 0;

  /// True when this operator emits from operator-local materialized state
  /// — NextBatch performs no child pulls and no ExecContext charges, so a
  /// parent (LimitOp) may pull full batches and stop early without
  /// perturbing any counter the simulation sees: all the work below
  /// happened at Open. Pipeline breakers (sort, aggregation) return true;
  /// LimitOp forwards its child's answer (its own emission adds no
  /// charges).
  virtual bool MaterializedEmission() const { return false; }

  /// Materialized emission straight into a result (the root drain):
  /// appends to `out` the next at most `max_rows` rows (any count, not
  /// bounded by a batch; SIZE_MAX takes every pending row), each column
  /// gathered once from the operator's state with no batch in between,
  /// and sets *taken to their number (0 at end of stream). Only for
  /// operators with MaterializedEmission(); charges nothing.
  virtual Status EmitInto(ResultSet* out, size_t max_rows, size_t* taken);
  /// After Open: an upper bound on the rows this operator has still to
  /// emit, SIZE_MAX when it cannot tell. Exact for a materialized
  /// emission, which a root drain reserves its result for; a scan chain
  /// reports its scan's remaining rows, which SortOp reserves its input
  /// for.
  virtual size_t PendingRows() const { return SIZE_MAX; }

  virtual void Close() = 0;
  virtual const Schema& schema() const = 0;
  virtual std::string name() const = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Aggregate function specification for HashAggOp.
struct AggSpec {
  enum class Kind { kSum, kCount, kAvg, kMin, kMax };
  Kind kind = Kind::kSum;
  ExprPtr arg;  ///< null for COUNT(*)
  std::string name;

  ValueType ResultType() const;
};

/// Full-table scan. Charges per-tuple CPU cost and (for disk-backed
/// profiles) page I/O, mixing in a random fetch every
/// cold_random_page_period pages.
class SeqScanOp : public Operator {
 public:
  SeqScanOp(ExecContext* ctx, const std::string& table_name);
  /// Range-restricted scan over rows [begin_row, end_row): the morsel
  /// unit. Morsel boundaries are multiples of the batch size, so the
  /// batches (and per-batch charges) a restricted scan emits are exactly
  /// the full scan's batches for that range.
  SeqScanOp(ExecContext* ctx, const std::string& table_name,
            uint64_t begin_row, uint64_t end_row);

  Status Open() override;
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  size_t PendingRows() const override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "SeqScan(" + table_name_ + ")"; }

 private:
  ExecContext* ctx_;
  std::string table_name_;
  Schema schema_;
  const Table* table_ = nullptr;
  const HeapFile* file_ = nullptr;
  size_t next_row_ = 0;
  uint64_t begin_row_ = 0;
  uint64_t end_row_ = ~0ull;  ///< exclusive; clamped to the table at Open
  uint64_t pages_fetched_ = 0;
  int row_width_ = 0;
};

class FilterOp : public Operator {
 public:
  FilterOp(ExecContext* ctx, OperatorPtr child, ExprPtr predicate);

  Status Open() override;
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  size_t PendingRows() const override { return child_->PendingRows(); }
  void Close() override;
  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override {
    return "Filter(" + predicate_->ToString() + ")";
  }

  uint64_t rows_in() const { return rows_in_; }
  uint64_t rows_out() const { return rows_out_; }

 private:
  ExecContext* ctx_;
  OperatorPtr child_;
  ExprPtr predicate_;
  ExprScratch scratch_;  ///< reusable temporaries for FilterBatch
  uint64_t rows_in_ = 0;
  uint64_t rows_out_ = 0;
};

class ProjectOp : public Operator {
 public:
  ProjectOp(ExecContext* ctx, OperatorPtr child, std::vector<ExprPtr> exprs,
            std::vector<std::string> names);

  Status Open() override;
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  size_t PendingRows() const override { return child_->PendingRows(); }
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "Project"; }

 private:
  /// Evaluates exprs_[i] into lane `i` of `out` (Expr::EvalBatch: a
  /// column borrows table cells and gathers an owned lane), then keeps
  /// its string cells alive past the input batch.
  void EvalExprInto(size_t i, RowBatch* out);

  ExecContext* ctx_;
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
  RowBatch input_batch_;  ///< the child's batch being projected
  ExprScratch scratch_;
};

/// The build side of a hash join, immutable once built: the flat index
/// over a typed column-major payload pool, plus the build child's schema
/// and accounting totals. Extracted from HashJoinOp so morsel workers can
/// probe ONE shared build table concurrently — FlatHashIndex::Find/Next
/// and TypedColumn::View/GatherInto are const — while the coordinator
/// built it sequentially with the exact single-threaded charge sequence.
struct JoinBuildState {
  FlatHashIndex index;
  std::vector<TypedColumn> cols;  ///< typed column-major build pool
  uint32_t num_rows = 0;
  uint64_t bytes = 0;
  Schema schema;  ///< the build child's output schema

  /// Tears the pool down (releases tracked bytes); the owner calls this
  /// once probing is over, matching the single-threaded Close.
  void Clear() {
    index.Reset();
    cols.clear();
    num_rows = 0;
  }
};

using JoinBuildStatePtr = std::shared_ptr<JoinBuildState>;

/// In-memory hash join (equi-join). children: build (left) and probe
/// (right); output schema = build fields ++ probe fields. For disk-backed
/// profiles a grace-hash spill of build+probe bytes is charged per the
/// profile's spill_fraction.
///
/// The build side lives in a FlatHashIndex over a contiguous column-major
/// payload pool of TypedColumns; duplicate keys chain in insertion
/// order, preserving multimap semantics. The probe hashes all selected
/// keys of a probe batch up front (typed, unboxed for lane columns),
/// accumulates the matched (build entry, probe row) pairs, and emits them
/// with a *columnar gather* — raw values from the typed build pool and
/// the probe batch straight into typed output lanes, with strings carried
/// by pointer from stable storage (build pool / table) instead of copied
/// per match. A pull that fills its cap mid-chain keeps the chain cursor
/// and resumes there.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(ExecContext* ctx, OperatorPtr build, OperatorPtr probe,
             std::vector<int> build_keys, std::vector<int> probe_keys);
  /// Probe-only join over a prebuilt shared build side (morsel workers).
  /// Open skips the build phase (no build charges, no build spill) and
  /// Close leaves the shared state alive — the coordinator owns its
  /// teardown.
  HashJoinOp(ExecContext* ctx, JoinBuildStatePtr build, OperatorPtr probe,
             std::vector<int> build_keys, std::vector<int> probe_keys);

  /// Deferred build: Open invokes `build_thunk` at the exact position the
  /// normal ctor's build phase runs (so its charges land where a
  /// single-threaded build's would) and takes ownership of the returned
  /// state — Close tears it down like an owned build. The morsel layer
  /// uses this to run a *parallel partitioned* build for joins that sit
  /// outside any parallel spine (e.g. under a limit).
  using BuildThunk = std::function<Result<JoinBuildStatePtr>(ExecContext*)>;
  HashJoinOp(ExecContext* ctx, BuildThunk build_thunk, OperatorPtr probe,
             std::vector<int> build_keys, std::vector<int> probe_keys);

  /// Runs `build_child` to completion on `ctx` and returns the shared
  /// build state, with the exact charge sequence of a normal Open's build
  /// phase: child Open, per-batch build charges + ordered inserts, child
  /// Close, grace-hash spill charge.
  static Result<JoinBuildStatePtr> ExecuteBuild(
      ExecContext* ctx, Operator* build_child,
      const std::vector<int>& build_keys);

  Status Open() override;
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "HashJoin"; }

 private:
  /// Key-equality of build entry `idx` against probe row `probe_row` of
  /// `probe_batch`, counting one comparison per key column compared
  /// (short-circuit).
  bool KeysEqual(uint32_t idx, const RowBatch& probe_batch,
                 uint32_t probe_row);
  /// Gathers the accumulated match pairs into `out` and clears them.
  /// Must run before the probe batch they reference is replaced.
  void FlushMatches(RowBatch* out);

  ExecContext* ctx_;
  OperatorPtr build_child_, probe_child_;  ///< build_child_ null if prebuilt
  std::vector<int> build_keys_, probe_keys_;
  Schema schema_;

  JoinBuildStatePtr build_;  ///< owned (normal) or shared-const (prebuilt)
  BuildThunk build_thunk_;   ///< deferred owned build; runs at Open
  bool prebuilt_ = false;
  uint32_t match_ = FlatHashIndex::kInvalid;  ///< chain cursor
  bool probe_valid_ = false;  ///< a probe row's chain walk is in progress
  uint64_t probe_rows_ = 0;

  // Probe state: current probe batch, its up-front key hashes (parallel
  // to the selection vector), the position of the in-progress probe row
  // within the selection, and end-of-stream.
  RowBatch probe_batch_;
  std::vector<size_t> probe_hashes_;
  size_t probe_sel_pos_ = 0;
  bool probe_batch_valid_ = false;
  bool probe_eos_ = false;

  // Gather-emission scratch: matched build entries and probe rows of the
  // output batch under construction (flushed per probe batch).
  std::vector<uint32_t> match_build_;
  std::vector<uint32_t> match_probe_;
};

/// Nested-loop join with an arbitrary predicate over the concatenated row.
/// The inner side is materialized at Open into typed column-major pools,
/// the way HashJoinOp stores its build side.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(ExecContext* ctx, OperatorPtr outer, OperatorPtr inner,
                   ExprPtr predicate /* may be null for cross join */);

  Status Open() override;
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "NestedLoopJoin"; }

 private:
  /// Materializes the inner side into inner_cols_, checking the governor
  /// per pull; the columns charge the memory tracker.
  Status ConsumeInnerSide();
  /// Gathers the outer cells of the pending pairs into `out` and clears
  /// them. Must run before the outer batch is replaced.
  void FlushOuter(RowBatch* out);

  ExecContext* ctx_;
  OperatorPtr outer_, inner_;
  ExprPtr predicate_;
  ExprScratch scratch_;
  Schema schema_;
  std::vector<TypedColumn> inner_cols_;  ///< typed column-major inner pool
  uint32_t inner_rows_ = 0;
  uint32_t inner_pos_ = 0;  ///< next inner row for the current outer row

  // Outer state: current outer batch and the position of the current
  // outer row within its selection.
  RowBatch outer_batch_;
  size_t outer_sel_pos_ = 0;
  bool outer_batch_valid_ = false;
  bool outer_eos_ = false;

  // Gather-emission scratch: the outer rows and inner entries of the
  // candidate batch under construction.
  std::vector<uint32_t> pair_outer_;
  std::vector<uint32_t> pair_inner_;
};

/// Hash group-by aggregation. With no group-by expressions produces a
/// single global-aggregate row (even for empty input, SQL semantics).
///
/// Group state is column-major: one TypedColumn per group key, and per
/// aggregate struct-of-arrays sums, counts and typed MIN/MAX slots, all
/// indexed by group id (creation order). Each input batch takes two
/// passes. The first hashes the keys and walks the chains (or hits the
/// dictionary memo) to fill one group id per selected row; the second
/// runs one fold loop per aggregate over the selection. Every group still
/// sees its rows in input order, so sums are bit-identical to a row-at-a-
/// time fold. Emission appends the key columns and finalizes the states
/// into one TypedColumn per output field; NextBatch gathers typed lanes
/// out of those (strings by pointer into the columns' arenas, retained by
/// each emitted batch), and EmitInto gathers the same cells straight into
/// a root drain's result.
class HashAggOp : public Operator {
 public:
  HashAggOp(ExecContext* ctx, OperatorPtr child,
            std::vector<ExprPtr> group_by, std::vector<AggSpec> aggs);

  Status Open() override;
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  bool MaterializedEmission() const override { return true; }
  Status EmitInto(ResultSet* out, size_t max_rows, size_t* taken) override;
  size_t PendingRows() const override { return n_results_ - result_pos_; }
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "HashAgg"; }

 private:
  /// Rebuilds the group state from worker partitions with the canonical
  /// (as-if-sequential) charge stream and the same fold kernel; owns no
  /// state of its own here — see exec/morsel.cc.
  friend class MorselAggDriver;

  /// One aggregate's argument cells as the fold reads them: the array of
  /// the cells' storage class plus an optional null mask, indexed like a
  /// batch's rows (a lane) or densely (a column a morsel worker shipped).
  /// kind kNone is COUNT(*).
  struct AggArg {
    RowBatch::LaneKind kind = RowBatch::LaneKind::kNone;
    const int64_t* i64 = nullptr;
    const double* f64 = nullptr;
    const std::string* const* str = nullptr;
    const int32_t* codes = nullptr;
    const Column* dict = nullptr;    ///< kStringCode decode source
    const uint8_t* nulls = nullptr;  ///< nullptr: no cell is null
    /// The strings live in table storage, which outlives the query;
    /// otherwise a MIN/MAX winner is copied before its batch goes away.
    bool stable = false;

    static AggArg OfLane(const RowBatch::TypedLane& lane);
    static AggArg OfColumn(const TypedColumn& col);
  };

  /// One aggregate's state, struct-of-arrays over group ids. `count` is
  /// the number of non-null cells folded (a SUM/AVG/MIN/MAX over none is
  /// NULL). MIN/MAX keep the extreme in the array of the argument's
  /// storage class; a string extreme is a pointer, into table storage
  /// (dictionary entries included) or to the group's `owned` copy of a
  /// winner whose batch goes away. A group owns one string, reassigned
  /// in place, so held bytes grow with the groups, not the rows;
  /// TrackOwnedWinners charges them to the memory tracker.
  struct AggState {
    std::vector<double> sum;
    std::vector<uint64_t> count;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<const std::string*> str;
    /// Address-stable as it grows; made on the first such winner (an
    /// empty deque already allocates).
    std::optional<std::deque<std::string>> owned;
    uint64_t owned_bytes = 0;  ///< payload bytes of the `owned` copies
  };

  /// Walks `index`'s chain for `hash` comparing the stored keys with
  /// key_at(i), the i-th key cell of the row looked up. Returns the
  /// matching group or FlatHashIndex::kInvalid, and adds the chain
  /// entries visited (the bucket compares) to *visited.
  template <typename KeyAt>
  static uint32_t FindGroup(const FlatHashIndex& index,
                            const std::vector<TypedColumn>& keys, size_t hash,
                            KeyAt&& key_at, uint64_t* visited) {
    for (uint32_t idx = index.Find(hash); idx != FlatHashIndex::kInvalid;
         idx = index.Next(idx)) {
      ++*visited;
      bool equal = true;
      for (size_t i = 0; i < keys.size() && equal; ++i) {
        equal = CompareCellViews(keys[i].View(idx), key_at(i)) == 0;
      }
      if (equal) return idx;
    }
    return FlatHashIndex::kInvalid;
  }
  /// True when `lane` exists and its strings are table storage.
  static bool TableStrings(const RowBatch::TypedLane* lane) {
    return lane != nullptr && lane->table_strings();
  }
  /// Appends key cell `v` to a key column: a string in table storage
  /// (`stable`) by pointer, any other string copied.
  static void AppendKeyCell(TypedColumn* col, const CellView& v,
                            bool stable) {
    stable ? col->AppendStable(v) : col->Append(v);
  }
  /// Creates a group keyed by key_at(i) (see AppendKeyCell for
  /// stable[i]), indexes it under `hash` and charges its logical bytes:
  /// the key cells plus a fixed per-aggregate footprint. Returns its id.
  template <typename KeyAt>
  uint32_t AddGroup(size_t hash, KeyAt&& key_at,
                    const std::vector<uint8_t>& stable) {
    constexpr uint64_t kAccumulatorBytes = 48;
    uint64_t bytes = aggs_.size() * kAccumulatorBytes;
    for (size_t i = 0; i < keys_.size(); ++i) {
      const CellView v = key_at(i);
      bytes += LogicalCellBytes(v);
      AppendKeyCell(&keys_[i], v, stable[i] != 0);
    }
    const uint32_t g = static_cast<uint32_t>(n_groups_++);
    group_index_.Insert(hash, g);
    ctx_->memory_tracker()->Charge(bytes);
    group_pool_bytes_ += bytes;
    return g;
  }
  /// Sizes every aggregate's state arrays to the current group count.
  void GrowStates();
  /// The fold kernel: folds aggregate i's argument cells at rows[k] (k
  /// when `rows` is nullptr), k < n, into groups gid_[k], in order.
  void Fold(size_t i, const AggArg& arg, const uint32_t* rows, size_t n);
  /// Charges (or releases) the change in the groups' owned winner bytes
  /// since the last call: winners copied out of their batches are group
  /// state, released with the groups. Called after each batch's folds.
  void TrackOwnedWinners();
  /// Drops every group and releases its tracked bytes.
  void ReleaseGroups();
  Status ConsumeChild();
  /// Appends the key columns and the finalized states to result_cols_
  /// and sets n_results_ and emit_src_.
  void MaterializeResults();
  /// Points emit_src_ at the next at most `max_rows` results (indexes in
  /// emit_idx_); returns how many and advances result_pos_.
  size_t NextEmitSources(size_t max_rows);

  ExecContext* ctx_;
  OperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  ExprScratch scratch_;
  FlatHashIndex group_index_;
  std::vector<TypedColumn> keys_;  ///< one per group key, by group id
  std::vector<AggState> states_;   ///< one per aggregate
  size_t n_groups_ = 0;
  uint64_t group_pool_bytes_ = 0;  ///< tracked logical bytes of the groups
  uint64_t owned_charged_ = 0;  ///< owned winner bytes in group_pool_bytes_
  std::vector<uint32_t> gid_;  ///< group id of each selected row
  std::vector<RowBatch::TypedLane> arg_lanes_;  ///< computed arguments

  // Dictionary-key memo, used when EVERY group key
  // resolves to the codes of a dict-encoded string column: maps the
  // composite code (mixed-radix over the keys' dictionary sizes) to its
  // group id plus the bucket-compare count the generic chain
  // walk would charge for that key tuple. Chain positions are fixed once
  // inserted (FlatHashIndex chains append at the tail), so a memo hit
  // can skip hashing and the walk entirely while replaying the exact
  // counter delta, so the counters are unchanged bit-for-bit. The memo is
  // bounded by kDictMemoMaxEntries (dictionaries themselves cap at
  // Column::kDictMaxEntries each).
  std::vector<const Column*> dict_memo_dicts_;
  std::vector<uint32_t> dict_memo_group_;
  std::vector<uint32_t> dict_memo_cmps_;

  // Columnar result store: one TypedColumn per output field, read by
  // the gathers through emit_src_ at the indexes in emit_idx_.
  std::vector<TypedColumn> result_cols_;
  std::vector<CellSource> emit_src_;
  std::vector<uint32_t> emit_idx_;
  size_t n_results_ = 0;
  size_t result_pos_ = 0;
};

/// Sort (pipeline breaker). The input is held in an InputPool: columns a
/// scan lends stay in the table, recorded as one table row per input row;
/// only owned lanes (join, projection or aggregate output) are appended
/// to typed columns. Sort keys are evaluated vectorized into their own
/// TypedColumns, each row's keys are encoded once into normalized words
/// (exec/sort_keys.h) — one packed record per row when they fit — and
/// rows are sorted on (words, input position): the CompareCellViews
/// order with the position as the last tiebreak, so the sort is stable.
/// It is charged SortCompareCharge(rows) sort compares. Emission gathers each
/// output column once, in sorted order, from where the pool holds it:
/// into batch lanes for a parent (NextBatch), or straight into a root
/// drain's result (EmitInto).
class SortOp : public Operator {
 public:
  SortOp(ExecContext* ctx, OperatorPtr child, std::vector<SortKey> keys);

  Status Open() override;
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  bool MaterializedEmission() const override { return true; }
  Status EmitInto(ResultSet* out, size_t max_rows, size_t* taken) override;
  size_t PendingRows() const override { return input_.size() - pos_; }
  void Close() override;
  /// A driver-filled sort (morsel-parallel path) has no child; its
  /// schema is stashed in schema_ by the driver.
  const Schema& schema() const override {
    return child_ != nullptr ? child_->schema() : schema_;
  }
  std::string name() const override { return "Sort"; }

 private:
  /// Fills input_/order_ from worker-sorted runs with the canonical
  /// (as-if-sequential) charge stream — see exec/morsel.cc.
  friend class MorselSortDriver;

  Status ConsumeChild();

  ExecContext* ctx_;
  OperatorPtr child_;  ///< null when a MorselSortDriver fills the state
  std::vector<SortKey> keys_;
  Schema schema_;  ///< only used when child_ == nullptr
  ExprScratch scratch_;

  // The input, the evaluated sort keys as typed columns (released once
  // the sort is done), the sorted permutation of the input positions,
  // and emission's per-gather sources.
  InputPool input_;
  std::vector<TypedColumn> key_cols_;
  std::vector<uint32_t> order_;
  std::vector<CellSource> emit_src_;

  size_t pos_ = 0;
};

class LimitOp : public Operator {
 public:
  LimitOp(ExecContext* ctx, OperatorPtr child, int64_t limit);

  Status Open() override;
  /// Pulls the child at cap min(max_rows, rows left) when its emission
  /// is materialized (sort, aggregation, limit thereover): all the work
  /// below such a child happened at its Open and its emission charges
  /// nothing, so full batches are safe. A streaming child
  /// (scan/filter/join/project) is pulled at cap 1, so a limited
  /// pipeline never reads (or charges) ahead of the limit: it stops
  /// exactly where a drain of the first `limit` rows would.
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  bool MaterializedEmission() const override {
    return child_->MaterializedEmission();
  }
  Status EmitInto(ResultSet* out, size_t max_rows, size_t* taken) override;
  size_t PendingRows() const override {
    return std::min(child_->PendingRows(), RowsLeft());
  }
  void Close() override;
  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override { return "Limit"; }

 private:
  /// Rows the limit still lets through (SIZE_MAX without a limit).
  size_t RowsLeft() const {
    return limit_ < 0 ? SIZE_MAX : static_cast<size_t>(limit_ - produced_);
  }

  ExecContext* ctx_;
  OperatorPtr child_;
  int64_t limit_;
  int64_t produced_ = 0;
};

/// A root drain, one step at a time: the one drain loop body, shared by
/// ExecuteOperatorColumnar and QueryTask::Step. A step is a governor
/// checkpoint, then at most kDefaultBatchRows rows into the result. A
/// streaming root's next batch is appended column at a time. A
/// materialized root (sort, aggregation, a limit over either) is emitted
/// whole by the first step: one Operator::EmitInto gathers each column
/// over every pending row, straight from the operator's state into the
/// result reserved at Start, so a column's source is walked once rather
/// than once per step. Each step then takes the next at most
/// kDefaultBatchRows of those rows. Either way each step charges its
/// rows as output tuples and, on the memory tracker, as result bytes (the
/// schema's logical width per row), so steps, checkpoints and charges are
/// those of a batch-at-a-time drain; only the host copy runs ahead of the
/// charges. A trip mid-drain discards the whole set. The result bytes are
/// released when the drain ends, since the result outlives the query's
/// tracker.
class ResultDrain {
 public:
  /// Starts draining `op`, already opened (schemas bind at Open).
  void Start(Operator* op, ExecContext* ctx);
  /// Runs one step. At end of stream sets *done; then, and on any error,
  /// the drain closes itself (Close).
  Status Step(bool* done);
  /// Releases the result bytes and closes the operator: how a drain
  /// ends, whether finished, failed or abandoned midway.
  void Close();
  ResultSet TakeResult() { return std::move(set_); }

 private:
  Operator* op_ = nullptr;
  ExecContext* ctx_ = nullptr;
  bool materialized_ = false;
  bool emitted_ = false;  ///< a materialized root's rows are all in set_
  size_t charged_ = 0;    ///< rows of set_ the steps have charged
  ResultSet set_;
  RowBatch batch_;  ///< a streaming root's batch
  int width_ = 0;
  uint64_t result_bytes_ = 0;
};

/// Drains an operator tree: Open, then ResultDrain steps to the end of
/// stream, and returns the result columnar (no Value is boxed).
Result<ResultSet> ExecuteOperatorColumnar(Operator* op, ExecContext* ctx);

/// Row-oriented convenience wrapper over ExecuteOperatorColumnar (tests
/// and callers that want std::vector<Row>).
Result<std::vector<Row>> ExecuteOperator(Operator* op, ExecContext* ctx);

}  // namespace ecodb

#endif  // ECODB_EXEC_OPERATORS_H_
