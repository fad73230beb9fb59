#include "ecodb/exec/morsel.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ecodb/exec/hash_table.h"
#include "ecodb/exec/operators.h"
#include "ecodb/exec/query_governor.h"
#include "ecodb/storage/value.h"
#include "ecodb/util/bounded_queue.h"
#include "ecodb/util/strings.h"

namespace ecodb {

namespace {

Result<OperatorPtr> InstantiateParallel(const PlanNode& node, ExecContext* ctx,
                                        bool full_drain);
Status ExecuteSpineBuilds(const PlanNode& node, ExecContext* ctx,
                          std::vector<JoinBuildStatePtr>* builds);
Result<JoinBuildStatePtr> ExecuteParallelSpineBuild(
    const PlanNode& build_plan, const std::vector<int>& build_keys,
    ExecContext* ctx);

/// Builds a worker's operator tree for one morsel of a spine: the scan
/// leaf restricted to [begin_row, end_row), joins in probe-only mode
/// over the coordinator-built shared state. `next_build` walks `builds`
/// in the same top-down order ExecuteSpineBuilds produced it.
Result<OperatorPtr> BuildMorselTree(
    const PlanNode& node, ExecContext* ctx, uint64_t begin_row,
    uint64_t end_row, const std::vector<JoinBuildStatePtr>& builds,
    size_t* next_build) {
  switch (node.kind) {
    case PlanKind::kScan:
      return OperatorPtr(std::make_unique<SeqScanOp>(ctx, node.table_name,
                                                     begin_row, end_row));
    case PlanKind::kFilter: {
      ECODB_ASSIGN_OR_RETURN(
          OperatorPtr child,
          BuildMorselTree(*node.children[0], ctx, begin_row, end_row, builds,
                          next_build));
      return OperatorPtr(
          std::make_unique<FilterOp>(ctx, std::move(child), node.predicate));
    }
    case PlanKind::kProject: {
      ECODB_ASSIGN_OR_RETURN(
          OperatorPtr child,
          BuildMorselTree(*node.children[0], ctx, begin_row, end_row, builds,
                          next_build));
      return OperatorPtr(std::make_unique<ProjectOp>(
          ctx, std::move(child), node.exprs, node.names));
    }
    case PlanKind::kHashJoin: {
      if (*next_build >= builds.size()) {
        return Status::Internal("morsel spine build-state underflow");
      }
      JoinBuildStatePtr build = builds[(*next_build)++];
      ECODB_ASSIGN_OR_RETURN(
          OperatorPtr probe,
          BuildMorselTree(*node.children[1], ctx, begin_row, end_row, builds,
                          next_build));
      return OperatorPtr(std::make_unique<HashJoinOp>(
          ctx, std::move(build), std::move(probe), node.build_keys,
          node.probe_keys));
    }
    default:
      return Status::Internal(
          StrFormat("non-spine node %s in morsel tree", ToString(node.kind)));
  }
}

/// Row count of the spine's scan leaf — the morsel-partitioning domain.
Result<uint64_t> SpineLeafRowCount(const PlanNode& spine, ExecContext* ctx) {
  const PlanNode* leaf = &spine;
  while (leaf->kind != PlanKind::kScan) {
    leaf = leaf->children[leaf->kind == PlanKind::kHashJoin ? 1 : 0].get();
  }
  const Table* table = ctx->catalog()->FindTable(leaf->table_name);
  if (table == nullptr) {
    return Status::NotFound(
        StrFormat("table not found: %s", leaf->table_name.c_str()));
  }
  return table->num_rows();
}

/// Diverts a recording context's charges into a discarded scratch log for
/// the scope's lifetime. The charges still update the context's stats_
/// and pending cycles (folded into worker totals at the worker's final
/// Flush — the per-core concurrency view), but never reach the shipped
/// log the coordinator replays into the parity ledger. Breaker workers
/// use this for their as-if-local work: partition hashing, local chain
/// walks, local index sorts — work the coordinator re-issues canonically
/// while merging, which must therefore not ALSO arrive via replay.
class ScopedScratchCharges {
 public:
  explicit ScopedScratchCharges(ExecContext* ctx)
      : ctx_(ctx), prev_(ctx->recording_log()) {
    ctx_->BeginRecording(&scratch_);
  }
  ~ScopedScratchCharges() { ctx_->BeginRecording(prev_); }
  ScopedScratchCharges(const ScopedScratchCharges&) = delete;
  ScopedScratchCharges& operator=(const ScopedScratchCharges&) = delete;

 private:
  ExecContext* ctx_;
  ChargeLog* prev_;
  ChargeLog scratch_;
};

/// Queue headroom for per-batch items (stream batches, aggregation
/// partials, build fragments): a few morsels' worth of batches so
/// producers run well ahead of the in-order coordinator without
/// unbounded buffering.
constexpr size_t kBatchQueueCapacity = 32;
/// Queue headroom for per-morsel items (sorted runs): each item is a
/// whole morsel's columns, so two in flight per worker bounds memory at
/// roughly the streaming case's.
constexpr size_t kSortQueueCapacity = 2;

/// Shared scaffolding of every morsel pool: morsel arithmetic, one
/// bounded queue + one recording ExecContext per worker, thread
/// lifecycle, and the fold of worker totals into the per-core ledgers.
/// Worker w owns morsels w, w + W, w + 2W, ...; the coordinator pops
/// morsel m's items from queue m % W, so in-order consumption of the
/// queues reproduces global morsel order.
template <typename Item>
class MorselPool {
 public:
  MorselPool(ExecContext* ctx, uint64_t total_rows, int requested_workers,
             size_t queue_capacity)
      : ctx_(ctx), total_rows_(total_rows) {
    num_morsels_ = (total_rows + kMorselRows - 1) / kMorselRows;
    if (num_morsels_ > 0) {
      const uint64_t req =
          static_cast<uint64_t>(requested_workers < 1 ? 1 : requested_workers);
      num_workers_ =
          static_cast<size_t>(std::min<uint64_t>(req, num_morsels_));
    }
    queues_.reserve(num_workers_);
    worker_ctxs_.reserve(num_workers_);
    for (size_t w = 0; w < num_workers_; ++w) {
      queues_.push_back(
          std::make_unique<BoundedQueue<Item>>(queue_capacity));
      // No governor, no buffer pool: workers only drive ungoverned,
      // memory-resident pipelines (Database clamps exec_workers).
      worker_ctxs_.push_back(std::make_unique<ExecContext>(
          ctx->machine(), &ctx->profile(), ctx->catalog(), nullptr));
    }
  }

  ~MorselPool() { Stop(); }
  MorselPool(const MorselPool&) = delete;
  MorselPool& operator=(const MorselPool&) = delete;

  /// Spawns one thread per worker running fn(w).
  template <typename Fn>
  void Start(Fn&& fn) {
    threads_.reserve(num_workers_);
    for (size_t w = 0; w < num_workers_; ++w) {
      threads_.emplace_back(fn, w);
    }
  }

  /// Cancels and joins the pool (idempotent).
  void Stop() {
    cancel_.store(true, std::memory_order_relaxed);
    for (auto& q : queues_) q->WakeProducer();
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
  }

  /// Stops the pool, folds each worker's charged totals into its core's
  /// ledger (the additive concurrency view for per-core P-state
  /// experiments — the shared EnergyLedger already received the parity
  /// account via replay / canonical re-issue), marks the named machine
  /// phase, and tears down the worker contexts and queues.
  void AccrueWorkerTotals(const char* phase_label) {
    Stop();
    Machine* machine = ctx_->machine();
    for (size_t w = 0; w < worker_ctxs_.size(); ++w) {
      const QueryExecStats& s = worker_ctxs_[w]->stats();
      machine->AccrueCoreWork(static_cast<int>(w % machine->num_cores()),
                              s.cycles_charged, s.mem_lines_charged,
                              ctx_->load_class());
    }
    if (!worker_ctxs_.empty()) machine->MarkCorePhase(phase_label);
    worker_ctxs_.clear();
    queues_.clear();
  }

  uint64_t total_rows() const { return total_rows_; }
  uint64_t num_morsels() const { return num_morsels_; }
  size_t num_workers() const { return num_workers_; }
  BoundedQueue<Item>* queue(size_t w) { return queues_[w].get(); }
  ExecContext* worker_ctx(size_t w) { return worker_ctxs_[w].get(); }
  const std::atomic<bool>& cancel() const { return cancel_; }

 private:
  ExecContext* ctx_;
  uint64_t total_rows_ = 0;
  uint64_t num_morsels_ = 0;
  size_t num_workers_ = 0;
  std::vector<std::unique_ptr<BoundedQueue<Item>>> queues_;
  std::vector<std::unique_ptr<ExecContext>> worker_ctxs_;
  std::vector<std::thread> threads_;
  std::atomic<bool> cancel_{false};
};

// --- Worker → coordinator item types ---

/// One queue entry from a streaming-spine worker: either a batch (with
/// the charge-log segment recorded while producing it) or a morsel-done
/// marker (whose segment carries the trailing charges of the final,
/// empty pull). An error status terminates the worker's stream at that
/// morsel.
struct MorselItem {
  RowBatch batch;
  ChargeLog charges;
  bool has_batch = false;
  bool morsel_done = false;
  Status status;
};

/// One aggregation partial: the spine charges of one batch, the
/// worker-local group ordinal of every selected row, the keys first seen
/// in this batch (in first-occurrence order — ordinal == worker-local
/// dense FIFO position) as one column per group key plus their generic
/// key hashes, one dense column per aggregate holding its argument's
/// selected cells (empty for COUNT(*)), and the breaker's
/// expression-eval counters for the batch. Key strings in table storage
/// are shipped by pointer, others copied into the key column's own arena.
struct AggItem {
  ChargeLog charges;
  uint32_t n = 0;
  std::vector<uint32_t> ordinals;
  std::vector<size_t> new_hashes;
  std::vector<TypedColumn> new_keys;
  std::vector<TypedColumn> args;
  EvalCounters evals;
  bool morsel_done = false;
  Status status;
};

/// One locally-sorted run: a whole morsel's spine charges, its input
/// fragment (table rows and owned columns, as SortOp holds its input),
/// its sort-key fragment columns, the locally sorted permutation of
/// [0, n), and the key-eval counters. One item per morsel.
struct SortItem {
  ChargeLog charges;
  uint32_t n = 0;
  InputPool input;
  std::vector<TypedColumn> keys;
  std::vector<uint32_t> order;
  EvalCounters evals;
  Status status;
};

/// A run's placement in the coordinator's global columns.
struct SortedRun {
  size_t base = 0;                ///< global index of the run's row 0
  std::vector<uint32_t> order;    ///< local sorted permutation
};

/// One hash-join build fragment: the spine charges of one batch, the
/// batch's key hashes (in row order), and its payload fragment columns.
struct BuildItem {
  ChargeLog charges;
  uint32_t n = 0;
  std::vector<size_t> hashes;
  std::vector<TypedColumn> cols;
  bool morsel_done = false;
  Status status;
};

// --- Streaming spine ---

/// The parallel spine operator. Open builds shared join state, carves
/// the base table into morsels and spawns workers; NextBatch re-emits
/// worker batches in global morsel order, replaying each batch's
/// recorded charges into the coordinator context first; Close joins the
/// pool, folds worker totals into the per-core ledgers and tears down
/// the shared build state (the single-threaded Close position).
class MorselStreamOp : public Operator {
 public:
  MorselStreamOp(ExecContext* ctx, const PlanNode& spine, int workers)
      : ctx_(ctx),
        spine_(ClonePlan(spine)),
        schema_(spine.output_schema),
        requested_workers_(workers < 1 ? 1 : workers) {}

  Status Open() override {
    ECODB_RETURN_NOT_OK(ExecuteSpineBuilds(*spine_, ctx_, &builds_));
    ECODB_ASSIGN_OR_RETURN(const uint64_t total_rows,
                           SpineLeafRowCount(*spine_, ctx_));
    next_morsel_ = 0;
    pool_ = std::make_unique<MorselPool<MorselItem>>(
        ctx_, total_rows, requested_workers_, kBatchQueueCapacity);
    pool_->Start([this](size_t w) { WorkerLoop(w); });
    return Status::OK();
  }

  /// Re-emits whole worker batches: InstantiateParallel only places a
  /// stream in full-drain slots (never under a limit), whose parents
  /// always pull at the full batch size.
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override {
    assert(max_rows >= RowBatch::kDefaultBatchRows &&
           "MorselStream is only drained at the full batch size");
    (void)max_rows;
    *has_rows = false;
    while (next_morsel_ < pool_->num_morsels()) {
      MorselItem item =
          pool_->queue(next_morsel_ % pool_->num_workers())->Pop();
      // Replay before inspecting: whatever the worker charged up to this
      // point (including a partial morsel before an error) lands in the
      // coordinator's ledger at the single-threaded position.
      if (!item.charges.empty()) ctx_->ReplayChargeLog(item.charges);
      if (!item.status.ok()) return item.status;
      if (item.morsel_done) {
        ++next_morsel_;
        continue;
      }
      *out = std::move(item.batch);
      *has_rows = true;
      return Status::OK();
    }
    return Status::OK();
  }

  void Close() override {
    if (pool_ != nullptr) {
      pool_->AccrueWorkerTotals("stream");
      pool_.reset();
    }
    for (JoinBuildStatePtr& b : builds_) {
      if (b != nullptr) b->Clear();
    }
    builds_.clear();
    ctx_->Flush();
  }

  const Schema& schema() const override { return schema_; }
  std::string name() const override {
    return StrFormat("MorselStream(workers=%d)", requested_workers_);
  }

 private:
  /// Worker w processes morsels w, w + W, w + 2W, ... in order, each
  /// with a fresh spine clone, recording charges instead of touching
  /// the machine. One ExecContext per worker accumulates its totals
  /// across morsels (per-core accrual reads them at Close).
  void WorkerLoop(size_t w) {
    ExecContext* ctx = pool_->worker_ctx(w);
    ChargeLog log;
    ctx->BeginRecording(&log);
    const uint64_t num_morsels = pool_->num_morsels();
    const size_t num_workers = pool_->num_workers();
    const uint64_t total_rows = pool_->total_rows();
    for (uint64_t m = w; m < num_morsels; m += num_workers) {
      if (pool_->cancel().load(std::memory_order_relaxed)) break;
      const uint64_t begin = m * kMorselRows;
      const uint64_t end = std::min(begin + kMorselRows, total_rows);
      OperatorPtr op;
      size_t next_build = 0;
      Status st;
      {
        Result<OperatorPtr> tree =
            BuildMorselTree(*spine_, ctx, begin, end, builds_, &next_build);
        if (tree.ok()) {
          op = std::move(tree).value();
          st = op->Open();
        } else {
          st = tree.status();
        }
      }
      while (st.ok()) {
        RowBatch batch;
        bool has = false;
        st = op->NextBatch(&batch, &has, RowBatch::kDefaultBatchRows);
        if (!st.ok() || !has) break;
        MorselItem item;
        item.batch = std::move(batch);
        item.has_batch = true;
        item.charges = std::move(log);
        log.clear();
        if (!pool_->queue(w)->Push(std::move(item), pool_->cancel())) return;
      }
      if (op != nullptr) op->Close();  // folds pending into worker stats
      MorselItem done;
      done.morsel_done = true;
      done.status = st;
      done.charges = std::move(log);
      log.clear();
      if (!pool_->queue(w)->Push(std::move(done), pool_->cancel())) return;
      if (!st.ok()) return;  // coordinator stops at this morsel's marker
    }
    ctx->Flush();
  }

  ExecContext* ctx_;
  PlanNodePtr spine_;
  Schema schema_;
  int requested_workers_;

  std::vector<JoinBuildStatePtr> builds_;  ///< spine joins, outermost first
  uint64_t next_morsel_ = 0;
  std::unique_ptr<MorselPool<MorselItem>> pool_;
};

}  // namespace

// --- Breaker drivers ---
//
// Friended by HashAggOp / SortOp: they rebuild the operators' private
// consume state from worker-shipped partitions while re-issuing the
// exact single-threaded charge stream (canonical charge accounting).
// Defined at namespace scope to match the friend declarations; their
// helper types live in this file's unnamed namespace.

class MorselAggDriver {
 public:
  /// Runs the full morsel-parallel aggregation: spine builds at the
  /// child-Open position, workers computing partial groupings, the
  /// coordinator's deterministic merge, and HashAggOp::Open's tail
  /// (materialize, governor high-water check, pool release, flush).
  static Status Run(HashAggOp* op, const PlanNode& spine, ExecContext* ctx,
                    int requested_workers);

 private:
  static void WorkerLoop(HashAggOp* op, MorselPool<AggItem>* pool,
                         const PlanNode* spine,
                         const std::vector<JoinBuildStatePtr>* builds,
                         size_t w);
  /// Folds one partial into the operator's global groups with the
  /// sequential per-batch charge tail (probes, builds, agg updates,
  /// eval drain including the canonical bucket-compare count): the
  /// global-order walk fills the item's group ids, then HashAggOp's fold
  /// kernel runs over the shipped argument columns — the coordinator
  /// merges in global row order, so every group sees the same
  /// fp-addition order as sequential execution.
  static void MergeItem(HashAggOp* op, ExecContext* ctx,
                        std::vector<uint32_t>* map,
                        std::vector<uint64_t>* rank1, AggItem* item);
};

class MorselSortDriver {
 public:
  /// Runs the full morsel-parallel sort: spine builds, per-worker
  /// columnar index sorts, coordinator k-way merge of the sorted runs,
  /// and the canonical (rank-replay) sort-compare charge.
  static Status Run(SortOp* op, const PlanNode& spine, ExecContext* ctx,
                    int requested_workers);

 private:
  static void WorkerLoop(SortOp* op, MorselPool<SortItem>* pool,
                         const PlanNode* spine,
                         const std::vector<JoinBuildStatePtr>* builds,
                         size_t w);
  /// Merges the locally sorted runs into *order with a min-heap under
  /// the global total order of `keys` (encoded over the absorbed key
  /// columns) — the unique sorted permutation, i.e. exactly the
  /// sequential std::sort's result.
  static void MergeRuns(const NormalizedKeys& keys,
                        const std::vector<SortedRun>& runs,
                        std::vector<uint32_t>* order);
  /// The comparison count the sequential std::sort would have charged,
  /// reproduced by re-sorting [0, n) against the final permutation's
  /// rank oracle (comp(a,b) == rank[a] < rank[b] for the sequential
  /// comparator's strict total order).
  static uint64_t CanonicalSortCompares(const SortOp* op);
};

namespace {

/// Parallel aggregation wrapper: a child-less HashAggOp whose Open is
/// replaced by MorselAggDriver::Run over the cloned spine. Emission
/// (NextBatch/Close) is the operator's own — the driver fills the
/// same materialized result columns Open would have.
class MorselAggOp : public Operator {
 public:
  MorselAggOp(ExecContext* ctx, const PlanNode& node, int workers)
      : ctx_(ctx),
        spine_(ClonePlan(*node.children[0])),
        inner_(ctx, nullptr, node.group_by, node.aggs),
        workers_(workers < 1 ? 1 : workers) {}

  Status Open() override {
    return MorselAggDriver::Run(&inner_, *spine_, ctx_, workers_);
  }
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override {
    return inner_.NextBatch(out, has_rows, max_rows);
  }
  bool MaterializedEmission() const override { return true; }
  Status EmitInto(ResultSet* out, size_t max_rows, size_t* taken) override {
    return inner_.EmitInto(out, max_rows, taken);
  }
  size_t PendingRows() const override { return inner_.PendingRows(); }
  void Close() override { inner_.Close(); }
  const Schema& schema() const override { return inner_.schema(); }
  std::string name() const override {
    return StrFormat("MorselAgg(workers=%d)", workers_);
  }

 private:
  ExecContext* ctx_;
  PlanNodePtr spine_;
  HashAggOp inner_;
  int workers_;
};

/// Parallel sort wrapper: a child-less SortOp filled by
/// MorselSortDriver::Run over the cloned spine.
class MorselSortOp : public Operator {
 public:
  MorselSortOp(ExecContext* ctx, const PlanNode& node, int workers)
      : ctx_(ctx),
        spine_(ClonePlan(*node.children[0])),
        inner_(ctx, nullptr, node.sort_keys),
        workers_(workers < 1 ? 1 : workers) {}

  Status Open() override {
    return MorselSortDriver::Run(&inner_, *spine_, ctx_, workers_);
  }
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override {
    return inner_.NextBatch(out, has_rows, max_rows);
  }
  bool MaterializedEmission() const override { return true; }
  Status EmitInto(ResultSet* out, size_t max_rows, size_t* taken) override {
    return inner_.EmitInto(out, max_rows, taken);
  }
  size_t PendingRows() const override { return inner_.PendingRows(); }
  void Close() override { inner_.Close(); }
  const Schema& schema() const override { return inner_.schema(); }
  std::string name() const override {
    return StrFormat("MorselSort(workers=%d)", workers_);
  }

 private:
  ExecContext* ctx_;
  PlanNodePtr spine_;
  SortOp inner_;
  int workers_;
};

/// Worker side of the partitioned parallel hash-join build: stage one
/// BuildItem per spine batch — key hashes in row order plus payload
/// fragment columns — recording only the spine charges. The as-if-local
/// build work (this worker really hashed and staged the rows) goes to
/// worker stats through a scratch log; the canonical build charges are
/// re-issued by the coordinator as it stitches the fragments.
void BuildWorkerLoop(MorselPool<BuildItem>* pool, const PlanNode* spine,
                     const std::vector<int>* build_keys,
                     const std::vector<JoinBuildStatePtr>* builds, size_t w) {
  ExecContext* ctx = pool->worker_ctx(w);
  ChargeLog log;
  ctx->BeginRecording(&log);
  const Schema& s = spine->output_schema;
  const int n_cols = s.num_fields();
  const int build_width = s.RowWidth();
  std::vector<size_t> hash_scratch;
  for (uint64_t m = w; m < pool->num_morsels(); m += pool->num_workers()) {
    if (pool->cancel().load(std::memory_order_relaxed)) break;
    const uint64_t begin = m * kMorselRows;
    const uint64_t end = std::min(begin + kMorselRows, pool->total_rows());
    OperatorPtr op;
    size_t next_build = 0;
    Status st;
    {
      Result<OperatorPtr> tree =
          BuildMorselTree(*spine, ctx, begin, end, *builds, &next_build);
      if (tree.ok()) {
        op = std::move(tree).value();
        st = op->Open();
      } else {
        st = tree.status();
      }
    }
    while (st.ok()) {
      RowBatch batch;
      bool has = false;
      st = op->NextBatch(&batch, &has, RowBatch::kDefaultBatchRows);
      if (!st.ok() || !has) break;
      BuildItem item;
      item.n = static_cast<uint32_t>(batch.active());
      HashKeyColumnsBatch(batch, *build_keys, &hash_scratch);
      item.hashes = hash_scratch;
      item.cols.resize(static_cast<size_t>(n_cols));
      for (int c = 0; c < n_cols; ++c) {
        TypedColumn& dst = item.cols[static_cast<size_t>(c)];
        dst.Reset(s.field(c).type);
        dst.AppendLane(batch, batch.lane(c));
      }
      {
        ScopedScratchCharges scratch(ctx);
        ctx->ChargeHashBuilds(item.n, build_width);
      }
      item.charges = std::move(log);
      log.clear();
      if (!pool->queue(w)->Push(std::move(item), pool->cancel())) return;
    }
    if (op != nullptr) op->Close();
    BuildItem done;
    done.morsel_done = true;
    done.status = st;
    done.charges = std::move(log);
    log.clear();
    if (!pool->queue(w)->Push(std::move(done), pool->cancel())) return;
    if (!st.ok()) return;
  }
  ctx->Flush();
}

/// Partitioned parallel build of one hash-join build side (an eligible
/// spine). Workers scan their morsels and ship hash + payload fragments;
/// the coordinator replays each batch's spine charges, re-issues the
/// canonical build charges, inserts the hashes in global row order (so
/// duplicate chains come out insertion-order-equivalent to the
/// sequential build), and absorbs the payload fragments into the shared
/// pool. Charge stream and resulting state are bit-identical to
/// HashJoinOp::ExecuteBuild over the same spine.
Result<JoinBuildStatePtr> ExecuteParallelSpineBuild(
    const PlanNode& build_plan, const std::vector<int>& build_keys,
    ExecContext* ctx) {
  // Joins nested inside the build spine are built first, on the
  // coordinator — the order the sequential Open cascade charges them.
  std::vector<JoinBuildStatePtr> nested;
  ECODB_RETURN_NOT_OK(ExecuteSpineBuilds(build_plan, ctx, &nested));

  auto state = std::make_shared<JoinBuildState>();
  const Schema& s = build_plan.output_schema;
  const int n_cols = s.num_fields();
  const int build_width = s.RowWidth();
  state->schema = s;
  state->index.set_memory_tracker(ctx->memory_tracker());
  state->index.Reset();
  state->cols.resize(static_cast<size_t>(n_cols));
  for (int c = 0; c < n_cols; ++c) {
    state->cols[static_cast<size_t>(c)].Reset(s.field(c).type);
    state->cols[static_cast<size_t>(c)].set_memory_tracker(
        ctx->memory_tracker());
  }
  state->num_rows = 0;
  state->bytes = 0;

  ECODB_ASSIGN_OR_RETURN(const uint64_t total_rows,
                         SpineLeafRowCount(build_plan, ctx));
  MorselPool<BuildItem> pool(ctx, total_rows, ctx->exec_workers(),
                             kBatchQueueCapacity);
  pool.Start([&pool, &build_plan, &build_keys, &nested](size_t w) {
    BuildWorkerLoop(&pool, &build_plan, &build_keys, &nested, w);
  });
  Status merge = Status::OK();
  for (uint64_t m = 0; m < pool.num_morsels() && merge.ok(); ++m) {
    for (;;) {
      BuildItem item = pool.queue(m % pool.num_workers())->Pop();
      if (!item.charges.empty()) ctx->ReplayChargeLog(item.charges);
      if (!item.status.ok()) {
        merge = item.status;
        break;
      }
      if (item.morsel_done) break;
      // The sequential consume's per-batch order: build charges, then
      // ordered inserts, then pool appends.
      ctx->ChargeHashBuilds(item.n, build_width);
      state->bytes += static_cast<uint64_t>(item.n) *
                      static_cast<uint64_t>(build_width);
      for (uint32_t i = 0; i < item.n; ++i) {
        state->index.Insert(item.hashes[i], state->num_rows + i);
      }
      for (int c = 0; c < n_cols; ++c) {
        state->cols[static_cast<size_t>(c)].AppendColumn(
            item.cols[static_cast<size_t>(c)]);
      }
      state->num_rows += item.n;
    }
  }
  pool.AccrueWorkerTotals("join_build");
  for (JoinBuildStatePtr& b : nested) {
    if (b != nullptr) b->Clear();
  }
  ctx->Flush();  // the build child's Close position
  if (!merge.ok()) {
    state->Clear();
    return merge;
  }
  // Grace-hash spill of the build side — position parity with
  // ExecuteBuild (a no-op for the memory-resident profiles workers are
  // clamped to).
  ECODB_RETURN_NOT_OK(ctx->ChargeSpill(state->bytes));
  return state;
}

/// Runs every hash-join build subtree of the spine on the coordinator,
/// outermost join first — the order a single-threaded Open cascade
/// consumes them in, so the coordinator's charge stream matches. An
/// eligible build spine runs as a partitioned parallel build; everything
/// else falls back to the sequential insert loop (whose child may still
/// be a nested morsel stream).
Status ExecuteSpineBuilds(const PlanNode& node, ExecContext* ctx,
                          std::vector<JoinBuildStatePtr>* builds) {
  switch (node.kind) {
    case PlanKind::kScan:
      return Status::OK();
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return ExecuteSpineBuilds(*node.children[0], ctx, builds);
    case PlanKind::kHashJoin: {
      JoinBuildStatePtr state;
      if (ctx->exec_workers() > 1 && MorselEligibleSpine(*node.children[0])) {
        ECODB_ASSIGN_OR_RETURN(
            state, ExecuteParallelSpineBuild(*node.children[0],
                                             node.build_keys, ctx));
      } else {
        ECODB_ASSIGN_OR_RETURN(
            OperatorPtr build_child,
            InstantiateParallel(*node.children[0], ctx, /*full_drain=*/true));
        ECODB_ASSIGN_OR_RETURN(
            state,
            HashJoinOp::ExecuteBuild(ctx, build_child.get(), node.build_keys));
      }
      builds->push_back(std::move(state));
      return ExecuteSpineBuilds(*node.children[1], ctx, builds);
    }
    default:
      return Status::Internal(
          StrFormat("non-spine node %s in morsel spine", ToString(node.kind)));
  }
}

Result<OperatorPtr> InstantiateParallel(const PlanNode& node, ExecContext* ctx,
                                        bool full_drain) {
  if (full_drain && ctx->exec_workers() > 1 && MorselEligibleSpine(node)) {
    return OperatorPtr(
        std::make_unique<MorselStreamOp>(ctx, node, ctx->exec_workers()));
  }
  switch (node.kind) {
    case PlanKind::kScan:
      return OperatorPtr(std::make_unique<SeqScanOp>(ctx, node.table_name));
    case PlanKind::kFilter: {
      // A filter drains its child exactly when it is drained itself.
      ECODB_ASSIGN_OR_RETURN(
          OperatorPtr child,
          InstantiateParallel(*node.children[0], ctx, full_drain));
      return OperatorPtr(
          std::make_unique<FilterOp>(ctx, std::move(child), node.predicate));
    }
    case PlanKind::kProject: {
      ECODB_ASSIGN_OR_RETURN(
          OperatorPtr child,
          InstantiateParallel(*node.children[0], ctx, full_drain));
      return OperatorPtr(std::make_unique<ProjectOp>(
          ctx, std::move(child), node.exprs, node.names));
    }
    case PlanKind::kHashJoin: {
      // The build side is consumed to completion at Open regardless of
      // how far the join itself is driven; the probe side inherits. An
      // eligible build spine becomes a parallel partitioned build,
      // deferred into the join's Open via a thunk so its charges land at
      // the sequential build-phase position.
      OperatorPtr build;
      HashJoinOp::BuildThunk thunk;
      if (ctx->exec_workers() > 1 && MorselEligibleSpine(*node.children[0])) {
        std::shared_ptr<const PlanNode> build_plan(
            ClonePlan(*node.children[0]));
        std::vector<int> build_keys = node.build_keys;
        thunk = [build_plan,
                 build_keys](ExecContext* c) -> Result<JoinBuildStatePtr> {
          return ExecuteParallelSpineBuild(*build_plan, build_keys, c);
        };
      } else {
        ECODB_ASSIGN_OR_RETURN(
            build,
            InstantiateParallel(*node.children[0], ctx, /*full_drain=*/true));
      }
      ECODB_ASSIGN_OR_RETURN(
          OperatorPtr probe,
          InstantiateParallel(*node.children[1], ctx, full_drain));
      if (thunk != nullptr) {
        return OperatorPtr(std::make_unique<HashJoinOp>(
            ctx, std::move(thunk), std::move(probe), node.build_keys,
            node.probe_keys));
      }
      return OperatorPtr(std::make_unique<HashJoinOp>(
          ctx, std::move(build), std::move(probe), node.build_keys,
          node.probe_keys));
    }
    case PlanKind::kNestedLoopJoin: {
      ECODB_ASSIGN_OR_RETURN(
          OperatorPtr outer,
          InstantiateParallel(*node.children[0], ctx, full_drain));
      // Inner side is materialized at Open (always fully drained).
      ECODB_ASSIGN_OR_RETURN(
          OperatorPtr inner,
          InstantiateParallel(*node.children[1], ctx, /*full_drain=*/true));
      return OperatorPtr(std::make_unique<NestedLoopJoinOp>(
          ctx, std::move(outer), std::move(inner), node.predicate));
    }
    case PlanKind::kAggregate: {
      // An aggregation over an eligible spine runs its accumulate phase
      // in the worker pool with a deterministic coordinator merge.
      if (ctx->exec_workers() > 1 && MorselEligibleSpine(*node.children[0])) {
        return OperatorPtr(
            std::make_unique<MorselAggOp>(ctx, node, ctx->exec_workers()));
      }
      ECODB_ASSIGN_OR_RETURN(
          OperatorPtr child,
          InstantiateParallel(*node.children[0], ctx, /*full_drain=*/true));
      return OperatorPtr(std::make_unique<HashAggOp>(
          ctx, std::move(child), node.group_by, node.aggs));
    }
    case PlanKind::kSort: {
      // A sort over an eligible spine runs per-worker index sorts with a
      // coordinator merge.
      if (ctx->exec_workers() > 1 && MorselEligibleSpine(*node.children[0])) {
        return OperatorPtr(
            std::make_unique<MorselSortOp>(ctx, node, ctx->exec_workers()));
      }
      ECODB_ASSIGN_OR_RETURN(
          OperatorPtr child,
          InstantiateParallel(*node.children[0], ctx, /*full_drain=*/true));
      return OperatorPtr(
          std::make_unique<SortOp>(ctx, std::move(child), node.sort_keys));
    }
    case PlanKind::kLimit: {
      // A limit may stop pulling a *streaming* child early; such a child
      // is never wrapped. Materialized children (sort/agg) do all their
      // work at Open and their own children are full-drain slots.
      ECODB_ASSIGN_OR_RETURN(
          OperatorPtr child,
          InstantiateParallel(*node.children[0], ctx, /*full_drain=*/false));
      return OperatorPtr(
          std::make_unique<LimitOp>(ctx, std::move(child), node.limit));
    }
  }
  return Status::Internal("unknown plan kind");
}

}  // namespace

// --- MorselAggDriver ---

Status MorselAggDriver::Run(HashAggOp* op, const PlanNode& spine,
                            ExecContext* ctx, int requested_workers) {
  // Spine join builds at the sequential child-Open position.
  std::vector<JoinBuildStatePtr> builds;
  ECODB_RETURN_NOT_OK(ExecuteSpineBuilds(spine, ctx, &builds));

  // HashAggOp::Open's state reset.
  op->group_index_.set_memory_tracker(ctx->memory_tracker());
  op->ReleaseGroups();
  op->dict_memo_dicts_.clear();
  op->n_results_ = 0;
  op->result_pos_ = 0;

  ECODB_ASSIGN_OR_RETURN(const uint64_t total_rows,
                         SpineLeafRowCount(spine, ctx));
  MorselPool<AggItem> pool(ctx, total_rows, requested_workers,
                           kBatchQueueCapacity);
  pool.Start([op, &pool, &spine, &builds](size_t w) {
    WorkerLoop(op, &pool, &spine, &builds, w);
  });

  // maps[w][lo] = global group index of worker w's local ordinal `lo`;
  // rank1[g] = global group g's 1-based position in its hash chain — the
  // bucket-compare count the sequential chain walk charges to find it
  // again (chains append at the tail, so positions never change).
  std::vector<std::vector<uint32_t>> maps(pool.num_workers());
  std::vector<uint64_t> rank1;
  Status merge = Status::OK();
  for (uint64_t m = 0; m < pool.num_morsels() && merge.ok(); ++m) {
    const size_t w = m % pool.num_workers();
    for (;;) {
      AggItem item = pool.queue(w)->Pop();
      if (!item.charges.empty()) ctx->ReplayChargeLog(item.charges);
      if (!item.status.ok()) {
        merge = item.status;
        break;
      }
      if (item.morsel_done) break;
      MergeItem(op, ctx, &maps[w], &rank1, &item);
    }
  }
  pool.AccrueWorkerTotals("agg");
  for (JoinBuildStatePtr& b : builds) {
    if (b != nullptr) b->Clear();
  }
  ctx->Flush();  // the spine's Close position
  if (!merge.ok()) return merge;

  // HashAggOp::Open's tail: trailing eval drain, materialize, governor
  // high-water check, pool release, flush.
  ctx->ChargeEvalOps();
  op->MaterializeResults();
  ECODB_RETURN_NOT_OK(ctx->CheckGovernor());
  op->ReleaseGroups();
  ctx->Flush();
  return Status::OK();
}

void MorselAggDriver::WorkerLoop(HashAggOp* op, MorselPool<AggItem>* pool,
                                 const PlanNode* spine,
                                 const std::vector<JoinBuildStatePtr>* builds,
                                 size_t w) {
  ExecContext* ctx = pool->worker_ctx(w);
  ChargeLog log;
  ctx->BeginRecording(&log);
  const size_t n_keys = op->group_by_.size();
  const size_t n_aggs = op->aggs_.size();
  const int key_bytes = static_cast<int>(n_keys) * 8;
  // The worker's partial-grouping state persists across its morsels:
  // ordinals are dense FIFO positions in the worker's own
  // first-occurrence order, which is what the coordinator's per-worker
  // map indexes.
  FlatHashIndex local_index;
  local_index.Reset();
  std::vector<TypedColumn> local_keys(n_keys);
  for (size_t i = 0; i < n_keys; ++i) {
    local_keys[i].Reset(op->group_by_[i]->type());
  }
  ExprScratch scratch;
  std::vector<BatchOperand> key_vals(n_keys);
  std::vector<uint8_t> key_stable(n_keys, 0);
  for (uint64_t m = w; m < pool->num_morsels(); m += pool->num_workers()) {
    if (pool->cancel().load(std::memory_order_relaxed)) break;
    const uint64_t begin = m * kMorselRows;
    const uint64_t end = std::min(begin + kMorselRows, pool->total_rows());
    OperatorPtr tree;
    size_t next_build = 0;
    Status st;
    {
      Result<OperatorPtr> r =
          BuildMorselTree(*spine, ctx, begin, end, *builds, &next_build);
      if (r.ok()) {
        tree = std::move(r).value();
        st = tree->Open();
      } else {
        st = r.status();
      }
    }
    while (st.ok()) {
      RowBatch batch;
      bool has = false;
      st = tree->NextBatch(&batch, &has, RowBatch::kDefaultBatchRows);
      if (!st.ok() || !has) break;
      AggItem item;
      // Capture the spine's undrained eval residue (normally zero — the
      // streaming ops drain per batch) and run the breaker's own
      // expression evaluation against a local counter, so the recorded
      // log keeps only spine charges.
      EvalCounters brk = *ctx->eval_counters();
      *ctx->eval_counters() = EvalCounters();
      item.n = static_cast<uint32_t>(batch.active());
      for (size_t i = 0; i < n_keys; ++i) {
        key_vals[i].Resolve(*op->group_by_[i], batch, batch.sel(), &brk,
                            &scratch);
        key_stable[i] = HashAggOp::TableStrings(key_vals[i].lane());
      }
      item.args.resize(n_aggs);
      for (size_t i = 0; i < n_aggs; ++i) {
        const ExprPtr& arg = op->aggs_[i].arg;
        if (!arg) continue;
        item.args[i].Reset(arg->type());
        AppendExprColumn(*arg, batch, &brk, &scratch, &item.args[i]);
      }
      // Partial grouping: generic key hash (equal to the sequential
      // path's, dictionary fast path included) against the worker-local
      // index. The walk/insert counts here are the worker's as-if-local
      // work — scratch charges only.
      uint64_t local_cmps = 0;
      uint64_t local_new = 0;
      item.ordinals.reserve(item.n);
      for (uint32_t r : batch.sel()) {
        const auto key_at = [&](size_t i) { return key_vals[i].view_at(r); };
        size_t h = kRowKeyHashSeed;
        for (size_t i = 0; i < n_keys; ++i) {
          h = HashCombineKey(h, HashCellView(key_at(i)));
        }
        uint32_t lo =
            HashAggOp::FindGroup(local_index, local_keys, h, key_at,
                                 &local_cmps);
        if (lo == FlatHashIndex::kInvalid) {
          lo = static_cast<uint32_t>(local_index.size());
          if (item.new_hashes.empty()) {
            // Sized for the batch at its first new key, so a batch of new
            // keys does not regrow them key by key.
            item.new_hashes.reserve(item.n);
            item.new_keys.resize(n_keys);
            for (size_t i = 0; i < n_keys; ++i) {
              item.new_keys[i].Reset(op->group_by_[i]->type());
              item.new_keys[i].Reserve(item.n);
            }
          }
          for (size_t i = 0; i < n_keys; ++i) {
            HashAggOp::AppendKeyCell(&local_keys[i], key_at(i),
                                     key_stable[i] != 0);
            HashAggOp::AppendKeyCell(&item.new_keys[i], key_at(i),
                                     key_stable[i] != 0);
          }
          local_index.Insert(h, lo);
          item.new_hashes.push_back(h);
          ++local_new;
        }
        item.ordinals.push_back(lo);
      }
      item.evals = brk;
      {
        // As-if-local accounting for the worker's real work, mirroring
        // the sequential per-batch charge tail; feeds worker stats (the
        // per-core concurrency view) only.
        ScopedScratchCharges sc(ctx);
        ctx->ChargeHashProbes(item.n, key_bytes);
        ctx->ChargeHashBuilds(local_new, key_bytes);
        ctx->ChargeAggUpdates(item.n, static_cast<int>(n_aggs));
        EvalCounters save = *ctx->eval_counters();
        ctx->eval_counters()->comparisons = brk.comparisons + local_cmps;
        ctx->eval_counters()->arith_ops = brk.arith_ops;
        ctx->ChargeEvalOps();
        *ctx->eval_counters() = save;
      }
      item.charges = std::move(log);
      log.clear();
      if (!pool->queue(w)->Push(std::move(item), pool->cancel())) return;
    }
    if (tree != nullptr) tree->Close();
    AggItem done;
    done.morsel_done = true;
    done.status = st;
    done.charges = std::move(log);
    log.clear();
    if (!pool->queue(w)->Push(std::move(done), pool->cancel())) return;
    if (!st.ok()) return;
  }
  ctx->Flush();
}

void MorselAggDriver::MergeItem(HashAggOp* op, ExecContext* ctx,
                                std::vector<uint32_t>* map,
                                std::vector<uint64_t>* rank1, AggItem* item) {
  const size_t n_keys = op->group_by_.size();
  const size_t n_aggs = op->aggs_.size();
  const int key_bytes = static_cast<int>(n_keys) * 8;
  // Shipped key strings not in table storage live in the item's columns
  // and go away with it: a new global group copies them.
  std::vector<uint8_t> stable(n_keys, 0);
  for (size_t i = 0; i < n_keys && !item->new_keys.empty(); ++i) {
    stable[i] = HashAggOp::AggArg::OfColumn(item->new_keys[i]).stable;
  }
  uint64_t canonical_cmps = 0;
  uint64_t new_global = 0;
  uint32_t next_new = 0;
  std::vector<uint32_t>& gid = op->gid_;
  gid.resize(item->n);
  for (uint32_t j = 0; j < item->n; ++j) {
    const uint32_t lo = item->ordinals[j];
    if (lo < map->size()) {
      // Repeat of a key this worker has shipped before: the sequential
      // lookup would walk to the group's (fixed) chain position.
      gid[j] = (*map)[lo];
      canonical_cmps += (*rank1)[gid[j]];
      continue;
    }
    // First occurrence in this worker's stream. Walk the *global* chain
    // exactly as the sequential lookup would — groups are created in
    // first-global-occurrence order, so the chains (and therefore the
    // walk lengths) are identical to single-threaded execution.
    const uint32_t nk = next_new++;
    const size_t hash = item->new_hashes[nk];
    const auto key_at = [&](size_t i) { return item->new_keys[i].View(nk); };
    uint64_t examined = 0;
    uint32_t gi =
        HashAggOp::FindGroup(op->group_index_, op->keys_, hash, key_at,
                             &examined);
    canonical_cmps += examined;
    if (gi == FlatHashIndex::kInvalid) {
      gi = op->AddGroup(hash, key_at, stable);
      rank1->push_back(examined + 1);
      ++new_global;
    }
    map->push_back(gi);
    gid[j] = gi;
  }
  op->GrowStates();
  for (size_t i = 0; i < n_aggs; ++i) {
    const HashAggOp::AggArg arg =
        op->aggs_[i].arg ? HashAggOp::AggArg::OfColumn(item->args[i])
                         : HashAggOp::AggArg{};
    op->Fold(i, arg, /*rows=*/nullptr, item->n);
  }
  // The sequential per-batch charge tail.
  ctx->ChargeHashProbes(item->n, key_bytes);
  ctx->ChargeHashBuilds(new_global, key_bytes);
  ctx->ChargeAggUpdates(item->n, static_cast<int>(n_aggs));
  ctx->eval_counters()->comparisons += item->evals.comparisons +
                                       canonical_cmps;
  ctx->eval_counters()->arith_ops += item->evals.arith_ops;
  ctx->ChargeEvalOps();
}

// --- MorselSortDriver ---

Status MorselSortDriver::Run(SortOp* op, const PlanNode& spine,
                             ExecContext* ctx, int requested_workers) {
  std::vector<JoinBuildStatePtr> builds;
  ECODB_RETURN_NOT_OK(ExecuteSpineBuilds(spine, ctx, &builds));

  // SortOp::Open's reset plus the ConsumeChild prologue.
  op->order_.clear();
  op->pos_ = 0;
  op->schema_ = spine.output_schema;
  op->input_.Reset(op->schema_, ctx->memory_tracker());
  op->key_cols_.clear();
  op->key_cols_.resize(op->keys_.size());
  for (size_t k = 0; k < op->keys_.size(); ++k) {
    op->key_cols_[k].Reset(op->keys_[k].expr->type());
    op->key_cols_[k].set_memory_tracker(ctx->memory_tracker());
  }

  ECODB_ASSIGN_OR_RETURN(const uint64_t total_rows,
                         SpineLeafRowCount(spine, ctx));
  MorselPool<SortItem> pool(ctx, total_rows, requested_workers,
                            kSortQueueCapacity);
  pool.Start([op, &pool, &spine, &builds](size_t w) {
    WorkerLoop(op, &pool, &spine, &builds, w);
  });

  std::vector<SortedRun> runs;
  EvalCounters evals;
  Status merge = Status::OK();
  for (uint64_t m = 0; m < pool.num_morsels() && merge.ok(); ++m) {
    SortItem item = pool.queue(m % pool.num_workers())->Pop();
    if (!item.charges.empty()) ctx->ReplayChargeLog(item.charges);
    if (!item.status.ok()) {
      merge = item.status;
      break;
    }
    const size_t base = op->input_.size();
    merge = op->input_.AppendPool(item.input);
    if (!merge.ok()) break;
    for (size_t k = 0; k < op->keys_.size(); ++k) {
      op->key_cols_[k].AppendColumn(item.keys[k]);
    }
    evals.comparisons += item.evals.comparisons;
    evals.arith_ops += item.evals.arith_ops;
    if (item.n > 0) runs.push_back(SortedRun{base, std::move(item.order)});
  }
  pool.AccrueWorkerTotals("sort");
  for (JoinBuildStatePtr& b : builds) {
    if (b != nullptr) b->Clear();
  }
  ctx->Flush();  // the spine's Close position
  if (!merge.ok()) return merge;

  // The sequential consume tail: key-eval drain, governor high-water
  // check (input + key columns both live), the sort itself, key release.
  ctx->eval_counters()->comparisons += evals.comparisons;
  ctx->eval_counters()->arith_ops += evals.arith_ops;
  ctx->ChargeEvalOps();
  ECODB_RETURN_NOT_OK(ctx->CheckGovernor());
  MergeRuns(NormalizedKeys(op->key_cols_, op->keys_, op->input_.size()),
            runs, &op->order_);
  ctx->ChargeSortCompares(CanonicalSortCompares(op));
  op->key_cols_.clear();
  ctx->Flush();  // SortOp::Open's tail
  return Status::OK();
}

void MorselSortDriver::WorkerLoop(SortOp* op, MorselPool<SortItem>* pool,
                                  const PlanNode* spine,
                                  const std::vector<JoinBuildStatePtr>* builds,
                                  size_t w) {
  ExecContext* ctx = pool->worker_ctx(w);
  ChargeLog log;
  ctx->BeginRecording(&log);
  const Schema& s = spine->output_schema;
  const size_t n_keys = op->keys_.size();
  ExprScratch scratch;
  for (uint64_t m = w; m < pool->num_morsels(); m += pool->num_workers()) {
    if (pool->cancel().load(std::memory_order_relaxed)) break;
    const uint64_t begin = m * kMorselRows;
    const uint64_t end = std::min(begin + kMorselRows, pool->total_rows());
    SortItem item;
    item.input.Reset(s, nullptr);
    item.keys.resize(n_keys);
    for (size_t k = 0; k < n_keys; ++k) {
      item.keys[k].Reset(op->keys_[k].expr->type());
    }
    EvalCounters brk;
    OperatorPtr tree;
    size_t next_build = 0;
    Status st;
    {
      Result<OperatorPtr> r =
          BuildMorselTree(*spine, ctx, begin, end, *builds, &next_build);
      if (r.ok()) {
        tree = std::move(r).value();
        st = tree->Open();
      } else {
        st = r.status();
      }
    }
    if (st.ok()) {
      // As SortOp::ConsumeChild: sized for the spine's row bound.
      const size_t bound = tree->PendingRows();
      item.input.Reserve(bound);
      for (size_t k = 0; bound != SIZE_MAX && k < n_keys; ++k) {
        item.keys[k].Reserve(bound);
      }
    }
    while (st.ok()) {
      RowBatch batch;
      bool has = false;
      st = tree->NextBatch(&batch, &has, RowBatch::kDefaultBatchRows);
      if (!st.ok() || !has) break;
      // Breaker evals (key evaluation) accumulate in a local counter —
      // sequential sort drains them once at the end of its consume, not
      // per batch; the coordinator reproduces that with the shipped sums.
      brk.comparisons += ctx->eval_counters()->comparisons;
      brk.arith_ops += ctx->eval_counters()->arith_ops;
      *ctx->eval_counters() = EvalCounters();
      st = item.input.Append(batch);
      if (!st.ok()) break;
      for (size_t k = 0; k < n_keys; ++k) {
        AppendExprColumn(*op->keys_[k].expr, batch, &brk, &scratch,
                         &item.keys[k]);
      }
      item.n += static_cast<uint32_t>(batch.active());
    }
    if (tree != nullptr) tree->Close();
    if (st.ok()) {
      // Local sort on the run's normalized keys: the same total order as
      // the sequential sort restricted to the run (the local tiebreak
      // a < b equals the global one, the run being a contiguous global
      // range; rank-path keys rank locally, which orders the run's cells
      // the same). Compare counts here are as-if-local (scratch) — the
      // canonical count is replayed by the coordinator.
      const uint64_t local_compares =
          NormalizedKeys(item.keys, op->keys_, item.n).Sort(&item.order);
      {
        ScopedScratchCharges sc(ctx);
        ctx->ChargeSortCompares(local_compares);
        EvalCounters save = *ctx->eval_counters();
        *ctx->eval_counters() = brk;
        ctx->ChargeEvalOps();
        *ctx->eval_counters() = save;
      }
    }
    item.evals = brk;
    item.status = st;
    item.charges = std::move(log);
    log.clear();
    if (!pool->queue(w)->Push(std::move(item), pool->cancel())) return;
    if (!st.ok()) return;
  }
  ctx->Flush();
}

void MorselSortDriver::MergeRuns(const NormalizedKeys& keys,
                                 const std::vector<SortedRun>& runs,
                                 std::vector<uint32_t>* order) {
  order->clear();
  order->reserve(keys.num_rows());
  struct Head {
    size_t run;
    size_t pos;
  };
  const auto global_of = [&runs](const Head& h) -> uint32_t {
    return static_cast<uint32_t>(runs[h.run].base) + runs[h.run].order[h.pos];
  };
  // The sequential sort's total order over global indexes (globally
  // encoded keys, global position tiebreak). It is strict and total, so
  // the k-way merge of runs each sorted under it yields the unique sorted
  // permutation — exactly the sequential std::sort's order_.
  const auto heap_cmp = [&](const Head& a, const Head& b) {
    return keys.Less(global_of(b), global_of(a));
  };
  std::priority_queue<Head, std::vector<Head>, decltype(heap_cmp)> heap(
      heap_cmp);
  for (size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].order.empty()) heap.push(Head{i, 0});
  }
  while (!heap.empty()) {
    Head h = heap.top();
    heap.pop();
    order->push_back(global_of(h));
    if (++h.pos < runs[h.run].order.size()) heap.push(h);
  }
}

uint64_t MorselSortDriver::CanonicalSortCompares(const SortOp* op) {
  // The sequential sort's comparator is a strict total order whose
  // unique sorted permutation is order_, so comp(a, b) == rank[a] <
  // rank[b]. Re-running std::sort (same libstdc++ implementation) over
  // the same initial sequence with the rank oracle performs the exact
  // comparison sequence the sequential sort performed.
  const size_t n = op->input_.size();
  std::vector<uint32_t> rank(n);
  for (size_t i = 0; i < op->order_.size(); ++i) {
    rank[op->order_[i]] = static_cast<uint32_t>(i);
  }
  std::vector<uint32_t> replay(n);
  for (size_t i = 0; i < n; ++i) {
    replay[i] = static_cast<uint32_t>(i);
  }
  uint64_t compares = 0;
  std::sort(replay.begin(), replay.end(), [&](uint32_t a, uint32_t b) {
    ++compares;
    return rank[a] < rank[b];
  });
  return compares;
}

// --- Public entry points ---

bool MorselEligibleSpine(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kScan:
      return true;
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return MorselEligibleSpine(*node.children[0]);
    case PlanKind::kHashJoin:
      // Probe side must be a spine; the build side is consumed by the
      // coordinator (parallelized separately when itself eligible).
      return MorselEligibleSpine(*node.children[1]);
    default:
      return false;
  }
}

Result<OperatorPtr> InstantiateParallelPlan(const PlanNode& node,
                                            ExecContext* ctx) {
  return InstantiateParallel(node, ctx, /*full_drain=*/true);
}

}  // namespace ecodb
