#include "ecodb/exec/operators.h"

#include <algorithm>
#include <cassert>
#include <iterator>

#include "ecodb/exec/query_governor.h"
#include "ecodb/util/strings.h"

namespace ecodb {

ValueType AggSpec::ResultType() const {
  switch (kind) {
    case Kind::kCount:
      return ValueType::kInt64;
    case Kind::kSum:
    case Kind::kAvg:
      return ValueType::kDouble;
    case Kind::kMin:
    case Kind::kMax:
      return arg ? arg->type() : ValueType::kNull;
  }
  return ValueType::kNull;
}

Status Operator::EmitInto(ResultSet*, size_t, size_t*) {
  return Status::Internal("EmitInto on a streaming operator: " + name());
}

namespace {

/// Materialized emission into a batch: the n cells of every source as
/// one dense batch of n rows.
void GatherBatch(const std::vector<CellSource>& sources, size_t n,
                 RowBatch* out) {
  out->Reset(static_cast<int>(sources.size()));
  for (size_t c = 0; c < sources.size(); ++c) {
    GatherToLane(sources[c], n, out, static_cast<int>(c));
  }
  out->set_num_rows(n);
  out->ExtendIdentitySel(0);
}

}  // namespace

// --- SeqScanOp ---

SeqScanOp::SeqScanOp(ExecContext* ctx, const std::string& table_name)
    : ctx_(ctx), table_name_(table_name) {}

SeqScanOp::SeqScanOp(ExecContext* ctx, const std::string& table_name,
                     uint64_t begin_row, uint64_t end_row)
    : ctx_(ctx),
      table_name_(table_name),
      begin_row_(begin_row),
      end_row_(end_row) {}

Status SeqScanOp::Open() {
  const TableEntry* entry = ctx_->catalog()->FindEntry(table_name_);
  if (entry == nullptr) {
    return Status::NotFound(StrFormat("table %s", table_name_.c_str()));
  }
  // Seal before the first read: this query's batches and results borrow
  // the table's arrays in place, so they must never move.
  entry->table->Seal();
  table_ = entry->table.get();
  file_ = &entry->file;
  schema_ = table_->schema();
  // Dictionary compression (4-byte codes instead of string payloads)
  // lowers the scan's simulated byte traffic.
  row_width_ = table_->EncodedRowWidth();
  next_row_ = static_cast<size_t>(
      std::min<uint64_t>(begin_row_, table_->num_rows()));
  pages_fetched_ = 0;
  return Status::OK();
}

Status SeqScanOp::NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) {
  ECODB_RETURN_NOT_OK(ctx_->CheckGovernor());
  const int num_cols = schema_.num_fields();
  out->Reset(num_cols);
  const uint64_t total = std::min<uint64_t>(table_->num_rows(), end_row_);
  if (next_row_ >= total) {
    *has_rows = false;
    return Status::OK();
  }
  const size_t take =
      static_cast<size_t>(std::min<uint64_t>(max_rows, total - next_row_));
  const size_t batch_start = next_row_;
  const uint64_t rpp = file_->rows_per_page();
  // Account page-run by page-run: one FetchScanPages call per page entered
  // (the same I/O sequence and flush points at any cap), one bulk tuple
  // charge per run instead of one per row. The data itself is not copied:
  // the batch's lanes borrow the table's arrays for these rows.
  size_t remaining = take;
  while (remaining > 0) {
    if (next_row_ % rpp == 0) {
      ECODB_RETURN_NOT_OK(ctx_->FetchScanPages(
          file_->file_id(), next_row_ / rpp, 1, pages_fetched_));
      ++pages_fetched_;
    }
    const size_t run = static_cast<size_t>(
        std::min<uint64_t>(remaining, file_->RowsLeftInPage(next_row_)));
    ctx_->ChargeScanTuples(run, static_cast<uint64_t>(run) *
                                    static_cast<uint64_t>(row_width_));
    next_row_ += run;
    remaining -= run;
  }
  out->BorrowTableRows(*table_, batch_start, take);
  *has_rows = true;
  return Status::OK();
}

size_t SeqScanOp::PendingRows() const {
  const uint64_t end = std::min<uint64_t>(table_->num_rows(), end_row_);
  return next_row_ < end ? static_cast<size_t>(end - next_row_) : 0;
}

void SeqScanOp::Close() { ctx_->Flush(); }

// --- FilterOp ---

FilterOp::FilterOp(ExecContext* ctx, OperatorPtr child, ExprPtr predicate)
    : ctx_(ctx), child_(std::move(child)), predicate_(std::move(predicate)) {}

Status FilterOp::Open() {
  rows_in_ = rows_out_ = 0;
  return child_->Open();
}

Status FilterOp::NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) {
  for (;;) {
    bool child_has = false;
    ECODB_RETURN_NOT_OK(child_->NextBatch(out, &child_has, max_rows));
    if (!child_has) {
      *has_rows = false;
      return Status::OK();
    }
    rows_in_ += out->active();
    predicate_->FilterBatch(*out, &out->sel(), ctx_->eval_counters(),
                            &scratch_);
    ctx_->ChargeEvalOps();
    rows_out_ += out->active();
    if (!out->empty()) {
      *has_rows = true;
      return Status::OK();
    }
  }
}

void FilterOp::Close() {
  child_->Close();
  ctx_->Flush();
}

// --- ProjectOp ---

ProjectOp::ProjectOp(ExecContext* ctx, OperatorPtr child,
                     std::vector<ExprPtr> exprs,
                     std::vector<std::string> names)
    : ctx_(ctx), child_(std::move(child)), exprs_(std::move(exprs)) {
  std::vector<Field> fields;
  fields.reserve(exprs_.size());
  for (size_t i = 0; i < exprs_.size(); ++i) {
    fields.emplace_back(names[i], exprs_[i]->type());
  }
  schema_ = Schema(std::move(fields));
}

Status ProjectOp::Open() { return child_->Open(); }

void ProjectOp::EvalExprInto(size_t i, RowBatch* out) {
  const Expr& e = *exprs_[i];
  RowBatch::TypedLane* dst = out->StartLane(static_cast<int>(i), e.type());
  e.EvalBatch(input_batch_, input_batch_.sel(), dst, ctx_->eval_counters(),
              &scratch_);
  if (dst->kind != RowBatch::LaneKind::kStringRef || dst->is_borrowed()) {
    return;
  }
  if (e.kind() == ExprKind::kColumn) {
    // The gathered pointers reference whatever storage backs the input
    // lane; keep its arenas alive for `out`'s consumers.
    out->RetainStringStorage(input_batch_);
    return;
  }
  // A computed string (a literal's) is interned into `out`'s arena: the
  // result may outlive the plan that owns the literal.
  for (uint32_t r : input_batch_.sel()) {
    if (!dst->IsNullAt(r)) dst->str[r] = out->arena()->Intern(*dst->str[r]);
  }
}

Status ProjectOp::NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) {
  bool child_has = false;
  ECODB_RETURN_NOT_OK(child_->NextBatch(&input_batch_, &child_has, max_rows));
  if (!child_has) {
    *has_rows = false;
    return Status::OK();
  }
  out->Reset(static_cast<int>(exprs_.size()));
  for (size_t i = 0; i < exprs_.size(); ++i) {
    EvalExprInto(i, out);
  }
  ctx_->ChargeEvalOps();
  out->set_num_rows(input_batch_.num_rows());
  out->sel() = input_batch_.sel();
  *has_rows = true;
  return Status::OK();
}

void ProjectOp::Close() {
  child_->Close();
  ctx_->Flush();
}

// --- HashJoinOp ---

HashJoinOp::HashJoinOp(ExecContext* ctx, OperatorPtr build, OperatorPtr probe,
                       std::vector<int> build_keys,
                       std::vector<int> probe_keys)
    : ctx_(ctx),
      build_child_(std::move(build)),
      probe_child_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)) {
  assert(build_keys_.size() == probe_keys_.size());
}

HashJoinOp::HashJoinOp(ExecContext* ctx, JoinBuildStatePtr build,
                       OperatorPtr probe, std::vector<int> build_keys,
                       std::vector<int> probe_keys)
    : ctx_(ctx),
      probe_child_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      build_(std::move(build)),
      prebuilt_(true) {
  assert(build_keys_.size() == probe_keys_.size());
}

HashJoinOp::HashJoinOp(ExecContext* ctx, BuildThunk build_thunk,
                       OperatorPtr probe, std::vector<int> build_keys,
                       std::vector<int> probe_keys)
    : ctx_(ctx),
      probe_child_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      build_thunk_(std::move(build_thunk)) {
  assert(build_keys_.size() == probe_keys_.size());
}

bool HashJoinOp::KeysEqual(uint32_t idx, const RowBatch& probe_batch,
                           uint32_t probe_row) {
  for (size_t i = 0; i < build_keys_.size(); ++i) {
    ++ctx_->eval_counters()->comparisons;
    if (CompareCellViews(
            build_->cols[static_cast<size_t>(build_keys_[i])].View(idx),
            probe_batch.ViewCell(probe_keys_[i], probe_row)) != 0) {
      return false;
    }
  }
  return true;
}

namespace {

/// Drains an (already open) build child into `state`. Shared by the
/// normal Open path and HashJoinOp::ExecuteBuild; the charge sequence is
/// identical in both.
Status ConsumeJoinBuild(ExecContext* ctx, Operator* build_child,
                        const std::vector<int>& build_keys,
                        JoinBuildState* state) {
  const int build_width = build_child->schema().RowWidth();
  const int n_cols = build_child->schema().num_fields();
  state->schema = build_child->schema();
  state->index.set_memory_tracker(ctx->memory_tracker());
  state->index.Reset();
  state->cols.resize(static_cast<size_t>(n_cols));
  for (int c = 0; c < n_cols; ++c) {
    state->cols[static_cast<size_t>(c)].Reset(
        build_child->schema().field(c).type);
    state->cols[static_cast<size_t>(c)].set_memory_tracker(
        ctx->memory_tracker());
  }
  state->num_rows = 0;
  state->bytes = 0;
  RowBatch batch;
  bool has = false;
  std::vector<size_t> hash_scratch;
  for (;;) {
    ECODB_RETURN_NOT_OK(ctx->CheckGovernor());
    ECODB_RETURN_NOT_OK(
        build_child->NextBatch(&batch, &has, RowBatch::kDefaultBatchRows));
    if (!has) break;
    ctx->ChargeHashBuilds(batch.active(), build_width);
    state->bytes += static_cast<uint64_t>(batch.active()) *
                    static_cast<uint64_t>(build_width);
    // Hash all selected keys up front (typed lane arrays, borrowed or
    // owned), then append the batch to the typed contiguous pool
    // column-at-a-time — both equal per-row hashing and appends in row
    // order. Strings (table storage, dictionaries, arena-backed lanes)
    // enter the pool by pointer.
    HashKeyColumnsBatch(batch, build_keys, &hash_scratch);
    for (size_t i = 0; i < hash_scratch.size(); ++i) {
      state->index.Insert(hash_scratch[i],
                          state->num_rows + static_cast<uint32_t>(i));
    }
    for (int c = 0; c < n_cols; ++c) {
      state->cols[static_cast<size_t>(c)].AppendLane(batch, batch.lane(c));
    }
    state->num_rows += static_cast<uint32_t>(batch.active());
  }
  return Status::OK();
}

}  // namespace

Result<JoinBuildStatePtr> HashJoinOp::ExecuteBuild(
    ExecContext* ctx, Operator* build_child,
    const std::vector<int>& build_keys) {
  auto state = std::make_shared<JoinBuildState>();
  ECODB_RETURN_NOT_OK(build_child->Open());
  Status consume = ConsumeJoinBuild(ctx, build_child, build_keys, state.get());
  build_child->Close();
  ECODB_RETURN_NOT_OK(consume);
  // Grace-hash spill of the build side (commercial profile).
  ECODB_RETURN_NOT_OK(ctx->ChargeSpill(state->bytes));
  return state;
}

Status HashJoinOp::Open() {
  if (build_thunk_ != nullptr) {
    // Deferred (parallel partitioned) build. The thunk drains the build
    // plan to completion — including the trailing grace-hash spill
    // charge — at exactly the position the sequential build block below
    // runs, so the charge stream is position-identical. The state is
    // owned: Close tears it down like a normal build.
    ECODB_ASSIGN_OR_RETURN(build_, build_thunk_(ctx_));
  } else if (!prebuilt_) {
    build_ = std::make_shared<JoinBuildState>();
    ECODB_RETURN_NOT_OK(build_child_->Open());
    Status consume =
        ConsumeJoinBuild(ctx_, build_child_.get(), build_keys_, build_.get());
    // The build child is open mid-stream on failure; release its
    // resources before propagating (our own Close only closes the probe
    // side).
    build_child_->Close();
    ECODB_RETURN_NOT_OK(consume);
    // Grace-hash spill of the build side (commercial profile).
    ECODB_RETURN_NOT_OK(ctx_->ChargeSpill(build_->bytes));
  }
  probe_rows_ = 0;
  ECODB_RETURN_NOT_OK(probe_child_->Open());
  // Children only know their schemas once opened (scans bind to the
  // catalog in Open), so the concatenated schema is computed here — the
  // seed's constructor-time Concat saw two empty schemas, silently
  // zeroing the join's output-tuple width.
  schema_ = Schema::Concat(build_->schema, probe_child_->schema());
  probe_valid_ = false;
  probe_batch_valid_ = false;
  probe_sel_pos_ = 0;
  probe_eos_ = false;
  match_ = FlatHashIndex::kInvalid;
  return Status::OK();
}

void HashJoinOp::FlushMatches(RowBatch* out) {
  if (match_build_.empty()) return;
  const int n_build_cols = static_cast<int>(build_->cols.size());
  const int probe_cols = probe_child_->schema().num_fields();

  // Build side: gather raw values from the typed pool into output lanes.
  // String lanes point into the pool's refcounted arena, which `out`
  // retains — the pointers survive even the pool's own teardown.
  for (int c = 0; c < n_build_cols; ++c) {
    build_->cols[static_cast<size_t>(c)].GatherInto(
        out, c, match_build_.data(), match_build_.size());
  }

  // Probe side: gather per matched probe row, codes as codes and strings
  // by pointer (`out` retains the probe batch's arenas), so the cells
  // stay valid after this probe batch is replaced mid-call.
  for (int c = 0; c < probe_cols; ++c) {
    out->AppendGather(n_build_cols + c, probe_batch_, c, match_probe_.data(),
                      match_probe_.size());
  }

  match_build_.clear();
  match_probe_.clear();
}

Status HashJoinOp::NextBatch(RowBatch* out, bool* has_rows,
                             size_t max_rows) {
  const int num_cols = schema_.num_fields();
  const int probe_width = probe_child_->schema().RowWidth();
  out->Reset(num_cols);
  match_build_.clear();
  match_probe_.clear();
  size_t emitted = 0;
  while (emitted < max_rows) {
    if (probe_valid_) {
      const uint32_t pr = probe_batch_.sel()[probe_sel_pos_];
      while (match_ != FlatHashIndex::kInvalid && emitted < max_rows) {
        const uint32_t idx = match_;
        ++ctx_->eval_counters()->comparisons;  // bucket-chain traversal
        match_ = build_->index.Next(idx);
        if (KeysEqual(idx, probe_batch_, pr)) {
          // Record the match; the columnar copy happens in FlushMatches.
          match_build_.push_back(idx);
          match_probe_.push_back(pr);
          ++emitted;
        }
      }
      if (match_ != FlatHashIndex::kInvalid) break;  // out full; resume
      probe_valid_ = false;
      ++probe_sel_pos_;
      // Out full at a chain end: stop before touching the next probe
      // row, so a capped pull never reads or charges ahead of its cap.
      if (emitted == max_rows) break;
    }
    if (!probe_batch_valid_ || probe_sel_pos_ >= probe_batch_.active()) {
      if (probe_eos_) break;
      // The pending matches reference the current probe batch; gather
      // them into `out` before the batch is overwritten.
      FlushMatches(out);
      bool has = false;
      ECODB_RETURN_NOT_OK(
          probe_child_->NextBatch(&probe_batch_, &has, max_rows));
      if (!has) {
        probe_eos_ = true;
        break;
      }
      probe_batch_valid_ = true;
      probe_sel_pos_ = 0;
      probe_rows_ += probe_batch_.active();
      ctx_->ChargeHashProbes(probe_batch_.active(), probe_width);
      // Batch-at-a-time probe: hash every selected key up front, reading
      // lane arrays directly (a scan's lanes are the table's arrays).
      HashKeyColumnsBatch(probe_batch_, probe_keys_, &probe_hashes_);
    }
    match_ = build_->index.Find(probe_hashes_[probe_sel_pos_]);
    probe_valid_ = true;
  }
  FlushMatches(out);
  ctx_->ChargeEvalOps();
  out->set_num_rows(emitted);
  out->ExtendIdentitySel(0);
  *has_rows = emitted > 0;
  return Status::OK();
}

void HashJoinOp::Close() {
  probe_child_->Close();
  // Probe-side partitions of the grace hash.
  uint64_t probe_bytes =
      probe_rows_ * static_cast<uint64_t>(probe_child_->schema().RowWidth());
  ctx_->ChargeSpill(probe_bytes).ok();  // best-effort at teardown
  if (build_ != nullptr) {
    // Shared (prebuilt) state belongs to the coordinator; a worker Close
    // only drops its reference.
    if (!prebuilt_) build_->Clear();
    build_.reset();
  }
  ctx_->Flush();
}

// --- NestedLoopJoinOp ---

NestedLoopJoinOp::NestedLoopJoinOp(ExecContext* ctx, OperatorPtr outer,
                                   OperatorPtr inner, ExprPtr predicate)
    : ctx_(ctx),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      predicate_(std::move(predicate)) {}

Status NestedLoopJoinOp::ConsumeInnerSide() {
  const Schema& s = inner_->schema();
  inner_cols_.resize(static_cast<size_t>(s.num_fields()));
  for (int c = 0; c < s.num_fields(); ++c) {
    inner_cols_[static_cast<size_t>(c)].Reset(s.field(c).type);
    inner_cols_[static_cast<size_t>(c)].set_memory_tracker(
        ctx_->memory_tracker());
  }
  inner_rows_ = 0;
  RowBatch batch;
  bool has = false;
  for (;;) {
    ECODB_RETURN_NOT_OK(ctx_->CheckGovernor());
    ECODB_RETURN_NOT_OK(
        inner_->NextBatch(&batch, &has, RowBatch::kDefaultBatchRows));
    if (!has) break;
    for (int c = 0; c < s.num_fields(); ++c) {
      inner_cols_[static_cast<size_t>(c)].AppendLane(batch, batch.lane(c));
    }
    inner_rows_ += static_cast<uint32_t>(batch.active());
  }
  return Status::OK();
}

Status NestedLoopJoinOp::Open() {
  ECODB_RETURN_NOT_OK(inner_->Open());
  Status consume = ConsumeInnerSide();
  inner_->Close();
  ECODB_RETURN_NOT_OK(consume);
  ECODB_RETURN_NOT_OK(outer_->Open());
  schema_ = Schema::Concat(outer_->schema(), inner_->schema());
  inner_pos_ = 0;
  outer_batch_valid_ = false;
  outer_sel_pos_ = 0;
  outer_eos_ = false;
  return Status::OK();
}

void NestedLoopJoinOp::FlushOuter(RowBatch* out) {
  // Without pending pairs the outer batch may already be reset by an
  // end-of-stream pull.
  if (pair_outer_.empty()) return;
  for (int c = 0; c < outer_batch_.num_cols(); ++c) {
    out->AppendGather(c, outer_batch_, c, pair_outer_.data(),
                      pair_outer_.size());
  }
  pair_outer_.clear();
}

Status NestedLoopJoinOp::NextBatch(RowBatch* out, bool* has_rows,
                                   size_t max_rows) {
  const int outer_cols = outer_->schema().num_fields();
  for (;;) {
    out->Reset(schema_.num_fields());
    // Candidate rows are recorded as (outer row, inner entry) pairs and
    // gathered as typed lanes: outer cells out of the outer batch (before
    // it is replaced), inner cells out of the inner pool, whose arenas
    // `out` retains.
    pair_outer_.clear();
    pair_inner_.clear();
    // Build a batch of at most max_rows concatenated candidate rows.
    while (pair_inner_.size() < max_rows) {
      if (!outer_batch_valid_ || outer_sel_pos_ >= outer_batch_.active()) {
        if (outer_eos_) break;
        FlushOuter(out);
        bool has = false;
        ECODB_RETURN_NOT_OK(outer_->NextBatch(&outer_batch_, &has, max_rows));
        if (!has) {
          outer_eos_ = true;
          break;
        }
        outer_batch_valid_ = true;
        outer_sel_pos_ = 0;
        inner_pos_ = 0;
      }
      const uint32_t orow = outer_batch_.sel()[outer_sel_pos_];
      while (inner_pos_ < inner_rows_ && pair_inner_.size() < max_rows) {
        pair_outer_.push_back(orow);
        pair_inner_.push_back(inner_pos_++);
      }
      if (inner_pos_ >= inner_rows_) {
        ++outer_sel_pos_;
        inner_pos_ = 0;
      } else {
        break;  // out full mid-inner-loop; resume next call
      }
    }
    const size_t emitted = pair_inner_.size();
    if (emitted == 0) {
      *has_rows = false;
      return Status::OK();
    }
    FlushOuter(out);
    for (size_t c = 0; c < inner_cols_.size(); ++c) {
      inner_cols_[c].GatherInto(out, outer_cols + static_cast<int>(c),
                                pair_inner_.data(), emitted);
    }
    out->set_num_rows(emitted);
    out->ExtendIdentitySel(0);
    if (predicate_ != nullptr) {
      predicate_->FilterBatch(*out, &out->sel(), ctx_->eval_counters(),
                              &scratch_);
      ctx_->ChargeEvalOps();
    }
    if (!out->empty()) {
      *has_rows = true;
      return Status::OK();
    }
    // Every candidate failed the predicate; build the next batch.
  }
}

void NestedLoopJoinOp::Close() {
  outer_->Close();
  inner_cols_.clear();  // TypedColumn destructors release their tracked bytes
  inner_rows_ = 0;
  ctx_->Flush();
}

// --- HashAggOp ---

HashAggOp::HashAggOp(ExecContext* ctx, OperatorPtr child,
                     std::vector<ExprPtr> group_by, std::vector<AggSpec> aggs)
    : ctx_(ctx),
      child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {
  std::vector<Field> fields;
  for (size_t i = 0; i < group_by_.size(); ++i) {
    fields.emplace_back(StrFormat("group_%zu", i), group_by_[i]->type());
  }
  for (const AggSpec& a : aggs_) {
    fields.emplace_back(a.name, a.ResultType());
  }
  schema_ = Schema(std::move(fields));
  keys_.resize(group_by_.size());
  states_.resize(aggs_.size());
  arg_lanes_.resize(aggs_.size());
  for (size_t i = 0; i < keys_.size(); ++i) {
    keys_[i].Reset(group_by_[i]->type());
  }
}

HashAggOp::AggArg HashAggOp::AggArg::OfLane(const RowBatch::TypedLane& l) {
  // Only the array of the lane's kind is read.
  AggArg a;
  a.kind = l.kind;
  a.i64 = l.i64_data();
  a.f64 = l.f64_data();
  a.str = l.str_data();
  a.codes = l.code_data();
  a.dict = l.dict;
  a.nulls = l.has_nulls ? l.nulls.data() : nullptr;
  a.stable = TableStrings(&l);
  return a;
}

HashAggOp::AggArg HashAggOp::AggArg::OfColumn(const TypedColumn& col) {
  AggArg a;
  a.kind = RowBatch::LaneKindFor(col.type());
  a.i64 = col.i64().data();
  a.f64 = col.f64().data();
  a.str = col.strp().data();
  a.nulls = col.has_nulls() ? col.nulls().data() : nullptr;
  // A column that copied no string and retained no arena holds only
  // pointers into table storage.
  a.stable = (col.strings() == nullptr || col.strings()->empty()) &&
             col.retained_arenas().empty();
  return a;
}

namespace {

/// Calls f(gid[k], row) for each non-null argument cell k < n in order,
/// row being rows[k] (k when `rows` is nullptr).
template <typename F>
inline void ForEachCell(const uint8_t* nulls, const uint32_t* rows,
                        const uint32_t* gid, size_t n, F&& f) {
  if (rows == nullptr) {
    for (uint32_t k = 0; k < n; ++k) {
      if (nulls == nullptr || nulls[k] == 0) f(gid[k], k);
    }
    return;
  }
  if (nulls == nullptr) {
    for (size_t k = 0; k < n; ++k) f(gid[k], rows[k]);
    return;
  }
  for (size_t k = 0; k < n; ++k) {
    if (nulls[rows[k]] == 0) f(gid[k], rows[k]);
  }
}

/// MIN (kMin) or MAX of the cells v[row] into slot[g]: the first cell a
/// group sees, then any that compares strictly beyond it — the same
/// winner, -0.0 against +0.0 included, as CompareCellViews would pick.
template <bool kMin, typename T>
void FoldExtreme(const T* v, const uint8_t* nulls, const uint32_t* rows,
                 const uint32_t* gid, size_t n, T* slot, uint64_t* count) {
  ForEachCell(nulls, rows, gid, n, [&](uint32_t g, uint32_t r) {
    const T x = v[r];
    if (count[g] == 0 || (kMin ? x < slot[g] : slot[g] < x)) slot[g] = x;
    ++count[g];
  });
}

/// MIN/MAX of one argument into its state (HashAggOp::AggArg and
/// AggState, which are private to the operator). Strings compare by
/// bytes, equal pointers (one table entry) short-circuiting; a winner
/// that is not `stable` is copied into its group's owned string, so it
/// outlives the batch it came from.
template <bool kMin, typename Arg, typename State>
void FoldMinMax(const Arg& a, const uint32_t* rows, const uint32_t* gid,
                size_t n, State* st) {
  uint64_t* count = st->count.data();
  if (a.kind == RowBatch::LaneKind::kInt64) {
    FoldExtreme<kMin>(a.i64, a.nulls, rows, gid, n, st->i64.data(), count);
    return;
  }
  if (a.kind == RowBatch::LaneKind::kDouble) {
    FoldExtreme<kMin>(a.f64, a.nulls, rows, gid, n, st->f64.data(), count);
    return;
  }
  const std::string** slot = st->str.data();
  if (a.kind == RowBatch::LaneKind::kStringCode) {
    // A dictionary's entries are sorted in one array, so two of them
    // order by address: against a winner that is one of this lane's
    // entries the pointers alone decide, and bytes are compared only
    // against a winner from elsewhere.
    const std::string* const lo =
        a.dict->dict_size() > 0 ? &a.dict->DictString(0) : nullptr;
    const uintptr_t base = reinterpret_cast<uintptr_t>(lo);
    const uintptr_t span = a.dict->dict_size() * sizeof(std::string);
    const int32_t* const codes = a.codes;
    ForEachCell(a.nulls, rows, gid, n, [=](uint32_t g, uint32_t r) {
      const std::string* x = lo + codes[r];
      const uintptr_t xi = reinterpret_cast<uintptr_t>(x);
      const std::string* cur = slot[g];
      const uintptr_t ci = reinterpret_cast<uintptr_t>(cur);
      if (count[g] == 0 ||
          (ci - base < span ? (kMin ? xi < ci : ci < xi)
                            : (kMin ? *x < *cur : *cur < *x))) {
        slot[g] = x;
      }
      ++count[g];
    });
    return;
  }
  if (!a.stable) {
    if (!st->owned) st->owned.emplace();
    if (st->owned->size() < st->count.size()) {
      st->owned->resize(st->count.size());
    }
  }
  ForEachCell(a.nulls, rows, gid, n, [&](uint32_t g, uint32_t r) {
    const std::string* x = a.str[r];
    if (count[g] == 0 ||
        (x != slot[g] && (kMin ? *x < *slot[g] : *slot[g] < *x))) {
      if (a.stable) {
        slot[g] = x;
      } else {
        std::string& copy = (*st->owned)[g];
        st->owned_bytes += x->size();
        st->owned_bytes -= copy.size();
        copy.assign(*x);
        slot[g] = &copy;
      }
    }
    ++count[g];
  });
}

}  // namespace

void HashAggOp::Fold(size_t i, const AggArg& a, const uint32_t* rows,
                     size_t n) {
  AggState* st = &states_[i];
  const uint32_t* gid = gid_.data();
  uint64_t* count = st->count.data();
  double* sum = st->sum.data();
  if (a.kind == RowBatch::LaneKind::kNone) {  // COUNT(*)
    for (size_t k = 0; k < n; ++k) ++count[gid[k]];
    return;
  }
  switch (aggs_[i].kind) {
    case AggSpec::Kind::kSum:
    case AggSpec::Kind::kAvg:
      if (a.kind == RowBatch::LaneKind::kDouble) {
        const double* v = a.f64;
        ForEachCell(a.nulls, rows, gid, n, [&](uint32_t g, uint32_t r) {
          sum[g] += v[r];
          ++count[g];
        });
        return;
      }
      if (a.kind == RowBatch::LaneKind::kInt64) {
        const int64_t* v = a.i64;
        ForEachCell(a.nulls, rows, gid, n, [&](uint32_t g, uint32_t r) {
          sum[g] += static_cast<double>(v[r]);
          ++count[g];
        });
        return;
      }
      [[fallthrough]];  // a string cell sums as 0.0: it only counts
    case AggSpec::Kind::kCount:
      ForEachCell(a.nulls, rows, gid, n,
                  [count](uint32_t g, uint32_t) { ++count[g]; });
      return;
    case AggSpec::Kind::kMin:
      FoldMinMax<true>(a, rows, gid, n, st);
      return;
    case AggSpec::Kind::kMax:
      FoldMinMax<false>(a, rows, gid, n, st);
      return;
  }
}

void HashAggOp::TrackOwnedWinners() {
  uint64_t held = 0;
  for (const AggState& st : states_) held += st.owned_bytes;
  MemoryTracker* tracker = ctx_->memory_tracker();
  if (held > owned_charged_) {
    tracker->Charge(held - owned_charged_);
  } else {
    tracker->Release(owned_charged_ - held);
  }
  group_pool_bytes_ += held;
  group_pool_bytes_ -= owned_charged_;
  owned_charged_ = held;
}

void HashAggOp::GrowStates() {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    AggState& st = states_[i];
    if (st.count.size() == n_groups_) continue;
    st.count.resize(n_groups_, 0);
    switch (aggs_[i].kind) {
      case AggSpec::Kind::kCount:
        break;
      case AggSpec::Kind::kSum:
      case AggSpec::Kind::kAvg:
        st.sum.resize(n_groups_, 0.0);
        break;
      case AggSpec::Kind::kMin:
      case AggSpec::Kind::kMax:
        switch (RowBatch::LaneKindFor(aggs_[i].ResultType())) {
          case RowBatch::LaneKind::kDouble:
            st.f64.resize(n_groups_, 0.0);
            break;
          case RowBatch::LaneKind::kStringRef:
            st.str.resize(n_groups_, nullptr);
            break;
          default:
            st.i64.resize(n_groups_, 0);
            break;
        }
        break;
    }
  }
}

void HashAggOp::ReleaseGroups() {
  group_index_.Reset();
  for (size_t i = 0; i < keys_.size(); ++i) {
    keys_[i].Reset(group_by_[i]->type());
  }
  states_.assign(aggs_.size(), AggState{});
  n_groups_ = 0;
  ctx_->memory_tracker()->Release(group_pool_bytes_);
  group_pool_bytes_ = 0;
  owned_charged_ = 0;
}

Status HashAggOp::ConsumeChild() {
  RowBatch batch;
  bool has = false;
  const size_t n_keys = group_by_.size();
  const int key_bytes = static_cast<int>(n_keys) * 8;
  std::vector<BatchOperand> key_vals(n_keys);
  std::vector<uint8_t> key_stable(n_keys, 0);
  std::vector<AggArg> args(aggs_.size());
  // Dict fast-path scratch, hoisted so steady-state batches allocate
  // nothing (the alloc-count suite pins this).
  std::vector<const Column*> key_dicts(n_keys, nullptr);
  std::vector<const int32_t*> key_codes(n_keys, nullptr);
  for (;;) {
    ECODB_RETURN_NOT_OK(ctx_->CheckGovernor());
    ECODB_RETURN_NOT_OK(
        child_->NextBatch(&batch, &has, RowBatch::kDefaultBatchRows));
    if (!has) break;
    const std::vector<uint32_t>& sel = batch.sel();
    // Vectorized evaluation of group keys and aggregate arguments into
    // typed lanes: plain column references read the batch's own lanes,
    // anything else evaluates once per batch into a lane.
    for (size_t i = 0; i < n_keys; ++i) {
      key_vals[i].Resolve(*group_by_[i], batch, sel, ctx_->eval_counters(),
                          &scratch_);
      key_stable[i] = TableStrings(key_vals[i].lane());
    }
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const Expr* arg = aggs_[i].arg.get();
      if (arg == nullptr) {
        args[i] = AggArg{};
      } else if (arg->kind() == ExprKind::kColumn) {
        args[i] = AggArg::OfLane(
            batch.lane(static_cast<const ColumnExpr*>(arg)->index()));
      } else {
        arg->EvalBatch(batch, sel, &arg_lanes_[i], ctx_->eval_counters(),
                       &scratch_);
        args[i] = AggArg::OfLane(arg_lanes_[i]);
      }
    }
    uint64_t new_groups = 0;
    // Dictionary fast path: every group key resolved to the codes of a
    // dict-encoded column. Key hashes come from the dictionaries' cached
    // entry hashes and group lookups are memoized per composite code
    // (mixed-radix over the dictionaries' sizes).
    constexpr size_t kDictMemoMaxEntries = size_t{1} << 16;
    bool all_dict = n_keys > 0;
    size_t memo_entries = 1;
    for (size_t i = 0; i < n_keys && all_dict; ++i) {
      const RowBatch::TypedLane* lane = key_vals[i].lane();
      const bool codes = lane != nullptr && lane->is_null_free_codes();
      key_dicts[i] = codes ? lane->dict : nullptr;
      key_codes[i] = codes ? lane->code_data() : nullptr;
      if (key_dicts[i] == nullptr ||
          memo_entries > kDictMemoMaxEntries / key_dicts[i]->dict_size()) {
        all_dict = false;
      } else {
        memo_entries *= key_dicts[i]->dict_size();
      }
    }
    if (!all_dict) key_dicts.assign(n_keys, nullptr);
    if (key_dicts != dict_memo_dicts_) {
      dict_memo_dicts_ = key_dicts;
      dict_memo_group_.assign(all_dict ? memo_entries : 0,
                              FlatHashIndex::kInvalid);
      dict_memo_cmps_.assign(dict_memo_group_.size(), 0);
    }
    // Pass 1: the group id of every selected row. Hash and bucket-compare
    // against unboxed key views; a key is copied into the key columns only
    // when its group is created.
    const size_t n = sel.size();
    gid_.resize(n);
    uint64_t* comparisons = &ctx_->eval_counters()->comparisons;
    for (size_t k = 0; k < n; ++k) {
      const uint32_t r = sel[k];
      const auto key_at = [&](size_t i) { return key_vals[i].view_at(r); };
      const auto find_or_create = [&](size_t h) {
        const uint32_t g = FindGroup(group_index_, keys_, h, key_at,
                                     comparisons);
        if (g != FlatHashIndex::kInvalid) return g;
        ++new_groups;
        return AddGroup(h, key_at, key_stable);
      };
      if (all_dict) {
        size_t code = 0;
        for (size_t i = 0; i < n_keys; ++i) {
          code = code * key_dicts[i]->dict_size() +
                 static_cast<size_t>(key_codes[i][r]);
        }
        uint32_t& memo = dict_memo_group_[code];
        if (memo != FlatHashIndex::kInvalid) {
          // Memo hit: replay the chain walk's bucket-compare charge (its
          // length is fixed — chains append at the tail and this group's
          // position in its chain never changes) and jump to the group.
          *comparisons += dict_memo_cmps_[code];
          gid_[k] = memo;
          continue;
        }
        size_t h = kRowKeyHashSeed;
        for (size_t i = 0; i < n_keys; ++i) {
          h = HashCombineKey(h, key_dicts[i]->DictHash(key_codes[i][r]));
        }
        const uint64_t cmp_before = *comparisons;
        const uint64_t groups_before = new_groups;
        memo = find_or_create(h);
        // A future lookup of this key walks the same chain prefix plus
        // (when this call inserted the group) the matching entry itself.
        dict_memo_cmps_[code] = static_cast<uint32_t>(
            *comparisons - cmp_before + (new_groups > groups_before ? 1 : 0));
        gid_[k] = memo;
      } else {
        size_t h = kRowKeyHashSeed;
        for (size_t i = 0; i < n_keys; ++i) {
          h = HashCombineKey(h, HashCellView(key_vals[i].view_at(r)));
        }
        gid_[k] = find_or_create(h);
      }
    }
    // Pass 2: one fold loop per aggregate over the selection.
    GrowStates();
    for (size_t i = 0; i < aggs_.size(); ++i) {
      Fold(i, args[i], sel.data(), n);
    }
    TrackOwnedWinners();
    ctx_->ChargeHashProbes(batch.active(), key_bytes);
    ctx_->ChargeHashBuilds(new_groups, key_bytes);
    ctx_->ChargeAggUpdates(batch.active(), static_cast<int>(aggs_.size()));
    ctx_->ChargeEvalOps();
  }
  return Status::OK();
}

void HashAggOp::MaterializeResults() {
  const int n_fields = schema_.num_fields();
  result_cols_.resize(static_cast<size_t>(n_fields));
  for (int c = 0; c < n_fields; ++c) {
    result_cols_[static_cast<size_t>(c)].Reset(schema_.field(c).type);
    result_cols_[static_cast<size_t>(c)].set_memory_tracker(
        ctx_->memory_tracker());
  }
  // Global aggregate over empty input still yields one row (SQL
  // semantics): emit a zero-count group (untracked; never indexed).
  if (n_groups_ == 0 && group_by_.empty()) {
    n_groups_ = 1;
    GrowStates();
  }
  n_results_ = n_groups_;

  // Column-at-a-time, in group-creation order (deterministic): the key
  // columns are appended whole, the states finalized into typed lanes.
  for (size_t k = 0; k < group_by_.size(); ++k) {
    result_cols_[k].AppendColumn(keys_[k]);
  }
  for (size_t i = 0; i < aggs_.size(); ++i) {
    // COUNT/SUM/AVG columns are declared kInt64/kDouble (AggSpec::
    // ResultType) and nothing else is ever appended, so the typed
    // non-null appends are legal throughout.
    TypedColumn& col = result_cols_[group_by_.size() + i];
    const AggState& st = states_[i];
    const AggSpec::Kind kind = aggs_[i].kind;
    const ValueType type = aggs_[i].ResultType();
    col.Reserve(n_results_);
    for (size_t g = 0; g < n_results_; ++g) {
      const uint64_t count = st.count[g];
      if (kind == AggSpec::Kind::kCount) {
        col.AppendNonNullInt64(static_cast<int64_t>(count));
      } else if (count == 0) {
        col.Append(CellView::Null());
      } else if (kind == AggSpec::Kind::kSum) {
        col.AppendNonNullDouble(st.sum[g]);
      } else if (kind == AggSpec::Kind::kAvg) {
        col.AppendNonNullDouble(st.sum[g] / static_cast<double>(count));
      } else if (type == ValueType::kDouble) {
        col.AppendNonNullDouble(st.f64[g]);
      } else if (type != ValueType::kString) {
        col.Append(CellView::Int64(st.i64[g], type));
      } else {
        col.Append(CellView::String(st.str[g]));
      }
    }
  }
  emit_src_.clear();
  for (const TypedColumn& col : result_cols_) {
    emit_src_.push_back(CellSource{&col, nullptr, nullptr});
  }
}

Status HashAggOp::Open() {
  ECODB_RETURN_NOT_OK(child_->Open());
  group_index_.set_memory_tracker(ctx_->memory_tracker());
  ReleaseGroups();
  dict_memo_dicts_.clear();  // group ids below are gone; drop the memo
  n_results_ = 0;
  result_pos_ = 0;

  Status consume = ConsumeChild();
  if (!consume.ok()) {
    child_->Close();
    return consume;
  }
  child_->Close();
  // Drain the trailing bucket-compare / aggregate-argument counters (the
  // per-row drain above only covers work up to the previous row).
  ctx_->ChargeEvalOps();

  MaterializeResults();
  // Governor check at the high-water point — group state and result
  // columns both live — before the groups are released, so a memory
  // budget below this operator's peak latches here (the consume loop
  // above only checks at pull granularity).
  ECODB_RETURN_NOT_OK(ctx_->CheckGovernor());
  ReleaseGroups();
  ctx_->Flush();
  return Status::OK();
}

size_t HashAggOp::NextEmitSources(size_t max_rows) {
  const size_t take = std::min(max_rows, n_results_ - result_pos_);
  emit_idx_.resize(take);
  for (size_t i = 0; i < take; ++i) {
    emit_idx_[i] = static_cast<uint32_t>(result_pos_ + i);
  }
  for (CellSource& src : emit_src_) src.idx = emit_idx_.data();
  result_pos_ += take;
  return take;
}

Status HashAggOp::NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) {
  if (result_pos_ >= n_results_) {
    out->Reset(schema_.num_fields());
    *has_rows = false;
    return Status::OK();
  }
  // Typed-lane gather from the immutable result columns (strings by
  // pointer into the columns' arenas, retained by `out`).
  const size_t take = NextEmitSources(max_rows);
  GatherBatch(emit_src_, take, out);
  *has_rows = true;
  return Status::OK();
}

Status HashAggOp::EmitInto(ResultSet* out, size_t max_rows, size_t* taken) {
  *taken = NextEmitSources(max_rows);
  out->AppendGather(emit_src_, *taken);
  return Status::OK();
}

void HashAggOp::Close() {
  // The groups are normally released at the end of Open; a governed
  // kill mid-consume leaves them populated, so release here too.
  ReleaseGroups();
  emit_src_.clear();
  result_cols_.clear();
  n_results_ = 0;
  result_pos_ = 0;
  ctx_->Flush();
}

// --- SortOp ---

SortOp::SortOp(ExecContext* ctx, OperatorPtr child, std::vector<SortKey> keys)
    : ctx_(ctx), child_(std::move(child)), keys_(std::move(keys)) {}

Status SortOp::Open() {
  ECODB_RETURN_NOT_OK(child_->Open());
  order_.clear();
  pos_ = 0;
  // ConsumeChild closes the child itself (on success and on error), as
  // soon as the input is drained and before the sort.
  ECODB_RETURN_NOT_OK(ConsumeChild());
  ctx_->Flush();
  return Status::OK();
}

Status SortOp::ConsumeChild() {
  // Sized for the child's row bound when it has one (a scan chain), so
  // the input never regrows.
  const size_t bound = child_->PendingRows();
  input_.Reset(child_->schema(), ctx_->memory_tracker());
  input_.Reserve(bound);
  key_cols_.resize(keys_.size());
  for (size_t k = 0; k < keys_.size(); ++k) {
    key_cols_[k].Reset(keys_[k].expr->type());
    key_cols_[k].set_memory_tracker(ctx_->memory_tracker());
    if (bound != SIZE_MAX) key_cols_[k].Reserve(bound);
  }

  // Hold the input (table rows for the columns a scan lends, typed
  // columns for the rest) and evaluate the sort keys into typed columns,
  // column-at-a-time. Owned input strings enter by pointer with the
  // backing arenas retained; a computed key string (a literal's) is
  // borrowed from the expression.
  RowBatch batch;
  bool has = false;
  for (;;) {
    Status st = ctx_->CheckGovernor();
    if (st.ok()) {
      st = child_->NextBatch(&batch, &has, RowBatch::kDefaultBatchRows);
    }
    if (st.ok() && has) st = input_.Append(batch);
    if (!st.ok()) {
      child_->Close();
      return st;
    }
    if (!has) break;
    for (size_t k = 0; k < keys_.size(); ++k) {
      AppendExprColumn(*keys_[k].expr, batch, ctx_->eval_counters(),
                       &scratch_, &key_cols_[k]);
    }
  }
  child_->Close();
  ctx_->ChargeEvalOps();

  // High-water check — input plus key columns both live.
  ECODB_RETURN_NOT_OK(ctx_->CheckGovernor());

  // Sort on normalized keys: the CompareCellViews order with the input
  // position as the last tiebreak, strict and total, so the sort is
  // stable. The charge is a function of the row count alone.
  NormalizedKeys(key_cols_, keys_, input_.size()).Sort(&order_);
  ctx_->ChargeSortCompares(SortCompareCharge(input_.size()));
  // The key columns are only read by the encoder; release them here so
  // the tracker's peak reflects the sort, not the emission.
  key_cols_.clear();
  return Status::OK();
}

Status SortOp::NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) {
  if (pos_ >= input_.size()) {
    out->Reset(schema().num_fields());
    *has_rows = false;
    return Status::OK();
  }
  // Gather typed lanes in sorted order; strings go out by pointer into
  // table storage or the pool's arenas, which `out` retains.
  const size_t take = std::min(max_rows, input_.size() - pos_);
  input_.Sources(order_.data() + pos_, take, &emit_src_);
  GatherBatch(emit_src_, take, out);
  pos_ += take;
  *has_rows = true;
  return Status::OK();
}

Status SortOp::EmitInto(ResultSet* out, size_t max_rows, size_t* taken) {
  *taken = std::min(max_rows, input_.size() - pos_);
  input_.Sources(order_.data() + pos_, *taken, &emit_src_);
  out->AppendGather(emit_src_, *taken);
  pos_ += *taken;
  return Status::OK();
}

void SortOp::Close() {
  emit_src_.clear();
  input_.Clear();     // releases its tracked bytes
  key_cols_.clear();  // (already cleared after the sort on the normal path)
  order_.clear();
  pos_ = 0;
  ctx_->Flush();
}

// --- LimitOp ---

LimitOp::LimitOp(ExecContext* ctx, OperatorPtr child, int64_t limit)
    : ctx_(ctx), child_(std::move(child)), limit_(limit) {}

Status LimitOp::Open() {
  produced_ = 0;
  return child_->Open();
}

Status LimitOp::NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) {
  if (limit_ >= 0 && produced_ >= limit_) {
    out->Reset(child_->schema().num_fields());
    *has_rows = false;
    return Status::OK();
  }
  size_t want = max_rows;
  if (limit_ >= 0) {
    want = std::min(want, static_cast<size_t>(limit_ - produced_));
  }
  // A streaming child is pulled one row at a time so the subtree stops
  // reading (and charging) at exactly the row that completes the limit;
  // a materialized child charges nothing to emit, so it fills `want`.
  const size_t cap = child_->MaterializedEmission() ? want : 1;
  bool has = false;
  ECODB_RETURN_NOT_OK(child_->NextBatch(out, &has, cap));
  produced_ += has ? static_cast<int64_t>(out->active()) : 0;
  *has_rows = has;
  return Status::OK();
}

Status LimitOp::EmitInto(ResultSet* out, size_t max_rows, size_t* taken) {
  *taken = 0;
  const size_t want = std::min(max_rows, RowsLeft());
  if (want == 0) return Status::OK();
  ECODB_RETURN_NOT_OK(child_->EmitInto(out, want, taken));
  produced_ += static_cast<int64_t>(*taken);
  return Status::OK();
}

void LimitOp::Close() {
  child_->Close();
  ctx_->Flush();
}

// --- ResultDrain / ExecuteOperatorColumnar / ExecuteOperator ---

void ResultDrain::Start(Operator* op, ExecContext* ctx) {
  op_ = op;
  ctx_ = ctx;
  materialized_ = op->MaterializedEmission();
  set_.Reset(op->schema());
  if (materialized_) set_.Reserve(op->PendingRows());
  width_ = op->schema().RowWidth();
  emitted_ = false;
  charged_ = 0;
  result_bytes_ = 0;
}

Status ResultDrain::Step(bool* done) {
  *done = false;
  size_t take = 0;
  bool has = false;
  Status st = ctx_->CheckGovernor();
  if (st.ok() && materialized_) {
    if (!emitted_) {
      size_t all = 0;
      st = op_->EmitInto(&set_, SIZE_MAX, &all);
      emitted_ = true;
    }
    take = std::min(RowBatch::kDefaultBatchRows, set_.num_rows() - charged_);
    charged_ += take;
    has = take > 0;
  } else if (st.ok()) {
    st = op_->NextBatch(&batch_, &has, RowBatch::kDefaultBatchRows);
    if (st.ok() && has) {
      take = batch_.active();
      set_.AppendBatch(batch_);
    }
  }
  if (!st.ok()) {
    Close();
    return st;
  }
  if (!has) {
    Close();
    ctx_->Flush();
    *done = true;
    return Status::OK();
  }
  ctx_->ChargeOutputTuples(take, width_);
  const uint64_t rb =
      static_cast<uint64_t>(take) * static_cast<uint64_t>(width_);
  ctx_->memory_tracker()->Charge(rb);
  result_bytes_ += rb;
  return Status::OK();
}

void ResultDrain::Close() {
  ctx_->memory_tracker()->Release(result_bytes_);
  result_bytes_ = 0;
  op_->Close();
}

Result<ResultSet> ExecuteOperatorColumnar(Operator* op, ExecContext* ctx) {
  Status open = op->Open();
  if (!open.ok()) {
    // Close the partially-opened stack: Open failures (governor trips,
    // injected faults) can leave materialized pools populated, and every
    // operator's Close releases its own state idempotently.
    op->Close();
    return open;
  }
  ResultDrain drain;
  drain.Start(op, ctx);
  for (bool done = false; !done;) ECODB_RETURN_NOT_OK(drain.Step(&done));
  return drain.TakeResult();
}

Result<std::vector<Row>> ExecuteOperator(Operator* op, ExecContext* ctx) {
  ECODB_ASSIGN_OR_RETURN(ResultSet set, ExecuteOperatorColumnar(op, ctx));
  return set.TakeRows();
}

}  // namespace ecodb
