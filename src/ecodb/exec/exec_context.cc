#include "ecodb/exec/exec_context.h"

namespace ecodb {

ExecContext::ExecContext(Machine* machine, const EngineProfile* profile,
                         Catalog* catalog, BufferPool* buffer_pool)
    : machine_(machine),
      profile_(profile),
      catalog_(catalog),
      buffer_pool_(buffer_pool) {
  double uc = machine_->settings().underclock;
  cycle_inflation_ = 1.0 + profile_->underclock_cpi_penalty * uc * uc * uc;
  // Per-context, not machine-global: two contexts with different profiles
  // (or per-core worker contexts) must not stomp each other's load class.
  load_class_ = profile_->load_class;
  tracker_.BindPeakMirror(&stats_.peak_memory_bytes);
}

void ExecContext::RefreshSettings() {
  Flush();
  double uc = machine_->settings().underclock;
  cycle_inflation_ = 1.0 + profile_->underclock_cpi_penalty * uc * uc * uc;
}

Status ExecContext::CheckGovernor() {
  if (governor_ == nullptr) return Status::OK();
  if (governor_->tripped()) return governor_->trip_status();
  if (governor_->CancelRequested()) {
    governor_->Trip(Status::Cancelled("query cancelled by caller"));
  } else if (governor_->BudgetExceeded(tracker_.current_bytes())) {
    governor_->Trip(
        Status::ResourceExhausted("query memory budget exceeded"));
  } else if (governor_->DeadlinePassed(machine_->NowSeconds())) {
    governor_->Trip(
        Status::DeadlineExceeded("query deadline exceeded (simulated time)"));
  }
  return governor_->trip_status();
}

void ExecContext::ChargeScanTuples(uint64_t n, uint64_t total_bytes) {
  if (n == 0) return;
  stats_.tuples_scanned += n;
  pending_cycles_ += profile_->scan_tuple_cycles * static_cast<double>(n) +
                     profile_->scan_byte_cycles *
                         static_cast<double>(total_bytes);
  pending_lines_ += (static_cast<double>(total_bytes) / 64.0) *
                    profile_->scan_line_factor;
  Record({ChargeRecord::Kind::kScanTuples, n, total_bytes, 0.0, 0.0});
  MaybeFlush();
}

void ExecContext::ChargeHashBuilds(uint64_t n, int key_bytes) {
  if (n == 0) return;
  stats_.hash_builds += n;
  pending_cycles_ +=
      static_cast<double>(n) * (profile_->hash_build_cycles +
                                profile_->scan_byte_cycles * key_bytes);
  pending_lines_ += profile_->hash_op_lines * static_cast<double>(n);
  Record({ChargeRecord::Kind::kHashBuilds, n,
          static_cast<uint64_t>(key_bytes), 0.0, 0.0});
  MaybeFlush();
}

void ExecContext::ChargeHashProbes(uint64_t n, int key_bytes) {
  if (n == 0) return;
  stats_.hash_probes += n;
  pending_cycles_ +=
      static_cast<double>(n) * (profile_->hash_probe_cycles +
                                profile_->scan_byte_cycles * key_bytes);
  pending_lines_ += profile_->hash_op_lines * static_cast<double>(n);
  Record({ChargeRecord::Kind::kHashProbes, n,
          static_cast<uint64_t>(key_bytes), 0.0, 0.0});
  MaybeFlush();
}

void ExecContext::ChargeAggUpdates(uint64_t n, int n_aggregates) {
  if (n == 0) return;
  stats_.agg_updates += n;
  pending_cycles_ +=
      static_cast<double>(n) * profile_->agg_update_cycles * n_aggregates;
  Record({ChargeRecord::Kind::kAggUpdates, n,
          static_cast<uint64_t>(n_aggregates), 0.0, 0.0});
  MaybeFlush();
}

void ExecContext::ChargeSortCompares(uint64_t n) {
  if (n == 0) return;
  stats_.sort_compares += n;
  pending_cycles_ += profile_->sort_compare_cycles * static_cast<double>(n);
  Record({ChargeRecord::Kind::kSortCompares, n, 0, 0.0, 0.0});
  MaybeFlush();
}

void ExecContext::ChargeOutputTuples(uint64_t n, int bytes_per_tuple) {
  if (n == 0) return;
  stats_.tuples_output += n;
  pending_cycles_ +=
      static_cast<double>(n) * (profile_->output_tuple_cycles +
                                profile_->output_byte_cycles * bytes_per_tuple);
  pending_lines_ += profile_->output_tuple_lines * static_cast<double>(n);
  Record({ChargeRecord::Kind::kOutputTuples, n,
          static_cast<uint64_t>(bytes_per_tuple), 0.0, 0.0});
  MaybeFlush();
}

void ExecContext::ChargeEvalOps() {
  // Hot drain point (called once per pull, so once per row under a
  // LIMIT): skip the stats/cycle updates when nothing accumulated.
  if (eval_.comparisons == 0 && eval_.arith_ops == 0) return;
  stats_.comparisons += eval_.comparisons;
  stats_.arith_ops += eval_.arith_ops;
  pending_cycles_ +=
      profile_->compare_cycles * static_cast<double>(eval_.comparisons) +
      profile_->arith_cycles * static_cast<double>(eval_.arith_ops);
  Record({ChargeRecord::Kind::kEvalOps, eval_.comparisons, eval_.arith_ops,
          0.0, 0.0});
  eval_ = EvalCounters();
  MaybeFlush();
}

void ExecContext::ChargeCycles(double cycles, double mem_lines) {
  pending_cycles_ += cycles;
  pending_lines_ += mem_lines;
  Record({ChargeRecord::Kind::kCycles, 0, 0, cycles, mem_lines});
  MaybeFlush();
}

Status ExecContext::ChargeSpill(uint64_t bytes) {
  // A tripped query charges no further I/O: spill volume depends on
  // in-flight state after a trip, and the ledger must freeze at the
  // trip point.
  if (governor_ != nullptr && governor_->tripped()) {
    return governor_->trip_status();
  }
  if (!profile_->disk_backed || profile_->spill_fraction <= 0.0 || bytes == 0) {
    return Status::OK();
  }
  uint64_t spilled =
      static_cast<uint64_t>(static_cast<double>(bytes) * profile_->spill_fraction);
  if (spilled == 0) return Status::OK();
  stats_.spill_bytes += spilled;
  Flush();
  // Write partitions out, read them back: 2x the spilled volume, streamed.
  // Ceil-div: an exact page multiple is exactly that many requests.
  uint64_t requests = (spilled + kPageSizeBytes - 1) / kPageSizeBytes;
  ECODB_RETURN_NOT_OK(machine_->DiskRead(spilled, requests, false));
  ECODB_RETURN_NOT_OK(machine_->DiskRead(spilled, requests, false));
  return Status::OK();
}

Status ExecContext::FetchScanPages(uint32_t file_id, uint64_t first_page,
                                   uint64_t count,
                                   uint64_t scan_page_ordinal) {
  // Page boundaries are fixed positions in the scan whatever the pull
  // size (scans fetch one page at a time), so this check keeps governed
  // kills — including deadline trips advanced by I/O time — aligned, and
  // stops a tripped query from issuing further I/O.
  ECODB_RETURN_NOT_OK(CheckGovernor());
  if (!profile_->disk_backed || buffer_pool_ == nullptr) return Status::OK();
  Flush();  // keep machine time ordered: CPU work before the I/O wait
  int period = profile_->cold_random_page_period;
  if (period > 0 && count == 1 &&
      scan_page_ordinal % static_cast<uint64_t>(period) ==
          static_cast<uint64_t>(period - 1)) {
    return buffer_pool_->FetchPage(PageId{file_id, first_page},
                                   AccessHint::kRandom);
  }
  return buffer_pool_->FetchRange(file_id, first_page, count,
                                  AccessHint::kSequential);
}

void ExecContext::MaybeFlush() {
  // Drain in *exact* threshold-sized cycle quanta (with a proportional
  // share of the pending memory lines) instead of dumping whatever has
  // accumulated. Flush boundaries therefore live at fixed positions in
  // charged-cycle space — structural points (operator close, I/O) plus
  // every kFlushCycleThreshold cycles — regardless of whether the work
  // arrived a row at a time or in bulk batch charges. The machine's
  // bus-contention model is nonlinear in the per-flush (cycles, lines)
  // mix, so granularity-dependent boundaries would make simulated time
  // and energy drift with the pull size on short queries.
  //
  // Governor interplay: once tripped, the query charges nothing further —
  // pending work is discarded, freezing cycles_charged and the machine
  // ledger at the last quantum boundary. Because quanta live at fixed
  // charged-cycle positions, a charged-cycle cancellation (and a CPU-time
  // deadline) trips at a bit-exact cycles_charged value whether the work
  // arrived per-row or per-batch.
  if (governor_ != nullptr && governor_->tripped()) {
    pending_cycles_ = 0;
    pending_lines_ = 0;
    return;
  }
  // Recording contexts never touch the machine; pending work simply
  // accumulates until Flush folds it into the worker's stats. The quantum
  // schedule is reproduced when the coordinator replays the log.
  if (recording_ != nullptr) return;
  while (pending_cycles_ >= kFlushCycleThreshold) {
    const double frac = kFlushCycleThreshold / pending_cycles_;
    const double lines = pending_lines_ * frac;
    double cycles = kFlushCycleThreshold * cycle_inflation_;
    stats_.cycles_charged += cycles;
    stats_.mem_lines_charged += lines;
    machine_->ExecuteCpu(cycles, lines, load_class_);
    pending_cycles_ -= kFlushCycleThreshold;
    pending_lines_ -= lines;
    if (governor_ != nullptr) {
      if (governor_->CyclesTriggerHit(stats_.cycles_charged)) {
        governor_->Trip(
            Status::Cancelled("query cancelled at charged-cycle trigger"));
      } else if (governor_->DeadlinePassed(machine_->NowSeconds())) {
        governor_->Trip(Status::DeadlineExceeded(
            "query deadline exceeded (simulated time)"));
      }
      if (governor_->tripped()) {
        pending_cycles_ = 0;
        pending_lines_ = 0;
        return;
      }
    }
  }
}

void ExecContext::Flush() {
  MaybeFlush();  // discards everything when the governor has tripped
  if (pending_cycles_ <= 0 && pending_lines_ <= 0) return;
  double cycles = pending_cycles_ * cycle_inflation_;
  stats_.cycles_charged += cycles;
  stats_.mem_lines_charged += pending_lines_;
  if (recording_ == nullptr) {
    machine_->ExecuteCpu(cycles, pending_lines_, load_class_);
  }
  pending_cycles_ = 0;
  pending_lines_ = 0;
}

void ExecContext::ReplayChargeLog(const ChargeLog& log) {
  for (const ChargeRecord& rec : log) {
    switch (rec.kind) {
      case ChargeRecord::Kind::kScanTuples:
        ChargeScanTuples(rec.a, rec.b);
        break;
      case ChargeRecord::Kind::kHashBuilds:
        ChargeHashBuilds(rec.a, static_cast<int>(rec.b));
        break;
      case ChargeRecord::Kind::kHashProbes:
        ChargeHashProbes(rec.a, static_cast<int>(rec.b));
        break;
      case ChargeRecord::Kind::kAggUpdates:
        ChargeAggUpdates(rec.a, static_cast<int>(rec.b));
        break;
      case ChargeRecord::Kind::kSortCompares:
        ChargeSortCompares(rec.a);
        break;
      case ChargeRecord::Kind::kOutputTuples:
        ChargeOutputTuples(rec.a, static_cast<int>(rec.b));
        break;
      case ChargeRecord::Kind::kEvalOps:
        // Re-create the drain point: add the worker's counters to this
        // context's accumulator and drain, exactly as the single-threaded
        // operator's ChargeEvalOps call would have at this position.
        eval_.comparisons += rec.a;
        eval_.arith_ops += rec.b;
        ChargeEvalOps();
        break;
      case ChargeRecord::Kind::kCycles:
        ChargeCycles(rec.x, rec.y);
        break;
    }
  }
}

void ExecContext::ResetStats() {
  stats_ = QueryExecStats();
  eval_ = EvalCounters();
  tracker_.ResetPeak();  // re-mirrors the peak into the fresh stats
}

}  // namespace ecodb
