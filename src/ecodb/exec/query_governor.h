// QueryGovernor: per-query deadline, budget, and cancellation limits.
//
// A governor is constructed by Database::ExecutePlanQuery when any limit
// is set, attached to the query's ExecContext, and consulted cooperatively
// at two kinds of points:
//
//   1. Flush-quantum boundaries inside ExecContext::MaybeFlush. These are
//      the only points where the charged-cycle cancellation trigger and
//      the CPU-time deadline can trip, because quantum boundaries land at
//      fixed charged-cycle positions whatever the pull size — so a
//      governor trip freezes cycles_charged (bit-exact) and the machine
//      ledger (to flush rounding) at the same logical point whether the
//      pipeline was drained a batch or (under a LIMIT) a row at a time.
//   2. Operator check points (scan page fetches, breaker consume loops,
//      the result drain loop) via ExecContext::CheckGovernor. These
//      observe the external cancel flag, the logical memory budget, and
//      a deadline advanced by simulated I/O time.
//
// A trip latches: the first non-OK status wins, and a tripped ExecContext
// suppresses all further flushes (pending work is discarded, never
// charged), keeping the energy integration consistent and deterministic.
// Checks run in a fixed order — cancel, then budget, then deadline — so
// a query violating several limits at once always reports the same
// code.

#ifndef ECODB_EXEC_QUERY_GOVERNOR_H_
#define ECODB_EXEC_QUERY_GOVERNOR_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "ecodb/storage/value.h"
#include "ecodb/util/memory_tracker.h"
#include "ecodb/util/status.h"

namespace ecodb {

/// Per-query resource limits. Default-constructed limits disable the
/// governor entirely (None() is true, queries run exactly as before).
struct QueryLimits {
  /// Simulated-seconds deadline, relative to the machine clock at query
  /// start. <= 0 means no deadline.
  double deadline_seconds = 0.0;

  /// Logical-byte budget for query scratch + result memory (see
  /// MemoryTracker for the accounting unit). 0 means unlimited.
  uint64_t memory_budget_bytes = 0;

  /// Cancel once stats.cycles_charged reaches this many inflated cycles.
  /// Trips only at flush-quantum boundaries, which makes the trip point
  /// bit-exact across execution modes; primarily a deterministic testing
  /// hook for "cancel mid-stream at a reproducible point". <= 0 disables.
  double cancel_at_charged_cycles = 0.0;

  /// Cooperative external cancellation: set to true from anywhere (e.g. a
  /// driver thread) and the query terminates with kCancelled at its next
  /// check point. Null disables.
  std::shared_ptr<std::atomic<bool>> cancel_flag;

  bool None() const {
    return deadline_seconds <= 0.0 && memory_budget_bytes == 0 &&
           cancel_at_charged_cycles <= 0.0 && cancel_flag == nullptr;
  }
};

class QueryGovernor {
 public:
  /// `query_start_seconds` is the machine clock at query admission; a
  /// relative deadline is converted to an absolute simulated time here.
  QueryGovernor(const QueryLimits& limits, double query_start_seconds);

  bool tripped() const { return !trip_.ok(); }
  const Status& trip_status() const { return trip_; }

  /// Latches the first non-OK status; later trips are ignored.
  void Trip(const Status& status) {
    if (trip_.ok() && !status.ok()) trip_ = status;
  }

  bool CancelRequested() const {
    return limits_.cancel_flag != nullptr &&
           limits_.cancel_flag->load(std::memory_order_relaxed);
  }
  bool CyclesTriggerHit(double cycles_charged) const {
    return limits_.cancel_at_charged_cycles > 0.0 &&
           cycles_charged >= limits_.cancel_at_charged_cycles;
  }
  bool BudgetExceeded(uint64_t current_bytes) const {
    return limits_.memory_budget_bytes > 0 &&
           current_bytes > limits_.memory_budget_bytes;
  }
  bool DeadlinePassed(double now_seconds) const {
    return deadline_abs_seconds_ > 0.0 && now_seconds >= deadline_abs_seconds_;
  }

  const QueryLimits& limits() const { return limits_; }
  double deadline_abs_seconds() const { return deadline_abs_seconds_; }

 private:
  QueryLimits limits_;
  double deadline_abs_seconds_ = 0.0;  ///< absolute; <= 0 disables
  Status trip_ = Status::OK();
};

/// Logical size of one cell, the unit MemoryTracker counts in: 1 byte for
/// NULL, 8 for any numeric/date/bool, 8 + payload length for a string.
/// Independent of the cell's representation (lane, boxed Value, borrowed
/// pointer), which is what makes memory-budget trips deterministic.
inline uint64_t LogicalCellBytes(const CellView& v) {
  switch (v.type) {
    case ValueType::kNull:
      return 1;
    case ValueType::kString:
      return 8 + (v.s != nullptr ? v.s->size() : 0);
    default:
      return 8;
  }
}

}  // namespace ecodb

#endif  // ECODB_EXEC_QUERY_GOVERNOR_H_
