// ExecContext: the bridge between logical operator work and the simulated
// machine. Operators report logical operations (tuples scanned, predicates
// evaluated, hash probes, ...); the context converts them to CPU cycles
// and DRAM traffic using the EngineProfile and charges the Machine in
// batches.

#ifndef ECODB_EXEC_EXEC_CONTEXT_H_
#define ECODB_EXEC_EXEC_CONTEXT_H_

#include <cstdint>

#include "ecodb/core/engine_profile.h"
#include "ecodb/exec/charge_log.h"
#include "ecodb/exec/query_governor.h"
#include "ecodb/sim/machine.h"
#include "ecodb/storage/buffer_pool.h"
#include "ecodb/storage/catalog.h"
#include "ecodb/util/memory_tracker.h"
#include "ecodb/util/status.h"

namespace ecodb {

/// Logical-operation counters accumulated during expression evaluation.
/// Comparisons are counted lazily (short-circuit AND/OR), which is what
/// gives QED's merged disjunctions their paper-shaped cost curve.
struct EvalCounters {
  uint64_t comparisons = 0;
  uint64_t arith_ops = 0;
};

/// Aggregate execution statistics for one query/batch (diagnostics).
struct QueryExecStats {
  uint64_t tuples_scanned = 0;
  uint64_t tuples_output = 0;
  uint64_t comparisons = 0;
  uint64_t arith_ops = 0;
  uint64_t hash_builds = 0;
  uint64_t hash_probes = 0;
  uint64_t agg_updates = 0;
  uint64_t sort_compares = 0;
  double cycles_charged = 0;
  double mem_lines_charged = 0;
  uint64_t spill_bytes = 0;
  /// High-water mark of the query's tracked logical scratch bytes (see
  /// MemoryTracker); mirrored live from the context's tracker.
  uint64_t peak_memory_bytes = 0;
};

class ExecContext {
 public:
  ExecContext(Machine* machine, const EngineProfile* profile,
              Catalog* catalog, BufferPool* buffer_pool);

  Machine* machine() { return machine_; }
  const EngineProfile& profile() const { return *profile_; }
  Catalog* catalog() { return catalog_; }
  BufferPool* buffer_pool() { return buffer_pool_; }

  /// Expression evaluation counters (flushed into cycles by operators).
  EvalCounters* eval_counters() { return &eval_; }

  /// Worker count the morsel layer may use for eligible pipelines; 1 means
  /// single-threaded (the default, and the reference the parallel engine
  /// is held bit-exact to). Set by Database::ExecutePlanQuery after
  /// clamping (memory-resident profile, no governor).
  int exec_workers() const { return exec_workers_; }
  void set_exec_workers(int n) { exec_workers_ = n < 1 ? 1 : n; }

  /// How this query's work loads the CPU. Captured from the profile at
  /// construction so two contexts with different profiles can charge the
  /// same Machine concurrently without stomping a shared global.
  LoadClass load_class() const { return load_class_; }

  // --- Charge recording (morsel workers) ---

  /// Routes subsequent charges into `log` instead of the machine: Charge*
  /// calls update stats_ and append one ChargeRecord each; Flush folds
  /// pending cycles/lines into stats_ without machine contact (the worker
  /// totals feed per-core accrual). The coordinator replays the log later
  /// for the parity account. Pass nullptr to stop recording.
  void BeginRecording(ChargeLog* log) { recording_ = log; }
  bool recording() const { return recording_ != nullptr; }
  /// The log charges are currently routed into (null when charging the
  /// machine directly). Lets a scope divert charges into a scratch log
  /// and restore the previous target afterwards — see ScopedScratchCharges
  /// in exec/morsel.cc: breaker drivers charge workers' as-if-local work
  /// (hash builds they only partially perform, canonical replays the
  /// coordinator re-issues) into worker stats for the per-core concurrency
  /// view without letting it leak into the replayed parity stream.
  ChargeLog* recording_log() const { return recording_; }

  /// Re-applies a recorded charge stream through this context's normal
  /// charge path (stats, flush quanta, machine, governor) — the
  /// deterministic fold of worker charges into the shared ledger.
  void ReplayChargeLog(const ChargeLog& log);

  // --- Logical work reporting (called by operators) ---
  //
  // Each call charges `n` tuples' worth of logical work with one stats
  // update and one pending-cycle accumulation. The cycle formula is
  // linear in `n`, so simulated totals do not depend on how many rows a
  // pull carries (bit-exact for the integer counters, within
  // fp-associativity for cycles).

  void ChargeScanTuples(uint64_t n, uint64_t total_bytes);
  void ChargeHashBuilds(uint64_t n, int key_bytes);
  void ChargeHashProbes(uint64_t n, int key_bytes);
  void ChargeAggUpdates(uint64_t n, int n_aggregates);
  void ChargeSortCompares(uint64_t n);
  void ChargeOutputTuples(uint64_t n, int bytes_per_tuple);
  /// Drains eval_counters into cycles.
  void ChargeEvalOps();
  /// Raw cycle charge (split costs, custom work).
  void ChargeCycles(double cycles, double mem_lines = 0.0);

  /// Spill `bytes` to temp storage and read them back (grace-hash model).
  /// No-op for memory-resident profiles.
  Status ChargeSpill(uint64_t bytes);

  /// Page fetch for a scan; charges real simulated I/O only for
  /// disk-backed profiles. `scan_page_seq` counts pages fetched by this
  /// scan so far, to drive the cold_random_page_period mixing.
  Status FetchScanPages(uint32_t file_id, uint64_t first_page, uint64_t count,
                        uint64_t scan_page_ordinal);

  /// Flushes pending cycles/lines to the machine. Called at structural
  /// points (operator Close, before simulated I/O); between those points
  /// pending work auto-drains in *exact* kFlushCycleThreshold-cycle
  /// quanta with a proportional share of pending memory lines, so the
  /// machine sees flush boundaries at fixed charged-cycle positions
  /// regardless of whether operators report work a row or a batch at a
  /// time — the bus-contention model is nonlinear per flush, and
  /// granularity-dependent boundaries would let simulated time/energy
  /// drift with the pull size (a LIMIT pulls one row at a time).
  void Flush();

  const QueryExecStats& stats() const { return stats_; }
  void ResetStats();

  // --- Query governor (optional; null = unlimited, zero-overhead) ---

  /// Attaches a per-query governor. The context does not own it; the
  /// caller (Database::ExecutePlanQuery) keeps it alive for the query.
  void set_governor(QueryGovernor* governor) { governor_ = governor; }
  QueryGovernor* governor() { return governor_; }

  /// Cooperative limit check, called by operators at pull/consume
  /// boundaries. Observes (in this order, for determinism):
  /// an already-latched trip, the external cancel flag, the logical
  /// memory budget, and the simulated-time deadline. Returns the trip
  /// status once tripped; OK otherwise. The charged-cycle cancellation
  /// trigger and the CPU-time deadline additionally trip *inside*
  /// MaybeFlush at exact quantum boundaries (see Flush), which is what
  /// makes a governed kill land at a bit-exact charged-cycle position
  /// whatever the pull size.
  Status CheckGovernor();

  /// The query's logical-byte scratch accounting (always present; cheap
  /// when nothing attaches to it). Operators hand this to their pools.
  MemoryTracker* memory_tracker() { return &tracker_; }

  /// Re-derives settings-dependent cached state (the underclock CPI
  /// inflation) from the machine's *current* operating point, flushing
  /// pending work first so cycles charged before the switch are inflated
  /// at the old point. The workload scheduler calls this on every
  /// in-flight query's context after a degradation-ladder eco/stock
  /// transition; single-query execution never changes settings mid-run.
  void RefreshSettings();

 private:
  void MaybeFlush();

  void Record(const ChargeRecord& rec) {
    if (recording_ != nullptr) recording_->push_back(rec);
  }

  /// Quantum of the auto-drain (~6 simulated ms at 3.2 GHz): large enough
  /// that the lines-vs-cycles mix of one quantum is insensitive to charge
  /// arrival order (energy does not depend on pull size, even on
  /// sub-millisecond queries), small enough that long scans still step
  /// the power integration many times.
  static constexpr double kFlushCycleThreshold = 2.0e7;

  Machine* machine_;
  const EngineProfile* profile_;
  Catalog* catalog_;
  BufferPool* buffer_pool_;

  EvalCounters eval_;
  QueryExecStats stats_;
  int exec_workers_ = 1;
  LoadClass load_class_ = LoadClass::kSustained;
  QueryGovernor* governor_ = nullptr;  ///< not owned; null = no limits
  ChargeLog* recording_ = nullptr;     ///< not owned; null = charge machine
  MemoryTracker tracker_;

  double pending_cycles_ = 0;
  double pending_lines_ = 0;
  double cycle_inflation_ = 1.0;  ///< 1 + k*uc^2, cached per settings
};

}  // namespace ecodb

#endif  // ECODB_EXEC_EXEC_CONTEXT_H_
