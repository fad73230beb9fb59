// Morsel-driven parallel execution over batch pipelines.
//
// A "spine" is the streaming prefix of a batch pipeline — a scan leaf
// under any stack of filters, projections and hash-join *probes*. The
// morsel layer splits the spine's base table into fixed-size row ranges
// (morsels), runs a fresh clone of the spine over each morsel on a pool
// of worker threads, and re-emits the resulting batches to the parent
// operator in global morsel order. The pipeline breakers that *consume*
// spines (hash-join build, aggregation, sort) additionally run their
// build/accumulate phases in the workers, with the coordinator merging
// per-worker partitions deterministically (see "Parallel pipeline
// breakers" in docs/architecture.md).
//
// Parity contract (the whole point): results and logical-work counters
// are bit-exact against single-threaded execution at ANY worker count,
// and simulated energy stays within 0.1%.
// Three mechanisms deliver that:
//
//  1. Morsel boundaries are multiples of the batch size, so a worker's
//     scan emits exactly the batches the full scan would emit for its
//     range, and concatenating worker outputs in morsel order reproduces
//     the single-threaded row stream.
//  2. Workers charge into *recording* ExecContexts (see
//     ExecContext::BeginRecording): no machine contact, just an ordered
//     ChargeLog per delivered item. The coordinator replays each log
//     segment through its own context in global morsel order,
//     reproducing the single-threaded charge arrival order — the
//     deterministic fold of parallel work into the shared energy ledger.
//  3. Pipeline breakers use *canonical charge accounting*: a worker's
//     recorded log holds only the spine charges (which replay verbatim),
//     while the breaker's own charges — hash builds, group probes,
//     bucket-compare walks, accumulator updates, sort compares — are
//     re-issued by the coordinator itself while it merges the worker
//     partitions in global morsel order, "as if sequential". The
//     coordinator's merge reproduces the exact single-threaded data
//     structures (insertion-order duplicate chains, group pool order,
//     fp-association of accumulator sums, sort permutation), so the
//     re-issued charges are not an approximation: the coordinator's
//     charge stream is bit-identical to the single-threaded one. The
//     work workers really did (partial grouping, local index sorts,
//     partition hashing) is charged into scratch logs that feed ONLY
//     worker stats — the per-core concurrency view — never the parity
//     ledger.
//
// Worker wall-clock totals additionally feed Machine::AccrueCoreWork —
// the per-core concurrency view used by per-core P-state experiments —
// without ever touching the shared parity ledger. Each pool marks a
// named machine phase ("stream", "join_build", "agg", "sort") when it
// accrues, so benches can report per-phase core speedups.

#ifndef ECODB_EXEC_MORSEL_H_
#define ECODB_EXEC_MORSEL_H_

#include <cstdint>

#include "ecodb/exec/plan.h"

namespace ecodb {

/// Rows per morsel. A multiple of RowBatch::kDefaultBatchRows so that
/// batch boundaries inside a morsel coincide with the single-threaded
/// scan's batch boundaries. 8 batches (8192 rows) keeps per-morsel
/// overhead amortized while carving bench-scale tables into enough
/// morsels that a 2-core packing of the per-morsel work comes out
/// near-balanced (16-batch morsels left tpch_q1's lineitem at 8 morsels
/// — a 5/8 vs 3/8 split whose makespan caps the core speedup at 1.84).
inline constexpr uint64_t kMorselRows = 8 * RowBatch::kDefaultBatchRows;

/// True when `node` is a parallelizable spine: a kScan leaf under any
/// stack of kFilter / kProject nodes and kHashJoin probe sides.
bool MorselEligibleSpine(const PlanNode& node);

/// Like InstantiatePlan, but parallelizes every eligible full-drain
/// spine with ctx->exec_workers() workers: streaming spines are wrapped
/// in a MorselStreamOp, and pipeline breakers directly over an eligible
/// spine (aggregate, sort, hash-join build) run their build/accumulate
/// phase in the worker pool with a coordinator-side deterministic
/// merge. Slots that may stop early (a streaming child of kLimit) are
/// never parallelized. With exec_workers() == 1 this is exactly
/// InstantiatePlan.
Result<OperatorPtr> InstantiateParallelPlan(const PlanNode& node,
                                            ExecContext* ctx);

}  // namespace ecodb

#endif  // ECODB_EXEC_MORSEL_H_
