// Multi-query optimization for QED (paper Section 4; Sellis [14]).
//
// A batch of structurally identical single-table selection queries is
// merged into ONE query whose filter is the disjunction of the member
// predicates. The merged result is then split back into per-query results
// in "application logic", whose time and energy cost the paper explicitly
// includes — SplitMergedResult charges it through the ExecContext.

#ifndef ECODB_OPTIMIZER_MQO_H_
#define ECODB_OPTIMIZER_MQO_H_

#include <vector>

#include "ecodb/exec/exec_context.h"
#include "ecodb/exec/plan.h"
#include "ecodb/exec/result_set.h"
#include "ecodb/util/result.h"

namespace ecodb {

struct MergedSelection {
  /// The single merged plan: Project(Filter(Scan, OR(p1..pn))).
  PlanNodePtr plan;
  /// The member predicates, bound to the scan schema, in batch order.
  std::vector<ExprPtr> member_predicates;
  /// Index (in the merged plan's *output* schema) of the column the
  /// predicates test, for application-side splitting; -1 if the column is
  /// not projected (splitting then must re-run predicates on scan rows,
  /// which we disallow — the projection must include the filter column).
  int split_column = -1;
  /// The literal each member tests for equality, in batch order.
  std::vector<Value> split_values;
};

/// Merges a batch of selection plans. Requirements (checked):
///  * every plan is Project(Filter(Scan(T))) on the same table T,
///  * identical projection lists,
///  * each filter is `column = literal` on the same column,
///  * the projection includes that column.
/// `hashed_in_list`: evaluate the merged disjunction as a hash-set IN
/// probe instead of a short-circuit OR chain (ablation; MySQL's OR chain
/// is the paper-faithful default).
Result<MergedSelection> MergeSelections(
    const std::vector<const PlanNode*>& plans, bool hashed_in_list = false);

/// Splits the merged query's result back per member: returns, in batch
/// order, the indexes of the `merged_result` rows each member owns (a row
/// goes to the first member whose split value its split column equals),
/// charging the comparison work to `ctx` (the paper's "little bit of extra
/// work ... in the application logic"). Rows that match no member (cannot
/// happen for exact merges; can for widened ones) are dropped. The split
/// column's cells are compared where they lie; nothing is boxed.
std::vector<std::vector<uint32_t>> SplitMergedResult(
    const MergedSelection& merged, const ResultSet& merged_result,
    ExecContext* ctx);

// ---------------------------------------------------------------------------
// Shared-scan aggregation: QED generalized beyond simple selections
// (Section 4: "generalization of our method to more complex workloads
// (beyond simple select queries) is feasible").
// ---------------------------------------------------------------------------

/// A batch of *global-aggregation* queries over the same table (Q6-shaped:
/// Aggregate(Filter(Scan(T))) with no GROUP BY), evaluated in ONE scan:
/// each scanned batch is filtered by every member's predicate
/// (short-circuit) and updates that member's accumulators. No result splitting is
/// needed — each member owns its accumulators.
struct SharedAggBatch {
  const PlanNode* scan = nullptr;           ///< common table scan
  std::vector<ExprPtr> filters;             ///< per member, scan schema
  std::vector<std::vector<AggSpec>> aggs;   ///< per member
  std::vector<Schema> output_schemas;       ///< per member
};

/// Validates and decomposes a batch of aggregation plans. Requirements:
///  * every plan is Aggregate(Filter(Scan(T))) or Aggregate(Scan(T)),
///    optionally under a Project that keeps every aggregate column in
///    place (the SQL planner's naming Project),
///  * the same table T throughout,
///  * no GROUP BY (global aggregates only).
Result<SharedAggBatch> AnalyzeSharedAggBatch(
    const std::vector<const PlanNode*>& plans);

/// Executes the batch in one pass, charging the scan once plus per-member
/// predicate/aggregate work: each scan batch is filtered and folded per
/// member, a batch at a time. Returns one single-row result per member, in
/// batch order, identical to running each plan individually.
Result<std::vector<std::vector<Row>>> RunSharedScanAggregates(
    const SharedAggBatch& batch, ExecContext* ctx);

}  // namespace ecodb

#endif  // ECODB_OPTIMIZER_MQO_H_
