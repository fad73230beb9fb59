// Physical plan trees: a declarative description of an operator pipeline
// that can be (a) instantiated into pull-based operators for execution,
// (b) costed by the energy-aware cost model without executing, and
// (c) rewritten by the multi-query optimizer (QED).

#ifndef ECODB_EXEC_PLAN_H_
#define ECODB_EXEC_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "ecodb/exec/operators.h"
#include "ecodb/storage/catalog.h"
#include "ecodb/util/result.h"

namespace ecodb {

enum class PlanKind {
  kScan,
  kFilter,
  kProject,
  kHashJoin,
  kNestedLoopJoin,
  kAggregate,
  kSort,
  kLimit,
};

const char* ToString(PlanKind k);

struct PlanNode {
  PlanKind kind;
  Schema output_schema;
  std::vector<std::unique_ptr<PlanNode>> children;

  // kScan
  std::string table_name;

  // kFilter (predicate over child schema); kNestedLoopJoin (predicate over
  // concatenated schema, may be null)
  ExprPtr predicate;

  // kProject
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;

  // kHashJoin: children[0] = build, children[1] = probe
  std::vector<int> build_keys;
  std::vector<int> probe_keys;

  // kAggregate
  std::vector<ExprPtr> group_by;
  std::vector<AggSpec> aggs;

  // kSort
  std::vector<SortKey> sort_keys;

  // kLimit
  int64_t limit = -1;

  /// Optimizer annotation: estimated output cardinality (rows); negative
  /// when not yet estimated.
  double est_rows = -1.0;

  /// Pretty tree rendering (EXPLAIN).
  std::string Explain(int indent = 0) const;
};

using PlanNodePtr = std::unique_ptr<PlanNode>;

// --- Builders (compute output schemas) ---

Result<PlanNodePtr> MakeScan(const Catalog& catalog,
                             const std::string& table_name);
PlanNodePtr MakeFilter(PlanNodePtr child, ExprPtr predicate);
PlanNodePtr MakeProject(PlanNodePtr child, std::vector<ExprPtr> exprs,
                        std::vector<std::string> names);
PlanNodePtr MakeHashJoin(PlanNodePtr build, PlanNodePtr probe,
                         std::vector<int> build_keys,
                         std::vector<int> probe_keys);
PlanNodePtr MakeNestedLoopJoin(PlanNodePtr outer, PlanNodePtr inner,
                               ExprPtr predicate);
PlanNodePtr MakeAggregate(PlanNodePtr child, std::vector<ExprPtr> group_by,
                          std::vector<AggSpec> aggs);
PlanNodePtr MakeSort(PlanNodePtr child, std::vector<SortKey> keys);
PlanNodePtr MakeLimit(PlanNodePtr child, int64_t limit);

/// Deep copy (plans are templates reused across runs; QED rewrites copies).
PlanNodePtr ClonePlan(const PlanNode& node);

/// Structural validation of a (possibly hand-built) plan tree: child
/// counts per node kind, non-null predicates/expressions, non-empty
/// projections, join-key arity and range, expression column indexes in
/// range of the child schema, non-negative limits. Returns
/// InvalidArgument naming the offending node. ExecutePlanColumnar runs
/// this before instantiating operators, so a malformed plan is a clean
/// error instead of an assert deep inside an operator.
Status ValidatePlan(const PlanNode& node);

/// Builds the operator tree for a plan.
Result<OperatorPtr> InstantiatePlan(const PlanNode& node, ExecContext* ctx);

/// Convenience: validate + instantiate + drain into a columnar
/// ResultSet. With ctx->exec_workers() > 1 eligible pipelines run on the
/// morsel-parallel engine.
Result<ResultSet> ExecutePlanColumnar(const PlanNode& node, ExecContext* ctx);

/// Row-oriented wrapper over ExecutePlanColumnar.
Result<std::vector<Row>> ExecutePlan(const PlanNode& node, ExecContext* ctx);

}  // namespace ecodb

#endif  // ECODB_EXEC_PLAN_H_
