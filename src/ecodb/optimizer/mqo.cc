#include "ecodb/optimizer/mqo.h"

#include "ecodb/util/strings.h"

namespace ecodb {

namespace {

struct SelectionShape {
  const PlanNode* project;
  const PlanNode* filter;
  const PlanNode* scan;
  const ColumnExpr* column;
  const LiteralExpr* literal;
};

Result<SelectionShape> AnalyzeSelection(const PlanNode& plan) {
  SelectionShape s;
  if (plan.kind != PlanKind::kProject || plan.children.size() != 1) {
    return Status::InvalidArgument("plan root is not Project");
  }
  s.project = &plan;
  const PlanNode& filter = *plan.children[0];
  if (filter.kind != PlanKind::kFilter || filter.children.size() != 1) {
    return Status::InvalidArgument("plan is not Project(Filter(...))");
  }
  s.filter = &filter;
  const PlanNode& scan = *filter.children[0];
  if (scan.kind != PlanKind::kScan) {
    return Status::InvalidArgument("plan is not Project(Filter(Scan))");
  }
  s.scan = &scan;
  if (filter.predicate->kind() != ExprKind::kCompare) {
    return Status::InvalidArgument("filter is not a simple comparison");
  }
  const auto& cmp = static_cast<const CompareExpr&>(*filter.predicate);
  if (cmp.op() != CompareOp::kEq) {
    return Status::InvalidArgument("filter is not an equality");
  }
  if (cmp.left()->kind() == ExprKind::kColumn &&
      cmp.right()->kind() == ExprKind::kLiteral) {
    s.column = static_cast<const ColumnExpr*>(cmp.left().get());
    s.literal = static_cast<const LiteralExpr*>(cmp.right().get());
  } else if (cmp.right()->kind() == ExprKind::kColumn &&
             cmp.left()->kind() == ExprKind::kLiteral) {
    s.column = static_cast<const ColumnExpr*>(cmp.right().get());
    s.literal = static_cast<const LiteralExpr*>(cmp.left().get());
  } else {
    return Status::InvalidArgument("filter is not column = literal");
  }
  return s;
}

/// A Project whose i-th expression is its child's i-th column, for every
/// child column: it renames at most.
bool IsColumnIdentity(const PlanNode& plan) {
  if (plan.kind != PlanKind::kProject || plan.children.size() != 1 ||
      static_cast<int>(plan.exprs.size()) !=
          plan.children[0]->output_schema.num_fields()) {
    return false;
  }
  for (size_t i = 0; i < plan.exprs.size(); ++i) {
    const Expr& e = *plan.exprs[i];
    if (e.kind() != ExprKind::kColumn ||
        static_cast<const ColumnExpr&>(e).index() != static_cast<int>(i)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<MergedSelection> MergeSelections(
    const std::vector<const PlanNode*>& plans, bool hashed_in_list) {
  if (plans.empty()) {
    return Status::InvalidArgument("empty batch");
  }
  std::vector<SelectionShape> shapes;
  shapes.reserve(plans.size());
  for (const PlanNode* p : plans) {
    ECODB_ASSIGN_OR_RETURN(SelectionShape s, AnalyzeSelection(*p));
    shapes.push_back(s);
  }
  const SelectionShape& first = shapes.front();
  for (const SelectionShape& s : shapes) {
    if (s.scan->table_name != first.scan->table_name) {
      return Status::InvalidArgument("batch spans multiple tables");
    }
    if (s.column->index() != first.column->index()) {
      return Status::InvalidArgument("batch filters different columns");
    }
    if (s.project->exprs.size() != first.project->exprs.size()) {
      return Status::InvalidArgument("batch projections differ");
    }
    for (size_t i = 0; i < s.project->exprs.size(); ++i) {
      if (s.project->exprs[i]->ToString() !=
          first.project->exprs[i]->ToString()) {
        return Status::InvalidArgument("batch projections differ");
      }
    }
  }

  MergedSelection out;
  std::vector<ExprPtr> disjuncts;
  std::vector<Value> values;
  ExprPtr col = Col(first.column->index(), first.column->type(),
                    first.column->name());
  for (const SelectionShape& s : shapes) {
    disjuncts.push_back(Eq(col, Lit(s.literal->value())));
    values.push_back(s.literal->value());
    out.member_predicates.push_back(disjuncts.back());
  }

  ExprPtr merged_pred;
  if (hashed_in_list) {
    merged_pred = InList(col, values, /*hashed=*/true);
  } else {
    merged_pred = Or(disjuncts);
  }

  // Locate the filter column in the projection output.
  for (size_t i = 0; i < first.project->exprs.size(); ++i) {
    const Expr& e = *first.project->exprs[i];
    if (e.kind() == ExprKind::kColumn &&
        static_cast<const ColumnExpr&>(e).index() == first.column->index()) {
      out.split_column = static_cast<int>(i);
      break;
    }
  }
  if (out.split_column < 0) {
    return Status::InvalidArgument(
        "projection does not include the filter column; cannot split");
  }

  PlanNodePtr scan = ClonePlan(*first.scan);
  PlanNodePtr filter = MakeFilter(std::move(scan), merged_pred);
  out.plan = MakeProject(std::move(filter), first.project->exprs,
                         first.project->names);
  out.split_values = std::move(values);
  return out;
}

std::vector<std::vector<uint32_t>> SplitMergedResult(
    const MergedSelection& merged, const ResultSet& merged_result,
    ExecContext* ctx) {
  std::vector<CellView> targets;
  targets.reserve(merged.split_values.size());
  for (const Value& v : merged.split_values) targets.push_back(CellView::Of(v));
  std::vector<std::vector<uint32_t>> per_query(targets.size());
  const size_t n_rows = merged_result.num_rows();
  double compares = 0;
  for (size_t r = 0; r < n_rows; ++r) {
    const CellView v = merged_result.At(r, merged.split_column);
    for (size_t q = 0; q < targets.size(); ++q) {
      compares += 1;
      if (CompareCellViews(v, targets[q]) == 0) {
        per_query[q].push_back(static_cast<uint32_t>(r));
        break;
      }
    }
  }
  const EngineProfile& p = ctx->profile();
  double rows = static_cast<double>(n_rows);
  ctx->ChargeCycles(
      rows * p.split_row_cycles + compares * p.split_compare_cycles,
      rows * p.split_row_lines);
  ctx->Flush();
  return per_query;
}

Result<SharedAggBatch> AnalyzeSharedAggBatch(
    const std::vector<const PlanNode*>& plans) {
  if (plans.empty()) return Status::InvalidArgument("empty batch");
  SharedAggBatch batch;
  for (const PlanNode* plan : plans) {
    const PlanNode* agg = plan;
    // The SQL planner names the outputs with a Project over the
    // aggregate; one that keeps every aggregate column in place leaves
    // the member's rows as the aggregate emits them.
    if (IsColumnIdentity(*plan)) agg = plan->children[0].get();
    if (agg->kind != PlanKind::kAggregate || agg->children.size() != 1) {
      return Status::InvalidArgument("plan root is not a global Aggregate");
    }
    if (!agg->group_by.empty()) {
      return Status::InvalidArgument(
          "GROUP BY aggregates cannot share accumulators");
    }
    const PlanNode* below = agg->children[0].get();
    ExprPtr filter;  // null = unconditional
    if (below->kind == PlanKind::kFilter && below->children.size() == 1) {
      filter = below->predicate;
      below = below->children[0].get();
    }
    if (below->kind != PlanKind::kScan) {
      return Status::InvalidArgument(
          "plan is not Aggregate(Filter(Scan)) / Aggregate(Scan)");
    }
    if (batch.scan == nullptr) {
      batch.scan = below;
    } else if (below->table_name != batch.scan->table_name) {
      return Status::InvalidArgument("batch spans multiple tables");
    }
    batch.filters.push_back(std::move(filter));
    batch.aggs.push_back(agg->aggs);
    batch.output_schemas.push_back(plan->output_schema);
  }
  return batch;
}

namespace {

struct SharedAcc {
  double sum = 0.0;
  uint64_t count = 0;
  Value best;  ///< running MIN or MAX
};

/// Folds the non-NULL cells of `arg` at `sel` into `a`. MIN/MAX compare
/// the cells where they lie and box only a new winner.
void FoldShared(AggSpec::Kind kind, const RowBatch::TypedLane& arg,
                const SelVec& sel, SharedAcc* a) {
  for (uint32_t r : sel) {
    const CellView v = arg.ViewAt(r);
    if (v.is_null()) continue;
    switch (kind) {
      case AggSpec::Kind::kCount:
        break;
      case AggSpec::Kind::kSum:
      case AggSpec::Kind::kAvg:
        a->sum += v.AsDouble();
        break;
      case AggSpec::Kind::kMin:
      case AggSpec::Kind::kMax: {
        const int cmp =
            a->count == 0 ? 0 : CompareCellViews(v, CellView::Of(a->best));
        const bool wins = kind == AggSpec::Kind::kMin ? cmp < 0 : cmp > 0;
        if (a->count == 0 || wins) a->best = BoxCellView(v);
        break;
      }
    }
    ++a->count;
  }
}

Row AccsToRow(const std::vector<AggSpec>& specs,
              const std::vector<SharedAcc>& accs) {
  Row out;
  out.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const SharedAcc& a = accs[i];
    switch (specs[i].kind) {
      case AggSpec::Kind::kCount:
        out.push_back(Value::Int(static_cast<int64_t>(a.count)));
        break;
      case AggSpec::Kind::kSum:
        out.push_back(a.count ? Value::Dbl(a.sum) : Value::Null());
        break;
      case AggSpec::Kind::kAvg:
        out.push_back(a.count ? Value::Dbl(a.sum / static_cast<double>(a.count))
                              : Value::Null());
        break;
      case AggSpec::Kind::kMin:
      case AggSpec::Kind::kMax:
        out.push_back(a.count ? a.best : Value::Null());
        break;
    }
  }
  return out;
}

}  // namespace

Result<std::vector<std::vector<Row>>> RunSharedScanAggregates(
    const SharedAggBatch& batch, ExecContext* ctx) {
  size_t n = batch.filters.size();
  std::vector<std::vector<SharedAcc>> accs(n);
  for (size_t q = 0; q < n; ++q) accs[q].resize(batch.aggs[q].size());

  // One shared scan; each member filters a copy of every batch's
  // selection and folds its aggregate arguments over the rows that pass.
  SeqScanOp scan(ctx, batch.scan->table_name);
  ECODB_RETURN_NOT_OK(scan.Open());
  RowBatch rows;
  ExprScratch scratch;
  SelVec sel;
  RowBatch::TypedLane arg;
  EvalCounters* counters = ctx->eval_counters();
  bool has = false;
  for (;;) {
    ECODB_RETURN_NOT_OK(
        scan.NextBatch(&rows, &has, RowBatch::kDefaultBatchRows));
    if (!has) break;
    for (size_t q = 0; q < n; ++q) {
      sel = rows.sel();
      if (batch.filters[q]) {
        batch.filters[q]->FilterBatch(rows, &sel, counters, &scratch);
      }
      const std::vector<AggSpec>& specs = batch.aggs[q];
      for (size_t i = 0; i < specs.size() && !sel.empty(); ++i) {
        if (!specs[i].arg) {  // COUNT(*)
          accs[q][i].count += sel.size();
          continue;
        }
        specs[i].arg->EvalBatch(rows, sel, &arg, counters, &scratch);
        FoldShared(specs[i].kind, arg, sel, &accs[q][i]);
      }
      ctx->ChargeEvalOps();
      ctx->ChargeAggUpdates(sel.size(), static_cast<int>(specs.size()));
    }
  }
  scan.Close();

  std::vector<std::vector<Row>> results(n);
  for (size_t q = 0; q < n; ++q) {
    results[q].push_back(AccsToRow(batch.aggs[q], accs[q]));
    ctx->ChargeOutputTuples(1, batch.output_schemas[q].RowWidth());
  }
  ctx->Flush();
  return results;
}

}  // namespace ecodb
