#include "ecodb/exec/plan.h"

#include "ecodb/exec/morsel.h"
#include "ecodb/util/strings.h"

namespace ecodb {

const char* ToString(PlanKind k) {
  switch (k) {
    case PlanKind::kScan:
      return "Scan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kHashJoin:
      return "HashJoin";
    case PlanKind::kNestedLoopJoin:
      return "NestedLoopJoin";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kLimit:
      return "Limit";
  }
  return "?";
}

std::string PlanNode::Explain(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string line = pad + ToString(kind);
  switch (kind) {
    case PlanKind::kScan:
      line += "(" + table_name + ")";
      break;
    case PlanKind::kFilter:
      line += "(" + predicate->ToString() + ")";
      break;
    case PlanKind::kHashJoin: {
      line += "(build keys:";
      for (int k : build_keys) line += StrFormat(" %d", k);
      line += " probe keys:";
      for (int k : probe_keys) line += StrFormat(" %d", k);
      line += ")";
      break;
    }
    case PlanKind::kLimit:
      line += StrFormat("(%lld)", static_cast<long long>(limit));
      break;
    default:
      break;
  }
  if (est_rows >= 0) line += StrFormat("  [est %.0f rows]", est_rows);
  line += "\n";
  for (const auto& c : children) line += c->Explain(indent + 1);
  return line;
}

Result<PlanNodePtr> MakeScan(const Catalog& catalog,
                             const std::string& table_name) {
  const Table* t = catalog.FindTable(table_name);
  if (t == nullptr) {
    return Status::NotFound(StrFormat("table %s", table_name.c_str()));
  }
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kScan;
  node->table_name = t->name();
  node->output_schema = t->schema();
  return node;
}

PlanNodePtr MakeFilter(PlanNodePtr child, ExprPtr predicate) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kFilter;
  node->output_schema = child->output_schema;
  node->predicate = std::move(predicate);
  node->children.push_back(std::move(child));
  return node;
}

PlanNodePtr MakeProject(PlanNodePtr child, std::vector<ExprPtr> exprs,
                        std::vector<std::string> names) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kProject;
  std::vector<Field> fields;
  for (size_t i = 0; i < exprs.size(); ++i) {
    fields.emplace_back(names[i], exprs[i]->type());
  }
  node->output_schema = Schema(std::move(fields));
  node->exprs = std::move(exprs);
  node->names = std::move(names);
  node->children.push_back(std::move(child));
  return node;
}

PlanNodePtr MakeHashJoin(PlanNodePtr build, PlanNodePtr probe,
                         std::vector<int> build_keys,
                         std::vector<int> probe_keys) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kHashJoin;
  node->output_schema =
      Schema::Concat(build->output_schema, probe->output_schema);
  node->build_keys = std::move(build_keys);
  node->probe_keys = std::move(probe_keys);
  node->children.push_back(std::move(build));
  node->children.push_back(std::move(probe));
  return node;
}

PlanNodePtr MakeNestedLoopJoin(PlanNodePtr outer, PlanNodePtr inner,
                               ExprPtr predicate) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kNestedLoopJoin;
  node->output_schema =
      Schema::Concat(outer->output_schema, inner->output_schema);
  node->predicate = std::move(predicate);
  node->children.push_back(std::move(outer));
  node->children.push_back(std::move(inner));
  return node;
}

PlanNodePtr MakeAggregate(PlanNodePtr child, std::vector<ExprPtr> group_by,
                          std::vector<AggSpec> aggs) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kAggregate;
  std::vector<Field> fields;
  for (size_t i = 0; i < group_by.size(); ++i) {
    fields.emplace_back(StrFormat("group_%zu", i), group_by[i]->type());
  }
  for (const AggSpec& a : aggs) fields.emplace_back(a.name, a.ResultType());
  node->output_schema = Schema(std::move(fields));
  node->group_by = std::move(group_by);
  node->aggs = aggs;
  node->children.push_back(std::move(child));
  return node;
}

PlanNodePtr MakeSort(PlanNodePtr child, std::vector<SortKey> keys) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kSort;
  node->output_schema = child->output_schema;
  node->sort_keys = std::move(keys);
  node->children.push_back(std::move(child));
  return node;
}

PlanNodePtr MakeLimit(PlanNodePtr child, int64_t limit) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kLimit;
  node->output_schema = child->output_schema;
  node->limit = limit;
  node->children.push_back(std::move(child));
  return node;
}

PlanNodePtr ClonePlan(const PlanNode& node) {
  auto out = std::make_unique<PlanNode>();
  out->kind = node.kind;
  out->output_schema = node.output_schema;
  out->table_name = node.table_name;
  out->predicate = node.predicate;  // Expr trees are immutable/shared
  out->exprs = node.exprs;
  out->names = node.names;
  out->build_keys = node.build_keys;
  out->probe_keys = node.probe_keys;
  out->group_by = node.group_by;
  out->aggs = node.aggs;
  out->sort_keys = node.sort_keys;
  out->limit = node.limit;
  out->est_rows = node.est_rows;
  for (const auto& c : node.children) out->children.push_back(ClonePlan(*c));
  return out;
}

namespace {

/// Every column reference of `e` must land inside `input` and declare
/// its field's type: operators store a column's cells as lanes of that
/// type, so a mistyped reference would read them as another type.
Status CheckExprColumns(const Expr* e, const Schema& input,
                        const char* what) {
  if (e == nullptr) {
    return Status::InvalidArgument(StrFormat("%s expression is null", what));
  }
  std::vector<const ColumnExpr*> refs;
  e->CollectColumns(&refs);
  for (const ColumnExpr* ref : refs) {
    const int c = ref->index();
    if (c < 0 || c >= input.num_fields()) {
      return Status::InvalidArgument(
          StrFormat("%s references column %d, input has %d columns", what, c,
                    input.num_fields()));
    }
    const ValueType field = input.field(c).type;
    if (ref->type() != field) {
      return Status::InvalidArgument(StrFormat(
          "%s reads column %d (%s) as %s, input field is %s", what, c,
          ref->name().c_str(), ToString(ref->type()), ToString(field)));
    }
  }
  return Status::OK();
}

Status CheckChildCount(const PlanNode& node, size_t expected) {
  if (node.children.size() != expected) {
    return Status::InvalidArgument(
        StrFormat("%s node expects %zu child(ren), got %zu",
                  ToString(node.kind), expected, node.children.size()));
  }
  for (const auto& c : node.children) {
    if (c == nullptr) {
      return Status::InvalidArgument(
          StrFormat("%s node has a null child", ToString(node.kind)));
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidatePlan(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kScan:
      ECODB_RETURN_NOT_OK(CheckChildCount(node, 0));
      if (node.table_name.empty()) {
        return Status::InvalidArgument("Scan node has no table name");
      }
      break;
    case PlanKind::kFilter: {
      ECODB_RETURN_NOT_OK(CheckChildCount(node, 1));
      ECODB_RETURN_NOT_OK(CheckExprColumns(
          node.predicate.get(), node.children[0]->output_schema,
          "Filter predicate"));
      break;
    }
    case PlanKind::kProject: {
      ECODB_RETURN_NOT_OK(CheckChildCount(node, 1));
      if (node.exprs.empty()) {
        return Status::InvalidArgument(
            "Project node has no output columns (zero-column projection)");
      }
      if (node.names.size() != node.exprs.size()) {
        return Status::InvalidArgument(StrFormat(
            "Project node has %zu expressions but %zu names",
            node.exprs.size(), node.names.size()));
      }
      for (const ExprPtr& e : node.exprs) {
        ECODB_RETURN_NOT_OK(CheckExprColumns(
            e.get(), node.children[0]->output_schema, "Project expression"));
      }
      break;
    }
    case PlanKind::kHashJoin: {
      ECODB_RETURN_NOT_OK(CheckChildCount(node, 2));
      if (node.build_keys.empty() ||
          node.build_keys.size() != node.probe_keys.size()) {
        return Status::InvalidArgument(StrFormat(
            "HashJoin key arity mismatch: %zu build keys vs %zu probe keys",
            node.build_keys.size(), node.probe_keys.size()));
      }
      const int nb = node.children[0]->output_schema.num_fields();
      const int np = node.children[1]->output_schema.num_fields();
      for (int k : node.build_keys) {
        if (k < 0 || k >= nb) {
          return Status::InvalidArgument(StrFormat(
              "HashJoin build key %d out of range (build has %d columns)", k,
              nb));
        }
      }
      for (int k : node.probe_keys) {
        if (k < 0 || k >= np) {
          return Status::InvalidArgument(StrFormat(
              "HashJoin probe key %d out of range (probe has %d columns)", k,
              np));
        }
      }
      break;
    }
    case PlanKind::kNestedLoopJoin: {
      ECODB_RETURN_NOT_OK(CheckChildCount(node, 2));
      if (node.predicate != nullptr) {  // null = cross join, legal
        ECODB_RETURN_NOT_OK(CheckExprColumns(
            node.predicate.get(),
            Schema::Concat(node.children[0]->output_schema,
                           node.children[1]->output_schema),
            "NestedLoopJoin predicate"));
      }
      break;
    }
    case PlanKind::kAggregate: {
      ECODB_RETURN_NOT_OK(CheckChildCount(node, 1));
      if (node.group_by.empty() && node.aggs.empty()) {
        return Status::InvalidArgument(
            "Aggregate node has no group-by keys and no aggregates "
            "(zero-column output)");
      }
      const Schema& in = node.children[0]->output_schema;
      for (const ExprPtr& e : node.group_by) {
        ECODB_RETURN_NOT_OK(CheckExprColumns(e.get(), in, "group-by key"));
      }
      for (const AggSpec& a : node.aggs) {
        if (a.arg == nullptr) {
          if (a.kind != AggSpec::Kind::kCount) {
            return Status::InvalidArgument(StrFormat(
                "aggregate %s requires an argument (only COUNT(*) may omit "
                "it)",
                a.name.c_str()));
          }
          continue;
        }
        ECODB_RETURN_NOT_OK(
            CheckExprColumns(a.arg.get(), in, "aggregate argument"));
      }
      break;
    }
    case PlanKind::kSort: {
      ECODB_RETURN_NOT_OK(CheckChildCount(node, 1));
      const Schema& in = node.children[0]->output_schema;
      for (const SortKey& k : node.sort_keys) {
        ECODB_RETURN_NOT_OK(CheckExprColumns(k.expr.get(), in, "sort key"));
      }
      break;
    }
    case PlanKind::kLimit:
      ECODB_RETURN_NOT_OK(CheckChildCount(node, 1));
      if (node.limit < 0) {
        return Status::InvalidArgument(
            StrFormat("Limit node has negative limit %lld",
                      static_cast<long long>(node.limit)));
      }
      break;
  }
  for (const auto& c : node.children) ECODB_RETURN_NOT_OK(ValidatePlan(*c));
  return Status::OK();
}

Result<OperatorPtr> InstantiatePlan(const PlanNode& node, ExecContext* ctx) {
  switch (node.kind) {
    case PlanKind::kScan:
      return OperatorPtr(std::make_unique<SeqScanOp>(ctx, node.table_name));
    case PlanKind::kFilter: {
      ECODB_ASSIGN_OR_RETURN(OperatorPtr child,
                             InstantiatePlan(*node.children[0], ctx));
      return OperatorPtr(
          std::make_unique<FilterOp>(ctx, std::move(child), node.predicate));
    }
    case PlanKind::kProject: {
      ECODB_ASSIGN_OR_RETURN(OperatorPtr child,
                             InstantiatePlan(*node.children[0], ctx));
      return OperatorPtr(std::make_unique<ProjectOp>(
          ctx, std::move(child), node.exprs, node.names));
    }
    case PlanKind::kHashJoin: {
      ECODB_ASSIGN_OR_RETURN(OperatorPtr build,
                             InstantiatePlan(*node.children[0], ctx));
      ECODB_ASSIGN_OR_RETURN(OperatorPtr probe,
                             InstantiatePlan(*node.children[1], ctx));
      return OperatorPtr(std::make_unique<HashJoinOp>(
          ctx, std::move(build), std::move(probe), node.build_keys,
          node.probe_keys));
    }
    case PlanKind::kNestedLoopJoin: {
      ECODB_ASSIGN_OR_RETURN(OperatorPtr outer,
                             InstantiatePlan(*node.children[0], ctx));
      ECODB_ASSIGN_OR_RETURN(OperatorPtr inner,
                             InstantiatePlan(*node.children[1], ctx));
      return OperatorPtr(std::make_unique<NestedLoopJoinOp>(
          ctx, std::move(outer), std::move(inner), node.predicate));
    }
    case PlanKind::kAggregate: {
      ECODB_ASSIGN_OR_RETURN(OperatorPtr child,
                             InstantiatePlan(*node.children[0], ctx));
      return OperatorPtr(std::make_unique<HashAggOp>(
          ctx, std::move(child), node.group_by, node.aggs));
    }
    case PlanKind::kSort: {
      ECODB_ASSIGN_OR_RETURN(OperatorPtr child,
                             InstantiatePlan(*node.children[0], ctx));
      return OperatorPtr(
          std::make_unique<SortOp>(ctx, std::move(child), node.sort_keys));
    }
    case PlanKind::kLimit: {
      ECODB_ASSIGN_OR_RETURN(OperatorPtr child,
                             InstantiatePlan(*node.children[0], ctx));
      return OperatorPtr(
          std::make_unique<LimitOp>(ctx, std::move(child), node.limit));
    }
  }
  return Status::Internal("unknown plan kind");
}

Result<ResultSet> ExecutePlanColumnar(const PlanNode& node, ExecContext* ctx) {
  ECODB_RETURN_NOT_OK(ValidatePlan(node));
  OperatorPtr op;
  if (ctx->exec_workers() > 1) {
    // Morsel-driven parallel spines (results and logical-work counters
    // stay bit-exact vs. the sequential tree).
    ECODB_ASSIGN_OR_RETURN(op, InstantiateParallelPlan(node, ctx));
  } else {
    ECODB_ASSIGN_OR_RETURN(op, InstantiatePlan(node, ctx));
  }
  return ExecuteOperatorColumnar(op.get(), ctx);
}

Result<std::vector<Row>> ExecutePlan(const PlanNode& node, ExecContext* ctx) {
  ECODB_ASSIGN_OR_RETURN(ResultSet set, ExecutePlanColumnar(node, ctx));
  return set.TakeRows();
}

}  // namespace ecodb
