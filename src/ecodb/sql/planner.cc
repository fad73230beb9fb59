#include "ecodb/sql/planner.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ecodb/sql/binder.h"
#include "ecodb/sql/parser.h"
#include "ecodb/util/strings.h"

namespace ecodb::sql {

namespace {

/// The join enumeration keeps one plan per subset of the FROM tables
/// (2^n of them); TPC-H has eight tables.
constexpr size_t kMaxJoinTables = 8;

/// One base table participating in the FROM clause.
struct TableRef {
  std::string name;
  const Table* table = nullptr;
  const TableStats* stats = nullptr;
  std::vector<const AstExpr*> local_predicates;
  /// Column pairs that equi-joins through other tables make equal.
  std::vector<std::pair<int, int>> implied_equalities;
  /// The table's columns that `input` outputs, in table order: all of
  /// them, or in a join only those read above the input.
  std::vector<int> kept;
  /// Scan plus pushed-down predicates, projected to `kept`: estimated
  /// before the join order is chosen, moved into the join tree after.
  PlanNodePtr input;
  CostModel::NodeEstimate est;
  int width = 0;
};

/// A column of one FROM table.
struct ColumnRef {
  int table = 0;
  int column = 0;
  bool operator==(const ColumnRef& o) const {
    return table == o.table && column == o.column;
  }
};

/// Columns that the WHERE clause's equi-joins make equal, transitively:
/// `c_nationkey = s_nationkey AND s_nationkey = n_nationkey` puts all
/// three in one class, so customer joins nation directly.
struct EquivClass {
  std::vector<ColumnRef> members;  ///< in order of first mention
  uint32_t tables = 0;             ///< bit per table with a member
};

/// The cheapest left-deep join tree found for one subset of tables.
struct SubsetPlan {
  CostModel::NodeEstimate est;
  PlanCost cost;
  int width = 0;
  uint32_t prev = 0;  ///< subset before `last` joined (0: a single table)
  int last = -1;  ///< -1: no plan for this subset (yet)
  bool subset_builds = false;  ///< hash join builds on `prev`'s side
};

/// Flattens nested ANDs into conjuncts.
void CollectConjuncts(const AstExpr& e, std::vector<const AstExpr*>* out) {
  if (e.kind == AstKind::kLogical && e.log_op == LogicalOp::kAnd) {
    for (const AstExprPtr& a : e.args) CollectConjuncts(*a, out);
    return;
  }
  out->push_back(&e);
}

void CollectColumnNames(const AstExpr& e, std::vector<std::string>* out) {
  if (e.kind == AstKind::kColumn) out->push_back(e.name);
  for (const AstExprPtr& a : e.args) CollectColumnNames(*a, out);
}

class Planner {
 public:
  Planner(const SelectStatement& stmt, const Catalog& catalog,
          const CostModel& model, const SystemSettings& settings)
      : stmt_(stmt), catalog_(catalog), model_(model), settings_(settings) {}

  Result<PlanNodePtr> Plan();

 private:
  /// (table index, column index) -> position in the current plan output.
  using LayoutEntry = ColumnRef;

  void AddJoinEdge(ColumnRef a, ColumnRef b);
  /// Sets each table's `kept` columns (see TableRef).
  void PruneColumns();
  /// Fills table t's input, its estimate and its width.
  Status BuildBaseInput(int t);
  /// t's kept columns as layout entries, in input order.
  std::vector<LayoutEntry> ColumnsOf(int t) const;
  /// Position of `c` in its table's input.
  int InputPosition(ColumnRef c) const;
  /// (subset member, member of t) per class `t` shares with `subset`.
  std::vector<std::pair<ColumnRef, ColumnRef>> JoinKeys(uint32_t subset,
                                                        int t) const;
  double BaseNdv(ColumnRef c) const;
  Result<std::vector<SubsetPlan>> EnumerateJoinOrders();
  Result<PlanNodePtr> BuildJoinTree();
  int FindLayout(ColumnRef c) const;
  Schema LayoutSchema() const;
  Result<PlanNodePtr> ApplyResidual(PlanNodePtr plan);
  Result<PlanNodePtr> ApplyAggregation(PlanNodePtr plan);
  Result<PlanNodePtr> ApplyOrderLimit(PlanNodePtr plan);

  const SelectStatement& stmt_;
  const Catalog& catalog_;
  const CostModel& model_;
  const SystemSettings& settings_;

  std::vector<TableRef> tables_;
  std::vector<EquivClass> classes_;
  std::vector<const AstExpr*> residual_;
  std::vector<LayoutEntry> layout_;

  /// Set when aggregation applied: maps select items to output columns.
  bool aggregated_ = false;
  /// Text of each select item (post-bind key for ORDER BY matching).
  std::vector<std::string> item_keys_;
};

int Planner::FindLayout(ColumnRef c) const {
  auto it = std::find(layout_.begin(), layout_.end(), c);
  return it == layout_.end() ? -1 : static_cast<int>(it - layout_.begin());
}

Schema Planner::LayoutSchema() const {
  std::vector<Field> fields;
  fields.reserve(layout_.size());
  for (const LayoutEntry& e : layout_) {
    fields.push_back(tables_[static_cast<size_t>(e.table)].table->schema()
                         .field(e.column));
  }
  return Schema(std::move(fields));
}

void Planner::AddJoinEdge(ColumnRef a, ColumnRef b) {
  auto class_of = [&](ColumnRef c) -> int {
    for (size_t i = 0; i < classes_.size(); ++i) {
      const auto& m = classes_[i].members;
      if (std::find(m.begin(), m.end(), c) != m.end()) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  int ca = class_of(a);
  int cb = class_of(b);
  if (ca < 0 && cb < 0) {
    classes_.push_back(EquivClass{{a, b}, 0});
  } else if (ca < 0) {
    classes_[static_cast<size_t>(cb)].members.push_back(a);
  } else if (cb < 0) {
    classes_[static_cast<size_t>(ca)].members.push_back(b);
  } else if (ca != cb) {
    auto& keep = classes_[static_cast<size_t>(std::min(ca, cb))].members;
    auto& gone = classes_[static_cast<size_t>(std::max(ca, cb))].members;
    keep.insert(keep.end(), gone.begin(), gone.end());
    classes_.erase(classes_.begin() + std::max(ca, cb));
  }
}

void Planner::PruneColumns() {
  // A join carries every column of its inputs through its build pool and
  // its output, so each input keeps only what is read above it: the
  // select list, GROUP BY, ORDER BY, the residual conjuncts and the join
  // keys. Local predicates run below the cut. Names are matched in every
  // table, so binding by name against the join's layout finds the column
  // it would find unpruned.
  std::vector<std::string> read;
  const bool prune = tables_.size() > 1 && !stmt_.select_star;
  if (prune) {
    for (const SelectItem& item : stmt_.items) {
      CollectColumnNames(*item.expr, &read);
    }
    for (const AstExprPtr& g : stmt_.group_by) CollectColumnNames(*g, &read);
    for (const OrderItem& o : stmt_.order_by) CollectColumnNames(*o.expr, &read);
    for (const AstExpr* r : residual_) CollectColumnNames(*r, &read);
    for (const EquivClass& c : classes_) {
      for (ColumnRef m : c.members) {
        read.push_back(tables_[static_cast<size_t>(m.table)]
                           .table->schema().field(m.column).name);
      }
    }
  }
  for (TableRef& ref : tables_) {
    const Schema& schema = ref.table->schema();
    for (int c = 0; c < schema.num_fields(); ++c) {
      if (!prune || std::find(read.begin(), read.end(),
                              schema.field(c).name) != read.end()) {
        ref.kept.push_back(c);
      }
    }
    // A projection has at least one column (ValidatePlan).
    if (ref.kept.empty()) ref.kept.push_back(0);
  }
}

Status Planner::BuildBaseInput(int t) {
  TableRef& ref = tables_[static_cast<size_t>(t)];
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr plan, MakeScan(catalog_, ref.name));
  const Schema& schema = ref.table->schema();
  std::vector<ExprPtr> bound;
  for (const AstExpr* p : ref.local_predicates) {
    ECODB_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(*p, schema));
    bound.push_back(std::move(e));
  }
  for (const auto& [a, b] : ref.implied_equalities) {
    const Field& fa = schema.field(a);
    const Field& fb = schema.field(b);
    bound.push_back(Eq(Col(a, fa.type, fa.name), Col(b, fb.type, fb.name)));
  }
  if (!bound.empty()) plan = MakeFilter(std::move(plan), And(std::move(bound)));
  ECODB_ASSIGN_OR_RETURN(ref.est, model_.EstimateNode(*plan));
  plan->est_rows = ref.est.rows;
  if (ref.kept.size() < static_cast<size_t>(schema.num_fields())) {
    // Column passthroughs: the estimate (and the engine's charges) stay
    // the filtered input's.
    std::vector<ExprPtr> cols;
    std::vector<std::string> names;
    for (int c : ref.kept) {
      const Field& f = schema.field(c);
      cols.push_back(Col(c, f.type, f.name));
      names.push_back(f.name);
    }
    plan = MakeProject(std::move(plan), std::move(cols), std::move(names));
    plan->est_rows = ref.est.rows;
  }
  ref.stats = model_.GetTableStats(ref.name);
  ref.width = plan->output_schema.RowWidth();
  ref.input = std::move(plan);
  return Status::OK();
}

std::vector<Planner::LayoutEntry> Planner::ColumnsOf(int t) const {
  std::vector<LayoutEntry> cols;
  for (int c : tables_[static_cast<size_t>(t)].kept) {
    cols.push_back(LayoutEntry{t, c});
  }
  return cols;
}

int Planner::InputPosition(ColumnRef c) const {
  const std::vector<int>& kept = tables_[static_cast<size_t>(c.table)].kept;
  return static_cast<int>(std::find(kept.begin(), kept.end(), c.column) -
                          kept.begin());
}

std::vector<std::pair<ColumnRef, ColumnRef>> Planner::JoinKeys(
    uint32_t subset, int t) const {
  std::vector<std::pair<ColumnRef, ColumnRef>> keys;
  for (const EquivClass& c : classes_) {
    if ((c.tables & subset) == 0 || (c.tables & (1u << t)) == 0) continue;
    auto in_subset = std::find_if(
        c.members.begin(), c.members.end(),
        [&](ColumnRef m) { return (subset & (1u << m.table)) != 0; });
    auto in_t = std::find_if(c.members.begin(), c.members.end(),
                             [&](ColumnRef m) { return m.table == t; });
    keys.emplace_back(*in_subset, *in_t);
  }
  return keys;
}

double Planner::BaseNdv(ColumnRef c) const {
  const TableStats* stats = tables_[static_cast<size_t>(c.table)].stats;
  return stats != nullptr
             ? stats->columns[static_cast<size_t>(c.column)].ndv
             : 0.0;
}

Result<std::vector<SubsetPlan>> Planner::EnumerateJoinOrders() {
  const size_t n = tables_.size();
  const uint32_t all = (1u << n) - 1;
  ECODB_ASSIGN_OR_RETURN(std::unique_ptr<Machine> machine,
                         model_.PricingMachine(settings_));
  std::vector<SubsetPlan> best(static_cast<size_t>(all) + 1);
  for (size_t t = 0; t < n; ++t) {
    SubsetPlan& single = best[1u << t];
    single.est = tables_[t].est;
    single.width = tables_[t].width;
    single.last = static_cast<int>(t);
  }
  // A superset is numerically larger than each of its subsets, so every
  // subset is final before it is extended.
  for (uint32_t subset = 1; subset < all; ++subset) {
    const SubsetPlan& cur = best[subset];
    if (cur.last < 0) continue;
    uint32_t neighbours = 0;
    for (const EquivClass& c : classes_) {
      if (c.tables & subset) neighbours |= c.tables & ~subset;
    }
    for (size_t t = 0; t < n; ++t) {
      const uint32_t bit = 1u << t;
      if (subset & bit) continue;
      // A cross product only where the join graph is disconnected.
      if (neighbours != 0 && (neighbours & bit) == 0) continue;
      const TableRef& ref = tables_[t];
      SubsetPlan cand;
      cand.prev = subset;
      cand.last = static_cast<int>(t);
      cand.width = cur.width + ref.width;
      if (neighbours == 0) {
        cand.est = model_.EstimateNestedLoopJoin(cur.est, ref.est, nullptr);
      } else {
        std::vector<double> subset_ndv, t_ndv;
        for (const auto& [in_subset, in_t] :
             JoinKeys(subset, static_cast<int>(t))) {
          subset_ndv.push_back(BaseNdv(in_subset));
          t_ndv.push_back(BaseNdv(in_t));
        }
        // The side with fewer estimated rows builds.
        cand.subset_builds = cur.est.rows <= ref.est.rows;
        cand.est = cand.subset_builds
                       ? model_.EstimateHashJoin(cur.est, cur.width, ref.est,
                                                 ref.width, subset_ndv, t_ndv)
                       : model_.EstimateHashJoin(ref.est, ref.width, cur.est,
                                                 cur.width, t_ndv, subset_ndv);
      }
      cand.cost = model_.Price(cand.est, *machine);
      SubsetPlan& slot = best[subset | bit];
      if (slot.last < 0 ||
          cand.cost.est_cpu_joules < slot.cost.est_cpu_joules ||
          (cand.cost.est_cpu_joules == slot.cost.est_cpu_joules &&
           cand.cost.est_seconds < slot.cost.est_seconds)) {
        slot = cand;
      }
    }
  }
  return best;
}

Result<PlanNodePtr> Planner::BuildJoinTree() {
  ECODB_ASSIGN_OR_RETURN(std::vector<SubsetPlan> best, EnumerateJoinOrders());
  std::vector<uint32_t> chain;  // full set back to the first table
  for (uint32_t s = static_cast<uint32_t>(best.size() - 1); s != 0;
       s = best[s].prev) {
    chain.push_back(s);
  }
  std::reverse(chain.begin(), chain.end());

  const int first = best[chain[0]].last;
  PlanNodePtr plan = std::move(tables_[static_cast<size_t>(first)].input);
  layout_ = ColumnsOf(first);
  for (size_t i = 1; i < chain.size(); ++i) {
    const SubsetPlan& step = best[chain[i]];
    const int t = step.last;
    PlanNodePtr rhs = std::move(tables_[static_cast<size_t>(t)].input);
    std::vector<LayoutEntry> rhs_cols = ColumnsOf(t);
    std::vector<std::pair<ColumnRef, ColumnRef>> keys = JoinKeys(step.prev, t);
    if (keys.empty()) {
      plan = MakeNestedLoopJoin(std::move(plan), std::move(rhs), nullptr);
      layout_.insert(layout_.end(), rhs_cols.begin(), rhs_cols.end());
    } else {
      std::vector<int> plan_keys, rhs_keys;
      for (const auto& [in_subset, in_t] : keys) {
        plan_keys.push_back(FindLayout(in_subset));
        rhs_keys.push_back(InputPosition(in_t));
      }
      // Layout = build ++ probe.
      if (step.subset_builds) {
        plan = MakeHashJoin(std::move(plan), std::move(rhs), plan_keys,
                            rhs_keys);
        layout_.insert(layout_.end(), rhs_cols.begin(), rhs_cols.end());
      } else {
        plan = MakeHashJoin(std::move(rhs), std::move(plan), rhs_keys,
                            plan_keys);
        layout_.insert(layout_.begin(), rhs_cols.begin(), rhs_cols.end());
      }
    }
    plan->est_rows = step.est.rows;
  }
  return plan;
}

Result<PlanNodePtr> Planner::ApplyResidual(PlanNodePtr plan) {
  if (residual_.empty()) return plan;
  Schema schema = LayoutSchema();
  std::vector<ExprPtr> bound;
  for (const AstExpr* p : residual_) {
    ECODB_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(*p, schema));
    bound.push_back(std::move(e));
  }
  return MakeFilter(std::move(plan), And(std::move(bound)));
}

Result<PlanNodePtr> Planner::ApplyAggregation(PlanNodePtr plan) {
  bool has_agg = !stmt_.group_by.empty();
  for (const SelectItem& item : stmt_.items) {
    if (ContainsAggregate(*item.expr)) has_agg = true;
  }
  Schema input_schema = LayoutSchema();

  if (!has_agg) {
    if (stmt_.select_star) {
      if (tables_.size() == 1) {
        for (int i = 0; i < input_schema.num_fields(); ++i) {
          item_keys_.push_back(input_schema.field(i).name);
        }
        return plan;
      }
      // A join emits its chosen layout (build side first); SELECT *
      // answers in FROM order whatever the join order, through a
      // column-only passthrough.
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      for (size_t t = 0; t < tables_.size(); ++t) {
        for (const LayoutEntry& e : ColumnsOf(static_cast<int>(t))) {
          const int pos = FindLayout(e);
          const Field& f = input_schema.field(pos);
          exprs.push_back(Col(pos, f.type, f.name));
          names.push_back(f.name);
          item_keys_.push_back(f.name);
        }
      }
      return MakeProject(std::move(plan), std::move(exprs), std::move(names));
    }
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (const SelectItem& item : stmt_.items) {
      ECODB_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(*item.expr, input_schema));
      names.push_back(!item.alias.empty() ? item.alias
                                          : item.expr->ToString());
      item_keys_.push_back(item.expr->ToString());
      exprs.push_back(std::move(e));
    }
    return MakeProject(std::move(plan), std::move(exprs), std::move(names));
  }

  if (stmt_.select_star) {
    return Status::ParseError("SELECT * cannot be combined with aggregates");
  }
  aggregated_ = true;

  // Bind group-by expressions against the join output.
  std::vector<ExprPtr> group_exprs;
  std::vector<std::string> group_texts;
  for (const AstExprPtr& g : stmt_.group_by) {
    ECODB_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(*g, input_schema));
    group_texts.push_back(g->ToString());
    group_exprs.push_back(std::move(e));
  }

  // Each select item must be a group-by expression or an aggregate call.
  struct OutputSlot {
    bool is_group = false;
    int group_index = 0;
    int agg_index = 0;
    std::string name;
  };
  std::vector<OutputSlot> slots;
  std::vector<AggSpec> aggs;
  for (const SelectItem& item : stmt_.items) {
    OutputSlot slot;
    std::string text = item.expr->ToString();
    slot.name = !item.alias.empty() ? item.alias : text;
    item_keys_.push_back(text);
    auto git = std::find(group_texts.begin(), group_texts.end(), text);
    if (git != group_texts.end()) {
      slot.is_group = true;
      slot.group_index = static_cast<int>(git - group_texts.begin());
      slots.push_back(slot);
      continue;
    }
    if (item.expr->kind != AstKind::kFuncCall ||
        !IsAggregateName(item.expr->name)) {
      return Status::ParseError(StrFormat(
          "select item '%s' is neither a GROUP BY column nor an aggregate",
          text.c_str()));
    }
    AggSpec spec;
    if (item.expr->name == "SUM") {
      spec.kind = AggSpec::Kind::kSum;
    } else if (item.expr->name == "COUNT") {
      spec.kind = AggSpec::Kind::kCount;
    } else if (item.expr->name == "AVG") {
      spec.kind = AggSpec::Kind::kAvg;
    } else if (item.expr->name == "MIN") {
      spec.kind = AggSpec::Kind::kMin;
    } else {
      spec.kind = AggSpec::Kind::kMax;
    }
    if (item.expr->args.size() != 1) {
      return Status::ParseError("aggregates take exactly one argument");
    }
    if (item.expr->args[0]->kind == AstKind::kStar) {
      if (spec.kind != AggSpec::Kind::kCount) {
        return Status::ParseError("'*' argument is only valid for COUNT");
      }
      spec.arg = nullptr;
    } else {
      ECODB_ASSIGN_OR_RETURN(spec.arg,
                             BindScalar(*item.expr->args[0], input_schema));
    }
    spec.name = slot.name;
    slot.agg_index = static_cast<int>(aggs.size());
    aggs.push_back(std::move(spec));
    slots.push_back(slot);
  }

  size_t n_groups = group_exprs.size();
  PlanNodePtr agg_plan = MakeAggregate(std::move(plan),
                                       std::move(group_exprs), aggs);

  // Final projection in select-item order with aliases.
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  const Schema& agg_schema = agg_plan->output_schema;
  for (const OutputSlot& slot : slots) {
    int idx = slot.is_group ? slot.group_index
                            : static_cast<int>(n_groups) + slot.agg_index;
    exprs.push_back(Col(idx, agg_schema.field(idx).type, slot.name));
    names.push_back(slot.name);
  }
  return MakeProject(std::move(agg_plan), std::move(exprs),
                     std::move(names));
}

Result<PlanNodePtr> Planner::ApplyOrderLimit(PlanNodePtr plan) {
  if (!stmt_.order_by.empty()) {
    const Schema& schema = plan->output_schema;
    std::vector<SortKey> keys;
    for (const OrderItem& item : stmt_.order_by) {
      SortKey key;
      key.ascending = item.ascending;
      // Resolve: output column/alias name, select-item text, or scalar
      // expression over the output schema.
      std::string text = item.expr->ToString();
      int idx = -1;
      if (item.expr->kind == AstKind::kColumn) {
        idx = schema.FindField(item.expr->name);
      }
      if (idx < 0) {
        for (size_t i = 0; i < item_keys_.size(); ++i) {
          if (item_keys_[i] == text) {
            idx = static_cast<int>(i);
            break;
          }
        }
      }
      if (idx >= 0) {
        key.expr = Col(idx, schema.field(idx).type, schema.field(idx).name);
      } else {
        ECODB_ASSIGN_OR_RETURN(key.expr, BindScalar(*item.expr, schema));
      }
      keys.push_back(std::move(key));
    }
    plan = MakeSort(std::move(plan), std::move(keys));
  }
  if (stmt_.limit >= 0) {
    plan = MakeLimit(std::move(plan), stmt_.limit);
  }
  return plan;
}

Result<PlanNodePtr> Planner::Plan() {
  if (stmt_.from_tables.empty()) {
    return Status::ParseError("FROM clause is required");
  }
  if (stmt_.from_tables.size() > kMaxJoinTables) {
    return Status::ParseError(
        StrFormat("FROM clause names %zu tables; at most %zu are supported",
                  stmt_.from_tables.size(), kMaxJoinTables));
  }
  // Resolve tables.
  for (const std::string& name : stmt_.from_tables) {
    const Table* t = catalog_.FindTable(name);
    if (t == nullptr) {
      return Status::NotFound(StrFormat("unknown table '%s'", name.c_str()));
    }
    TableRef ref;
    ref.name = name;
    ref.table = t;
    tables_.push_back(std::move(ref));
  }

  // Map every column name to its table (TPC-H names are unique).
  auto resolve = [&](const std::string& col) -> ColumnRef {
    for (size_t t = 0; t < tables_.size(); ++t) {
      int c = tables_[t].table->schema().FindField(col);
      if (c >= 0) return ColumnRef{static_cast<int>(t), c};
    }
    return ColumnRef{-1, -1};
  };

  // Classify WHERE conjuncts.
  std::vector<const AstExpr*> conjuncts;
  if (stmt_.where) CollectConjuncts(*stmt_.where, &conjuncts);
  for (const AstExpr* c : conjuncts) {
    // Equi-join?
    if (c->kind == AstKind::kCompare && c->cmp_op == CompareOp::kEq &&
        c->args[0]->kind == AstKind::kColumn &&
        c->args[1]->kind == AstKind::kColumn) {
      ColumnRef a = resolve(c->args[0]->name);
      ColumnRef b = resolve(c->args[1]->name);
      if (a.table < 0 || b.table < 0) {
        return Status::ParseError(
            StrFormat("unknown column in join condition '%s'",
                      c->ToString().c_str()));
      }
      if (a.table != b.table) {
        AddJoinEdge(a, b);
        continue;
      }
    }
    // Single table?
    std::vector<std::string> cols;
    CollectColumnNames(*c, &cols);
    int home = -2;
    for (const std::string& col : cols) {
      int t = resolve(col).table;
      if (t < 0) {
        return Status::ParseError(
            StrFormat("unknown column '%s'", col.c_str()));
      }
      if (home == -2) {
        home = t;
      } else if (home != t) {
        home = -1;
      }
    }
    if (home >= 0) {
      tables_[static_cast<size_t>(home)].local_predicates.push_back(c);
    } else {
      residual_.push_back(c);
    }
  }

  // Within one table, members of a class are equal through the other
  // tables' columns; a join adds one key per class, so say it locally.
  for (EquivClass& c : classes_) {
    for (size_t i = 0; i < c.members.size(); ++i) {
      const ColumnRef m = c.members[i];
      c.tables |= 1u << m.table;
      for (size_t j = 0; j < i; ++j) {
        if (c.members[j].table == m.table) {
          tables_[static_cast<size_t>(m.table)]
              .implied_equalities.emplace_back(c.members[j].column, m.column);
          break;
        }
      }
    }
  }

  PruneColumns();
  for (size_t t = 0; t < tables_.size(); ++t) {
    ECODB_RETURN_NOT_OK(BuildBaseInput(static_cast<int>(t)));
  }

  PlanNodePtr plan;
  if (tables_.size() == 1) {
    plan = std::move(tables_[0].input);
    layout_ = ColumnsOf(0);
  } else {
    ECODB_ASSIGN_OR_RETURN(plan, BuildJoinTree());
  }

  ECODB_ASSIGN_OR_RETURN(plan, ApplyResidual(std::move(plan)));
  ECODB_ASSIGN_OR_RETURN(plan, ApplyAggregation(std::move(plan)));
  return ApplyOrderLimit(std::move(plan));
}

}  // namespace

Result<PlanNodePtr> PlanQuery(const std::string& sql_text,
                              const Catalog& catalog, const CostModel& model,
                              const SystemSettings& settings) {
  ECODB_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql_text));
  Planner planner(stmt, catalog, model, settings);
  return planner.Plan();
}

}  // namespace ecodb::sql
