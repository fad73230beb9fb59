// Reference evaluator: the answer oracle for the engine's tests.
//
// A tuple-at-a-time Volcano interpreter over PlanNode, written to be
// obviously correct rather than fast. Each node is an iterator whose
// Next() returns the next boxed Row or nullopt at end of stream. Tables
// are read through Table::GetRow and expressions are evaluated by RefEval
// below, a recursive interpreter over the node accessors and Value that
// spells out the scalar semantics itself; nothing is charged to a
// simulated machine, no arena or typed column is involved, and no
// evaluation code is shared with the engine (which evaluates only a batch
// at a time, Expr::EvalBatch / FilterBatch).
//
// It reproduces the orders the engine defines, so results compare row
// for row:
//   * scans emit table order;
//   * joins emit probe (hash join) / outer (nested loop) order, and for
//     each such row its matches in build / inner insertion order;
//   * aggregation emits groups in first-occurrence order and sums in
//     input order; a global aggregate over empty input yields one row;
//   * sort is stable.
// Keys are equal when every component compares equal (Value::Compare),
// so NULL keys group and join with each other, as in the engine.

#ifndef ECODB_TESTS_REFERENCE_EVAL_H_
#define ECODB_TESTS_REFERENCE_EVAL_H_

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "ecodb/ecodb.h"

namespace ecodb {
namespace testing {

class RefNode {
 public:
  virtual ~RefNode() = default;
  virtual std::optional<Row> Next() = 0;
};

using RefNodePtr = std::unique_ptr<RefNode>;

RefNodePtr MakeRefNode(const PlanNode& plan, const Catalog& catalog);

/// Runs `plan` to completion and returns its rows.
inline std::vector<Row> ReferenceEvaluate(const PlanNode& plan,
                                          const Catalog& catalog) {
  RefNodePtr root = MakeRefNode(plan, catalog);
  std::vector<Row> rows;
  while (std::optional<Row> row = root->Next()) rows.push_back(*row);
  return rows;
}

/// Evaluates `e` over one boxed row, counting comparisons and arithmetic
/// ops into `c` (may be null) lazily, as the engine's documented contract
/// (exec/expr.h) says a tuple-at-a-time interpreter would:
///   * a column or literal counts nothing;
///   * a comparison counts one, also when an operand is NULL, and a NULL
///     operand compares false;
///   * AND/OR evaluate operands in order and stop at the first falsy /
///     truthy one;
///   * BETWEEN decides a NULL operand false with nothing counted, counts
///     one for `lo`, and skips `hi` (its evaluation and its count) after a
///     `lo` miss; a NULL `lo` passes the low check, a NULL `hi` fails
///     the high one;
///   * IN decides a NULL operand false with nothing counted; a linear list
///     counts one per candidate up to its first hit, a hashed one counts
///     one probe, membership being equality under Value::Compare;
///   * arithmetic counts one op; it is integer (two's-complement
///     wrapping, INT64_MIN / -1 = INT64_MIN) when neither operand's
///     declared type is DOUBLE, else IEEE double; a NULL operand or a zero
///     divisor gives NULL.
inline Value RefEval(const Expr& e, const Row& row, EvalCounters* c) {
  auto count_compare = [c] {
    if (c != nullptr) ++c->comparisons;
  };
  auto holds = [](CompareOp op, int cmp) {
    switch (op) {
      case CompareOp::kEq:
        return cmp == 0;
      case CompareOp::kNe:
        return cmp != 0;
      case CompareOp::kLt:
        return cmp < 0;
      case CompareOp::kLe:
        return cmp <= 0;
      case CompareOp::kGt:
        return cmp > 0;
      case CompareOp::kGe:
        return cmp >= 0;
    }
    return false;
  };
  switch (e.kind()) {
    case ExprKind::kColumn:
      return row.at(static_cast<size_t>(
          static_cast<const ColumnExpr&>(e).index()));
    case ExprKind::kLiteral:
      return static_cast<const LiteralExpr&>(e).value();
    case ExprKind::kCompare: {
      const auto& x = static_cast<const CompareExpr&>(e);
      const Value l = RefEval(*x.left(), row, c);
      const Value r = RefEval(*x.right(), row, c);
      count_compare();
      if (l.is_null() || r.is_null()) return Value::Bool(false);
      return Value::Bool(holds(x.op(), l.Compare(r)));
    }
    case ExprKind::kLogical: {
      const auto& x = static_cast<const LogicalExpr&>(e);
      // AND stops at a falsy operand, OR at a truthy one.
      const bool stop_on = x.op() == LogicalOp::kOr;
      for (const ExprPtr& operand : x.operands()) {
        if (RefEval(*operand, row, c).IsTruthy() == stop_on) {
          return Value::Bool(stop_on);
        }
      }
      return Value::Bool(!stop_on);
    }
    case ExprKind::kNot: {
      const auto& x = static_cast<const NotExpr&>(e);
      return Value::Bool(!RefEval(*x.operand(), row, c).IsTruthy());
    }
    case ExprKind::kArith: {
      const auto& x = static_cast<const ArithExpr&>(e);
      const Value l = RefEval(*x.left(), row, c);
      const Value r = RefEval(*x.right(), row, c);
      if (c != nullptr) ++c->arith_ops;
      if (l.is_null() || r.is_null()) return Value::Null();
      const bool integer = x.left()->type() != ValueType::kDouble &&
                           x.right()->type() != ValueType::kDouble;
      if (integer) {
        const uint64_t a = static_cast<uint64_t>(l.AsInt());
        const uint64_t b = static_cast<uint64_t>(r.AsInt());
        switch (x.op()) {
          case ArithOp::kAdd:
            return Value::Int(static_cast<int64_t>(a + b));
          case ArithOp::kSub:
            return Value::Int(static_cast<int64_t>(a - b));
          case ArithOp::kMul:
            return Value::Int(static_cast<int64_t>(a * b));
          case ArithOp::kDiv:
            if (b == 0) return Value::Null();
            if (r.AsInt() == -1) return Value::Int(static_cast<int64_t>(0 - a));
            return Value::Int(l.AsInt() / r.AsInt());
        }
        return Value::Null();
      }
      const double a = l.AsDouble();
      const double b = r.AsDouble();
      switch (x.op()) {
        case ArithOp::kAdd:
          return Value::Dbl(a + b);
        case ArithOp::kSub:
          return Value::Dbl(a - b);
        case ArithOp::kMul:
          return Value::Dbl(a * b);
        case ArithOp::kDiv:
          if (b == 0.0) return Value::Null();
          return Value::Dbl(a / b);
      }
      return Value::Null();
    }
    case ExprKind::kBetween: {
      const auto& x = static_cast<const BetweenExpr&>(e);
      const Value v = RefEval(*x.operand(), row, c);
      if (v.is_null()) return Value::Bool(false);
      const Value lo = RefEval(*x.lo(), row, c);
      count_compare();
      if (!lo.is_null() && v.Compare(lo) < 0) return Value::Bool(false);
      const Value hi = RefEval(*x.hi(), row, c);
      count_compare();
      return Value::Bool(!hi.is_null() && v.Compare(hi) <= 0);
    }
    case ExprKind::kInList: {
      const auto& x = static_cast<const InListExpr&>(e);
      const Value v = RefEval(*x.operand(), row, c);
      if (v.is_null()) return Value::Bool(false);
      bool hit = false;
      for (const Value& candidate : x.values()) {
        if (!x.hashed()) count_compare();
        if (v.Compare(candidate) == 0) {
          hit = true;
          break;
        }
      }
      if (x.hashed()) count_compare();  // one probe
      return Value::Bool(hit);
    }
  }
  return Value::Null();
}

namespace ref_internal {

/// Lexicographic order on key rows under Value::Compare.
struct KeyLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  }
};

inline Value Eval(const Expr& e, const Row& row) {
  return RefEval(e, row, nullptr);
}

inline Row Concat(const Row& a, const Row& b) {
  Row out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

inline Row Pick(const Row& row, const std::vector<int>& cols) {
  Row out;
  for (int c : cols) out.push_back(row[static_cast<size_t>(c)]);
  return out;
}

inline std::vector<Row> Drain(RefNode* node) {
  std::vector<Row> rows;
  while (std::optional<Row> row = node->Next()) rows.push_back(*row);
  return rows;
}

class Scan : public RefNode {
 public:
  explicit Scan(const Table* table) : table_(table) {}
  std::optional<Row> Next() override {
    if (pos_ >= table_->num_rows()) return std::nullopt;
    Row row;
    table_->GetRow(pos_++, &row);
    return row;
  }

 private:
  const Table* table_;
  size_t pos_ = 0;
};

class Filter : public RefNode {
 public:
  Filter(RefNodePtr child, const Expr* pred)
      : child_(std::move(child)), pred_(pred) {}
  std::optional<Row> Next() override {
    while (std::optional<Row> row = child_->Next()) {
      if (Eval(*pred_, *row).IsTruthy()) return row;
    }
    return std::nullopt;
  }

 private:
  RefNodePtr child_;
  const Expr* pred_;
};

class Project : public RefNode {
 public:
  Project(RefNodePtr child, const std::vector<ExprPtr>* exprs)
      : child_(std::move(child)), exprs_(exprs) {}
  std::optional<Row> Next() override {
    std::optional<Row> in = child_->Next();
    if (!in) return std::nullopt;
    Row out;
    for (const ExprPtr& e : *exprs_) out.push_back(Eval(*e, *in));
    return out;
  }

 private:
  RefNodePtr child_;
  const std::vector<ExprPtr>* exprs_;
};

/// Emits, for each probe row, every build row with equal keys in build
/// order, as build ++ probe.
class HashJoin : public RefNode {
 public:
  HashJoin(RefNodePtr build, RefNodePtr probe, const PlanNode& node)
      : build_child_(std::move(build)),
        probe_(std::move(probe)),
        node_(node) {}
  std::optional<Row> Next() override {
    if (build_child_ != nullptr) {
      build_ = Drain(build_child_.get());
      build_child_.reset();
      for (size_t i = 0; i < build_.size(); ++i) {
        table_[Pick(build_[i], node_.build_keys)].push_back(i);
      }
    }
    for (;;) {
      if (match_ < matches_.size()) {
        return Concat(build_[matches_[match_++]], probe_row_);
      }
      std::optional<Row> probe = probe_->Next();
      if (!probe) return std::nullopt;
      probe_row_ = std::move(*probe);
      auto it = table_.find(Pick(probe_row_, node_.probe_keys));
      matches_ = it == table_.end() ? std::vector<size_t>{} : it->second;
      match_ = 0;
    }
  }

 private:
  RefNodePtr build_child_;  ///< drained on the first Next
  RefNodePtr probe_;
  const PlanNode& node_;
  std::vector<Row> build_;
  std::map<Row, std::vector<size_t>, KeyLess> table_;
  Row probe_row_;
  std::vector<size_t> matches_;
  size_t match_ = 0;
};

/// Emits outer ++ inner for every pair passing the predicate (all pairs
/// when there is none), inner rows in order per outer row.
class NestedLoopJoin : public RefNode {
 public:
  NestedLoopJoin(RefNodePtr outer, RefNodePtr inner, const Expr* pred)
      : outer_(std::move(outer)), inner_child_(std::move(inner)),
        pred_(pred) {}
  std::optional<Row> Next() override {
    if (inner_child_ != nullptr) {
      inner_ = Drain(inner_child_.get());
      inner_child_.reset();
      inner_pos_ = inner_.size();
    }
    for (;;) {
      while (inner_pos_ < inner_.size()) {
        Row row = Concat(outer_row_, inner_[inner_pos_++]);
        if (pred_ == nullptr || Eval(*pred_, row).IsTruthy()) return row;
      }
      std::optional<Row> outer = outer_->Next();
      if (!outer) return std::nullopt;
      outer_row_ = std::move(*outer);
      inner_pos_ = 0;
    }
  }

 private:
  RefNodePtr outer_;
  RefNodePtr inner_child_;  ///< drained on the first Next
  const Expr* pred_;
  std::vector<Row> inner_;
  Row outer_row_;
  size_t inner_pos_ = 0;
};

class Aggregate : public RefNode {
 public:
  Aggregate(RefNodePtr child, const PlanNode& node)
      : child_(std::move(child)), node_(node) {}
  std::optional<Row> Next() override {
    if (child_ != nullptr) Consume();
    if (pos_ >= out_.size()) return std::nullopt;
    return out_[pos_++];
  }

 private:
  struct Acc {
    double sum = 0;
    int64_t count = 0;
    Value best;  ///< running MIN or MAX
  };
  struct Group {
    Row key;
    std::vector<Acc> accs;
  };

  void Consume() {
    std::vector<Group> groups;
    std::map<Row, size_t, KeyLess> index;
    while (std::optional<Row> row = child_->Next()) {
      Row key;
      for (const ExprPtr& e : node_.group_by) key.push_back(Eval(*e, *row));
      auto it = index.find(key);
      if (it == index.end()) {
        it = index.emplace(key, groups.size()).first;
        groups.push_back(Group{key, std::vector<Acc>(node_.aggs.size())});
      }
      Update(&groups[it->second], *row);
    }
    child_.reset();
    if (groups.empty() && node_.group_by.empty()) {
      groups.push_back(Group{Row{}, std::vector<Acc>(node_.aggs.size())});
    }
    for (const Group& g : groups) out_.push_back(Finish(g));
  }

  void Update(Group* g, const Row& row) const {
    for (size_t i = 0; i < node_.aggs.size(); ++i) {
      const AggSpec& spec = node_.aggs[i];
      Acc& acc = g->accs[i];
      if (spec.arg == nullptr) {  // COUNT(*)
        ++acc.count;
        continue;
      }
      const Value v = Eval(*spec.arg, row);
      if (v.is_null()) continue;
      switch (spec.kind) {
        case AggSpec::Kind::kMin:
          if (acc.count == 0 || v.Compare(acc.best) < 0) acc.best = v;
          break;
        case AggSpec::Kind::kMax:
          if (acc.count == 0 || v.Compare(acc.best) > 0) acc.best = v;
          break;
        case AggSpec::Kind::kSum:
        case AggSpec::Kind::kAvg:
          acc.sum += v.AsDouble();
          break;
        case AggSpec::Kind::kCount:
          break;
      }
      ++acc.count;
    }
  }

  Row Finish(const Group& g) const {
    Row out = g.key;
    for (size_t i = 0; i < node_.aggs.size(); ++i) {
      const Acc& acc = g.accs[i];
      if (node_.aggs[i].kind == AggSpec::Kind::kCount) {
        out.push_back(Value::Int(acc.count));
      } else if (acc.count == 0) {
        out.push_back(Value::Null());
      } else if (node_.aggs[i].kind == AggSpec::Kind::kSum) {
        out.push_back(Value::Dbl(acc.sum));
      } else if (node_.aggs[i].kind == AggSpec::Kind::kAvg) {
        out.push_back(Value::Dbl(acc.sum / static_cast<double>(acc.count)));
      } else {
        out.push_back(acc.best);
      }
    }
    return out;
  }

  RefNodePtr child_;  ///< drained on the first Next
  const PlanNode& node_;
  std::vector<Row> out_;
  size_t pos_ = 0;
};

class Sort : public RefNode {
 public:
  Sort(RefNodePtr child, const std::vector<SortKey>* keys)
      : child_(std::move(child)), keys_(keys) {}
  std::optional<Row> Next() override {
    if (child_ != nullptr) {
      std::vector<std::pair<Row, Row>> keyed;  // (sort key, row)
      while (std::optional<Row> row = child_->Next()) {
        Row key;
        for (const SortKey& k : *keys_) key.push_back(Eval(*k.expr, *row));
        keyed.emplace_back(std::move(key), std::move(*row));
      }
      child_.reset();
      std::stable_sort(keyed.begin(), keyed.end(),
                       [&](const auto& a, const auto& b) {
                         for (size_t i = 0; i < keys_->size(); ++i) {
                           const int c = a.first[i].Compare(b.first[i]);
                           if (c != 0) {
                             return (*keys_)[i].ascending ? c < 0 : c > 0;
                           }
                         }
                         return false;
                       });
      for (auto& kr : keyed) out_.push_back(std::move(kr.second));
    }
    if (pos_ >= out_.size()) return std::nullopt;
    return out_[pos_++];
  }

 private:
  RefNodePtr child_;  ///< drained on the first Next
  const std::vector<SortKey>* keys_;
  std::vector<Row> out_;
  size_t pos_ = 0;
};

class Limit : public RefNode {
 public:
  Limit(RefNodePtr child, int64_t limit)
      : child_(std::move(child)), limit_(limit) {}
  std::optional<Row> Next() override {
    if (produced_ >= limit_) return std::nullopt;
    std::optional<Row> row = child_->Next();
    if (row) ++produced_;
    return row;
  }

 private:
  RefNodePtr child_;
  int64_t limit_;
  int64_t produced_ = 0;
};

}  // namespace ref_internal

inline RefNodePtr MakeRefNode(const PlanNode& plan, const Catalog& catalog) {
  namespace r = ref_internal;
  auto child = [&](size_t i) {
    return MakeRefNode(*plan.children[i], catalog);
  };
  switch (plan.kind) {
    case PlanKind::kScan:
      return std::make_unique<r::Scan>(catalog.FindTable(plan.table_name));
    case PlanKind::kFilter:
      return std::make_unique<r::Filter>(child(0), plan.predicate.get());
    case PlanKind::kProject:
      return std::make_unique<r::Project>(child(0), &plan.exprs);
    case PlanKind::kHashJoin:
      return std::make_unique<r::HashJoin>(child(0), child(1), plan);
    case PlanKind::kNestedLoopJoin:
      return std::make_unique<r::NestedLoopJoin>(child(0), child(1),
                                                 plan.predicate.get());
    case PlanKind::kAggregate:
      return std::make_unique<r::Aggregate>(child(0), plan);
    case PlanKind::kSort:
      return std::make_unique<r::Sort>(child(0), &plan.sort_keys);
    case PlanKind::kLimit:
      return std::make_unique<r::Limit>(child(0), plan.limit);
  }
  return nullptr;
}

}  // namespace testing
}  // namespace ecodb

#endif  // ECODB_TESTS_REFERENCE_EVAL_H_
