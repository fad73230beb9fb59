// Reference evaluator: the answer oracle for the engine's tests.
//
// A tuple-at-a-time Volcano interpreter over PlanNode, written to be
// obviously correct rather than fast. Each node is an iterator whose
// Next() returns the next boxed Row or nullopt at end of stream. Tables
// are read through Table::GetRow and expressions are evaluated with the
// recursive Expr::Eval(Row); nothing is charged to a simulated machine,
// no arena or typed column is involved, and no code is shared with the
// vectorized operators beyond the expression tree itself.
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
  EvalCounters unused;
  return e.Eval(row, &unused);
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
