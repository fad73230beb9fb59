// Expression trees, evaluated a batch at a time in one of two forms:
//  * EvalBatch — over a batch selection into a typed lane of the node's
//    declared type (RowBatch::TypedLane). Inner nodes evaluate into pooled
//    scratch lanes (exec/expr_scratch.h); a column operand is read in
//    place and a literal as one scalar cell (BatchOperand);
//  * FilterBatch — the predicate form, narrowing a selection in place.
//
// Both count comparisons/arithmetic *lazily*, per row (AND/OR
// short-circuit, BETWEEN skips `hi` after a `lo` miss, IN lists stop at
// the first hit): the cost of a merged QED disjunction grows with the
// number of disjuncts actually inspected, which is what produces the
// paper's Figure 6 trade-off shape. The counts are defined by the tests'
// scalar oracle (tests/reference_eval.h, RefEval), which shares no
// evaluation code with these forms.

#ifndef ECODB_EXEC_EXPR_H_
#define ECODB_EXEC_EXPR_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ecodb/exec/exec_context.h"
#include "ecodb/exec/expr_scratch.h"
#include "ecodb/exec/row_batch.h"
#include "ecodb/storage/value.h"

namespace ecodb {

enum class ExprKind {
  kColumn,
  kLiteral,
  kCompare,
  kLogical,
  kNot,
  kArith,
  kBetween,
  kInList,
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class LogicalOp { kAnd, kOr };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

const char* ToString(CompareOp op);
const char* ToString(LogicalOp op);
const char* ToString(ArithOp op);

class Expr;
class ColumnExpr;
class TypedColumn;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  virtual ~Expr() = default;

  /// Vectorized evaluation over the rows listed in `sel` (a subset of
  /// `batch.sel()`) into `out`, which is restarted as a lane of type()
  /// indexed by physical row: bools and dates in the int64 array, NULL in
  /// the null mask. Only positions in `sel` are written. A column keeps
  /// its input's lane form (a dictionary-code lane stays codes; table
  /// cells are borrowed, not copied). Implementations MUST charge `c`
  /// exactly the per-row lazy counts the header comment describes.
  /// `scratch` (may be null) is the driving operator's pool; every
  /// per-batch temporary comes from it, so a steady-state pipeline
  /// allocates O(operators), not O(batches x nodes).
  virtual void EvalBatch(const RowBatch& batch, const SelVec& sel,
                         RowBatch::TypedLane* out, EvalCounters* c,
                         ExprScratch* scratch) const = 0;
  void EvalBatch(const RowBatch& batch, const SelVec& sel,
                 RowBatch::TypedLane* out, EvalCounters* c) const {
    EvalBatch(batch, sel, out, c, nullptr);
  }

  /// Predicate form of EvalBatch: narrows `sel` in place to the rows where
  /// this expression is truthy, charging `c` exactly as EvalBatch over the
  /// same selection would. The base implementation evaluates into a
  /// scratch lane and keeps the truthy rows; CompareExpr and AND-chains
  /// override to skip the boolean lane entirely (the hot shape under
  /// FilterOp).
  virtual void FilterBatch(const RowBatch& batch, std::vector<uint32_t>* sel,
                           EvalCounters* c, ExprScratch* scratch) const;
  void FilterBatch(const RowBatch& batch, std::vector<uint32_t>* sel,
                   EvalCounters* c) const {
    FilterBatch(batch, sel, c, nullptr);
  }

  virtual ExprKind kind() const = 0;
  virtual ValueType type() const = 0;
  virtual std::string ToString() const = 0;

  /// Every column reference node of this subtree, appended to `out`.
  virtual void CollectColumns(std::vector<const ColumnExpr*>* out) const = 0;
};

// --- Node accessors (for the planner / MQO, which inspect trees) ---

class ColumnExpr : public Expr {
 public:
  ColumnExpr(int index, ValueType type, std::string name);
  void EvalBatch(const RowBatch& batch, const SelVec& sel,
                 RowBatch::TypedLane* out, EvalCounters* c,
                 ExprScratch* scratch) const override;
  using Expr::EvalBatch;
  ExprKind kind() const override { return ExprKind::kColumn; }
  ValueType type() const override { return type_; }
  std::string ToString() const override { return name_; }
  void CollectColumns(std::vector<const ColumnExpr*>* out) const override;

  int index() const { return index_; }
  const std::string& name() const { return name_; }

 private:
  int index_;
  ValueType type_;
  std::string name_;
};

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}
  void EvalBatch(const RowBatch& batch, const SelVec& sel,
                 RowBatch::TypedLane* out, EvalCounters* c,
                 ExprScratch* scratch) const override;
  using Expr::EvalBatch;
  ExprKind kind() const override { return ExprKind::kLiteral; }
  ValueType type() const override { return value_.type(); }
  std::string ToString() const override;
  void CollectColumns(std::vector<const ColumnExpr*>*) const override {}

  const Value& value() const { return value_; }

 private:
  Value value_;
};

class CompareExpr : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr left, ExprPtr right);
  void EvalBatch(const RowBatch& batch, const SelVec& sel,
                 RowBatch::TypedLane* out, EvalCounters* c,
                 ExprScratch* scratch) const override;
  using Expr::EvalBatch;
  void FilterBatch(const RowBatch& batch, std::vector<uint32_t>* sel,
                   EvalCounters* c, ExprScratch* scratch) const override;
  using Expr::FilterBatch;
  ExprKind kind() const override { return ExprKind::kCompare; }
  ValueType type() const override { return ValueType::kBool; }
  std::string ToString() const override;
  void CollectColumns(std::vector<const ColumnExpr*>* out) const override;

  CompareOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

 private:
  CompareOp op_;
  ExprPtr left_, right_;
};

/// N-ary AND/OR with short-circuit evaluation in operand order.
class LogicalExpr : public Expr {
 public:
  LogicalExpr(LogicalOp op, std::vector<ExprPtr> operands);
  void EvalBatch(const RowBatch& batch, const SelVec& sel,
                 RowBatch::TypedLane* out, EvalCounters* c,
                 ExprScratch* scratch) const override;
  using Expr::EvalBatch;
  void FilterBatch(const RowBatch& batch, std::vector<uint32_t>* sel,
                   EvalCounters* c, ExprScratch* scratch) const override;
  using Expr::FilterBatch;
  ExprKind kind() const override { return ExprKind::kLogical; }
  ValueType type() const override { return ValueType::kBool; }
  std::string ToString() const override;
  void CollectColumns(std::vector<const ColumnExpr*>* out) const override;

  LogicalOp op() const { return op_; }
  const std::vector<ExprPtr>& operands() const { return operands_; }

 private:
  LogicalOp op_;
  std::vector<ExprPtr> operands_;
};

class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr operand) : operand_(std::move(operand)) {}
  void EvalBatch(const RowBatch& batch, const SelVec& sel,
                 RowBatch::TypedLane* out, EvalCounters* c,
                 ExprScratch* scratch) const override;
  using Expr::EvalBatch;
  ExprKind kind() const override { return ExprKind::kNot; }
  ValueType type() const override { return ValueType::kBool; }
  std::string ToString() const override;
  void CollectColumns(std::vector<const ColumnExpr*>* out) const override;

  const ExprPtr& operand() const { return operand_; }

 private:
  ExprPtr operand_;
};

class ArithExpr : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr left, ExprPtr right);
  void EvalBatch(const RowBatch& batch, const SelVec& sel,
                 RowBatch::TypedLane* out, EvalCounters* c,
                 ExprScratch* scratch) const override;
  using Expr::EvalBatch;
  ExprKind kind() const override { return ExprKind::kArith; }
  ValueType type() const override { return type_; }
  std::string ToString() const override;
  void CollectColumns(std::vector<const ColumnExpr*>* out) const override;

  ArithOp op() const { return op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

 private:
  ArithOp op_;
  ExprPtr left_, right_;
  ValueType type_;
};

/// expr BETWEEN lo AND hi (inclusive).
class BetweenExpr : public Expr {
 public:
  BetweenExpr(ExprPtr operand, ExprPtr lo, ExprPtr hi);
  void EvalBatch(const RowBatch& batch, const SelVec& sel,
                 RowBatch::TypedLane* out, EvalCounters* c,
                 ExprScratch* scratch) const override;
  using Expr::EvalBatch;
  ExprKind kind() const override { return ExprKind::kBetween; }
  ValueType type() const override { return ValueType::kBool; }
  std::string ToString() const override;
  void CollectColumns(std::vector<const ColumnExpr*>* out) const override;

  const ExprPtr& operand() const { return operand_; }
  const ExprPtr& lo() const { return lo_; }
  const ExprPtr& hi() const { return hi_; }

 private:
  ExprPtr operand_, lo_, hi_;
};

/// expr IN (v1, v2, ...). Two evaluation strategies:
///  * linear scan with short-circuit (what MySQL's OR chain does; default —
///    this is the cost model QED's paper numbers embody), and
///  * a hash set (one probe regardless of list size; the
///    ablation_qed_inlist bench contrasts the two).
class InListExpr : public Expr {
 public:
  InListExpr(ExprPtr operand, std::vector<Value> values, bool hashed);
  InListExpr(const InListExpr&) = delete;  // set_ points into values_
  InListExpr& operator=(const InListExpr&) = delete;
  void EvalBatch(const RowBatch& batch, const SelVec& sel,
                 RowBatch::TypedLane* out, EvalCounters* c,
                 ExprScratch* scratch) const override;
  using Expr::EvalBatch;
  ExprKind kind() const override { return ExprKind::kInList; }
  ValueType type() const override { return ValueType::kBool; }
  std::string ToString() const override;
  void CollectColumns(std::vector<const ColumnExpr*>* out) const override;

  const ExprPtr& operand() const { return operand_; }
  const std::vector<Value>& values() const { return values_; }
  bool hashed() const { return hashed_; }

 private:
  // Hashed with HashCellView and equal under CompareCellViews, which are
  // bit-for-bit Value::Hash and Value::Compare: a probed cell is looked
  // up as it lies in its lane, never boxed.
  struct ViewHash {
    size_t operator()(const CellView& v) const { return HashCellView(v); }
  };
  struct ViewEq {
    bool operator()(const CellView& a, const CellView& b) const {
      return CompareCellViews(a, b) == 0;
    }
  };
  ExprPtr operand_;
  std::vector<Value> values_;
  bool hashed_;
  std::unordered_set<CellView, ViewHash, ViewEq> set_;  ///< into values_
};

/// One operand of a batch kernel, resolved without copying where
/// possible: a column reads the batch's own lane in place, a literal is
/// one scalar cell for every row, and anything else evaluates (EvalBatch)
/// into a lane pooled from `scratch`. Column and literal references
/// charge nothing. The referenced batch / expression must outlive the
/// operand.
class BatchOperand {
 public:
  BatchOperand() = default;
  ~BatchOperand() { ReleaseStorage(); }
  BatchOperand(const BatchOperand&) = delete;
  BatchOperand& operator=(const BatchOperand&) = delete;

  void Resolve(const Expr& e, const RowBatch& batch, const SelVec& sel,
               EvalCounters* c, ExprScratch* scratch = nullptr);

  /// Unboxed view of the operand for row `r` (no allocation, ever).
  CellView view_at(uint32_t r) const {
    return lane_ != nullptr ? lane_->ViewAt(r) : scalar_;
  }
  /// The operand's cells by physical row, or nullptr for a literal.
  const RowBatch::TypedLane* lane() const { return lane_; }
  /// A literal operand's one cell (meaningful when lane() is nullptr).
  const CellView& scalar() const { return scalar_; }

 private:
  void ReleaseStorage() {
    if (pooled_ != nullptr) scratch_->Release(pooled_);
    pooled_ = nullptr;
    scratch_ = nullptr;
  }

  const RowBatch::TypedLane* lane_ = nullptr;
  CellView scalar_;
  RowBatch::TypedLane* pooled_ = nullptr;  ///< scratch-pooled storage
  ExprScratch* scratch_ = nullptr;
  RowBatch::TypedLane local_;  ///< storage when no scratch is given
};

/// Evaluates `e` over `batch.sel()` and appends the selected cells to
/// `dst` (a column of e.type()) through TypedColumn::AppendLane: a plain
/// column straight from the batch's lane, anything else from its
/// evaluated lane. How sort keys and shipped aggregate arguments enter
/// their pools. Returns that lane's TypedLane::table_strings().
bool AppendExprColumn(const Expr& e, const RowBatch& batch, EvalCounters* c,
                      ExprScratch* scratch, TypedColumn* dst);

// --- Construction helpers ---

ExprPtr Col(int index, ValueType type, std::string name);
ExprPtr Lit(Value v);
ExprPtr LitInt(int64_t v);
ExprPtr LitDbl(double v);
ExprPtr LitStr(std::string v);
ExprPtr LitDate(std::string_view iso);
ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r);
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr And(std::vector<ExprPtr> operands);
ExprPtr Or(std::vector<ExprPtr> operands);
ExprPtr Not(ExprPtr e);
ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r);
ExprPtr Between(ExprPtr e, ExprPtr lo, ExprPtr hi);
ExprPtr InList(ExprPtr e, std::vector<Value> values, bool hashed = false);

}  // namespace ecodb

#endif  // ECODB_EXEC_EXPR_H_
