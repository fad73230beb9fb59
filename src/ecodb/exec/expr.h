// Expression trees, evaluated tuple-at-a-time against bound column
// indexes. Evaluation counts comparisons/arithmetic *lazily* (AND/OR
// short-circuit, IN lists stop at the first hit): the cost of a merged
// QED disjunction therefore grows with the number of disjuncts actually
// inspected, which is what produces the paper's Figure 6 trade-off shape.

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
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  virtual ~Expr() = default;

  virtual Value Eval(const Row& row, EvalCounters* c) const = 0;

  /// Vectorized evaluation over the rows listed in `sel` (a subset of
  /// `batch.sel()`). `out` is resized to batch.num_rows(); only positions
  /// in `sel` are written. Implementations MUST charge `c` exactly as a
  /// row-at-a-time Eval loop over `sel` would — including AND/OR
  /// short-circuit and IN-list early-exit laziness — so that batch and row
  /// execution report identical logical work (the Figure 6 cost shape).
  /// `scratch` (may be null) is the driving operator's reusable temporary
  /// pool; implementations draw every per-batch temporary from it so a
  /// steady-state pipeline allocates O(operators), not O(batches x nodes).
  /// The base implementation materializes each selected row and calls
  /// Eval; subclasses override with tight columnar loops.
  virtual void EvalBatch(const RowBatch& batch,
                         const std::vector<uint32_t>& sel,
                         std::vector<Value>* out, EvalCounters* c,
                         ExprScratch* scratch) const;
  void EvalBatch(const RowBatch& batch, const std::vector<uint32_t>& sel,
                 std::vector<Value>* out, EvalCounters* c) const {
    EvalBatch(batch, sel, out, c, nullptr);
  }

  /// Predicate form of EvalBatch: narrows `sel` in place to the rows where
  /// this expression is truthy, charging `c` exactly as EvalBatch over the
  /// same selection would. The base implementation evaluates and compacts;
  /// CompareExpr and AND-chains override to skip materializing the boolean
  /// vector entirely (the hot shape under FilterOp).
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
  Value Eval(const Row& row, EvalCounters* c) const override;
  void EvalBatch(const RowBatch& batch, const std::vector<uint32_t>& sel,
                 std::vector<Value>* out, EvalCounters* c,
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
  Value Eval(const Row&, EvalCounters*) const override { return value_; }
  void EvalBatch(const RowBatch& batch, const std::vector<uint32_t>& sel,
                 std::vector<Value>* out, EvalCounters* c,
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
  Value Eval(const Row& row, EvalCounters* c) const override;
  void EvalBatch(const RowBatch& batch, const std::vector<uint32_t>& sel,
                 std::vector<Value>* out, EvalCounters* c,
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
  Value Eval(const Row& row, EvalCounters* c) const override;
  void EvalBatch(const RowBatch& batch, const std::vector<uint32_t>& sel,
                 std::vector<Value>* out, EvalCounters* c,
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
  Value Eval(const Row& row, EvalCounters* c) const override;
  void EvalBatch(const RowBatch& batch, const std::vector<uint32_t>& sel,
                 std::vector<Value>* out, EvalCounters* c,
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
  Value Eval(const Row& row, EvalCounters* c) const override;
  void EvalBatch(const RowBatch& batch, const std::vector<uint32_t>& sel,
                 std::vector<Value>* out, EvalCounters* c,
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
  Value Eval(const Row& row, EvalCounters* c) const override;
  void EvalBatch(const RowBatch& batch, const std::vector<uint32_t>& sel,
                 std::vector<Value>* out, EvalCounters* c,
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
  Value Eval(const Row& row, EvalCounters* c) const override;
  void EvalBatch(const RowBatch& batch, const std::vector<uint32_t>& sel,
                 std::vector<Value>* out, EvalCounters* c,
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
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  ExprPtr operand_;
  std::vector<Value> values_;
  bool hashed_;
  std::unordered_set<Value, ValueHash> set_;
};

/// True when `e` (a ColumnExpr / LiteralExpr / +,-,* ArithExpr tree) can
/// be evaluated entirely through raw double arrays against `batch`:
/// numeric null-free columns and non-null numeric literals. Division
/// and int64-typed arithmetic are excluded (NULL results / int wrapping
/// cannot be represented in doubles). Pure predicate — charges nothing.
bool CanEvalDoubleSubtree(const Expr& e, const RowBatch& batch);

/// Evaluates a CanEvalDoubleSubtree-approved subtree into raw doubles —
/// no Values anywhere. Results are either one scalar (*is_scalar) or
/// `vec` indexed by physical row. Operation counting matches the scalar
/// evaluator exactly: one arith op per arith node per selected row,
/// nothing for columns and literals. Internal per-node temporaries come
/// from `scratch` when provided.
void EvalDoubleSubtree(const Expr& e, const RowBatch& batch,
                       const std::vector<uint32_t>& sel,
                       std::vector<double>* vec, double* scalar,
                       bool* is_scalar, EvalCounters* c,
                       ExprScratch* scratch);

/// Batch operand accessor that avoids materializing a Value vector for the
/// two dominant leaf shapes: a ColumnExpr resolves to the batch column
/// *without* boxing it (view_at reads typed lanes in place) and a
/// LiteralExpr to a single shared Value; anything else evaluates into
/// scratch/local storage via EvalBatch. Counting parity holds because
/// column and literal references charge nothing in the scalar path
/// either. The referenced batch/expression must outlive the operand.
class BatchOperand {
 public:
  BatchOperand() = default;
  ~BatchOperand() { ReleaseStorage(); }
  BatchOperand(const BatchOperand&) = delete;
  BatchOperand& operator=(const BatchOperand&) = delete;
  BatchOperand(BatchOperand&& o) noexcept { *this = std::move(o); }
  BatchOperand& operator=(BatchOperand&& o) noexcept {
    ReleaseStorage();
    scalar_ = o.scalar_;
    batch_ = o.batch_;
    col_ = o.col_;
    borrowed_ = o.borrowed_;
    scratch_ = o.scratch_;
    local_ = std::move(o.local_);
    // A fallback-storage operand points vec_ at its own local_; re-point
    // it at *this* object's local_ or it would dangle into the
    // moved-from shell.
    vec_ = o.vec_ == &o.local_ ? &local_ : o.vec_;
    o.vec_ = nullptr;
    o.borrowed_ = nullptr;
    o.scratch_ = nullptr;
    return *this;
  }

  /// Unboxed view of the operand for row `r` (no allocation, ever).
  CellView view_at(uint32_t r) const {
    if (col_ >= 0) return batch_->ViewCell(col_, r);
    return CellView::Of(vec_ != nullptr ? (*vec_)[r] : *scalar_);
  }

  /// Column-reference binding (index >= 0 and the source batch), exposed
  /// so consumers can reach unboxed storage — dictionary code lanes —
  /// behind a plain column operand. -1 / nullptr for scalar and
  /// materialized operands.
  int column_index() const { return col_; }
  const RowBatch* source_batch() const { return batch_; }

  void Resolve(const Expr& e, const RowBatch& batch,
               const std::vector<uint32_t>& sel, EvalCounters* c,
               ExprScratch* scratch = nullptr);

 private:
  void ReleaseStorage() {
    if (scratch_ != nullptr && borrowed_ != nullptr) {
      scratch_->Release(borrowed_);
    }
    borrowed_ = nullptr;
    scratch_ = nullptr;
  }

  const std::vector<Value>* vec_ = nullptr;  ///< per-row values, or
  const Value* scalar_ = nullptr;  ///< one value for every row, or
  const RowBatch* batch_ = nullptr;  ///< an unboxed column reference
  int col_ = -1;
  std::vector<Value>* borrowed_ = nullptr;  ///< scratch-pooled storage
  ExprScratch* scratch_ = nullptr;
  std::vector<Value> local_;  ///< fallback storage when no scratch given
};

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
