#include "ecodb/exec/expr.h"

#include <algorithm>
#include <cassert>

#include "ecodb/exec/simd.h"
#include "ecodb/util/strings.h"

namespace ecodb {

namespace {

/// True when `sel` is a contiguous ascending run [front, back] — the
/// common case for scan batches before any filter narrows them. Dense
/// runs feed the SIMD kernels directly from the columnar arrays; sparse
/// selections stay on the scalar per-row loops (a gather would cost more
/// than it saves at typical post-filter densities).
inline bool SelIsDenseRun(const std::vector<uint32_t>& sel) {
  return !sel.empty() &&
         sel.back() - sel.front() + 1 == static_cast<uint32_t>(sel.size());
}

inline simd::CmpOp ToSimdOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return simd::CmpOp::kEq;
    case CompareOp::kNe:
      return simd::CmpOp::kNe;
    case CompareOp::kLt:
      return simd::CmpOp::kLt;
    case CompareOp::kLe:
      return simd::CmpOp::kLe;
    case CompareOp::kGt:
      return simd::CmpOp::kGt;
    case CompareOp::kGe:
      return simd::CmpOp::kGe;
  }
  return simd::CmpOp::kEq;
}

/// Reusable byte-mask / conversion scratch for the SIMD compare paths.
/// thread_local (not ExprScratch) so the kernels can run from any operator
/// without plumbing; grows to batch size once per worker thread, keeping
/// steady-state execution allocation-free.
inline uint8_t* MaskScratch(size_t n) {
  static thread_local std::vector<uint8_t> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

inline double* F64Scratch(size_t n) {
  static thread_local std::vector<double> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

}  // namespace

const char* ToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ToString(LogicalOp op) {
  return op == LogicalOp::kAnd ? "AND" : "OR";
}

const char* ToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

// --- Base EvalBatch (generic fallback) ---

void Expr::EvalBatch(const RowBatch& batch, const std::vector<uint32_t>& sel,
                     std::vector<Value>* out, EvalCounters* c,
                     ExprScratch*) const {
  out->resize(batch.num_rows());
  Row row;
  for (uint32_t r : sel) {
    batch.MaterializeRow(r, &row);
    (*out)[r] = Eval(row, c);
  }
}

void Expr::FilterBatch(const RowBatch& batch, std::vector<uint32_t>* sel,
                       EvalCounters* c, ExprScratch* scratch) const {
  ScratchVec<Value> vals(scratch);
  EvalBatch(batch, *sel, vals.get(), c, scratch);
  size_t w = 0;
  for (uint32_t r : *sel) {
    if ((*vals)[r].IsTruthy()) (*sel)[w++] = r;
  }
  sel->resize(w);
}

// --- ColumnExpr ---

ColumnExpr::ColumnExpr(int index, ValueType type, std::string name)
    : index_(index), type_(type), name_(std::move(name)) {}

Value ColumnExpr::Eval(const Row& row, EvalCounters*) const {
  assert(static_cast<size_t>(index_) < row.size());
  return row[static_cast<size_t>(index_)];
}

void ColumnExpr::EvalBatch(const RowBatch& batch,
                           const std::vector<uint32_t>& sel,
                           std::vector<Value>* out, EvalCounters*,
                           ExprScratch*) const {
  assert(index_ < batch.num_cols());
  out->resize(batch.num_rows());
  for (uint32_t r : sel) (*out)[r] = BoxCellView(batch.ViewCell(index_, r));
}

void ColumnExpr::CollectColumns(std::vector<const ColumnExpr*>* out) const {
  out->push_back(this);
}

// --- LiteralExpr ---

void LiteralExpr::EvalBatch(const RowBatch& batch,
                            const std::vector<uint32_t>& sel,
                            std::vector<Value>* out, EvalCounters*,
                            ExprScratch*) const {
  out->resize(batch.num_rows());
  for (uint32_t r : sel) (*out)[r] = value_;
}

std::string LiteralExpr::ToString() const {
  if (value_.type() == ValueType::kString) {
    return "'" + value_.ToString() + "'";
  }
  return value_.ToString();
}

// --- CompareExpr ---

void BatchOperand::Resolve(const Expr& e, const RowBatch& batch,
                           const std::vector<uint32_t>& sel, EvalCounters* c,
                           ExprScratch* scratch) {
  ReleaseStorage();
  vec_ = nullptr;
  scalar_ = nullptr;
  batch_ = nullptr;
  col_ = -1;
  if (e.kind() == ExprKind::kColumn) {
    // Deferred column binding: view_at reads the lane cell in place, so
    // resolving a column never boxes.
    batch_ = &batch;
    col_ = static_cast<const ColumnExpr&>(e).index();
    return;
  }
  if (e.kind() == ExprKind::kLiteral) {
    scalar_ = &static_cast<const LiteralExpr&>(e).value();
    return;
  }
  std::vector<Value>* storage;
  if (scratch != nullptr) {
    borrowed_ = scratch->Acquire<Value>();
    scratch_ = scratch;
    storage = borrowed_;
  } else {
    local_.clear();
    storage = &local_;
  }
  e.EvalBatch(batch, sel, storage, c, scratch);
  vec_ = storage;
}

namespace {

inline bool CompareOpHolds(CompareOp op, int cmp) {
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
}

inline Value ApplyCompare(CompareOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Bool(false);
  return Value::Bool(CompareOpHolds(op, l.Compare(r)));
}

inline bool IsIntBacked(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDate ||
         t == ValueType::kBool;
}

}  // namespace

/// Whether an arithmetic subtree can be evaluated entirely through typed
/// double arrays: numeric null-free columns, non-null numeric literals,
/// and +/-/* combinations thereof (division is excluded because
/// divide-by-zero yields NULL). Pure predicate — charges nothing.
bool CanEvalDoubleSubtree(const Expr& e, const RowBatch& batch) {
  switch (e.kind()) {
    case ExprKind::kColumn: {
      const int idx = static_cast<const ColumnExpr&>(e).index();
      // Lanes with nulls stay on the Value path: the scalar evaluator
      // propagates NULL, which raw doubles cannot represent.
      const RowBatch::TypedLane& lane = batch.lane(idx);
      return !lane.has_nulls && (lane.kind == RowBatch::LaneKind::kInt64 ||
                                 lane.kind == RowBatch::LaneKind::kDouble);
    }
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(e).value();
      return !v.is_null() &&
             (IsIntBacked(v.type()) || v.type() == ValueType::kDouble);
    }
    case ExprKind::kArith: {
      const auto& a = static_cast<const ArithExpr&>(e);
      // Division is excluded because divide-by-zero yields NULL; int-typed
      // nodes are excluded because the scalar path computes them in int64
      // (with int64 wrapping), which double arithmetic would not replicate.
      if (a.op() == ArithOp::kDiv || a.type() != ValueType::kDouble) {
        return false;
      }
      return CanEvalDoubleSubtree(*a.left(), batch) &&
             CanEvalDoubleSubtree(*a.right(), batch);
    }
    default:
      return false;
  }
}

/// Evaluates a CanEvalDoubleSubtree-approved subtree into raw doubles —
/// no Values anywhere. Results are either one scalar (*is_scalar) or
/// `vec` indexed by physical row. Operation counting matches the scalar
/// evaluator exactly: one arith op per arith node per selected row,
/// nothing for columns and literals.
void EvalDoubleSubtree(const Expr& e, const RowBatch& batch,
                       const std::vector<uint32_t>& sel,
                       std::vector<double>* vec, double* scalar,
                       bool* is_scalar, EvalCounters* c,
                       ExprScratch* scratch) {
  switch (e.kind()) {
    case ExprKind::kColumn: {
      const int idx = static_cast<const ColumnExpr&>(e).index();
      *is_scalar = false;
      vec->resize(batch.num_rows());
      const bool dense = SelIsDenseRun(sel);
      const size_t first = dense ? sel.front() : 0;
      const RowBatch::TypedLane& lane = batch.lane(idx);
      if (lane.kind == RowBatch::LaneKind::kDouble) {
        const double* v = lane.f64_data();
        if (dense) {
          std::copy(v + first, v + first + sel.size(),
                    vec->begin() + static_cast<ptrdiff_t>(first));
        } else {
          for (uint32_t r : sel) (*vec)[r] = v[r];
        }
      } else if (dense) {
        simd::ConvertI64ToF64(lane.i64_data() + first, sel.size(),
                              vec->data() + first);
      } else {
        const int64_t* v = lane.i64_data();
        for (uint32_t r : sel) (*vec)[r] = static_cast<double>(v[r]);
      }
      return;
    }
    case ExprKind::kLiteral: {
      *is_scalar = true;
      *scalar = static_cast<const LiteralExpr&>(e).value().AsDouble();
      return;
    }
    case ExprKind::kArith:
    default: {
      const auto& a = static_cast<const ArithExpr&>(e);
      // Child temporaries come from (and return to) the operator's pool
      // at scope exit, so a tree of depth d holds at most 2d pooled
      // vectors and steady-state evaluation allocates nothing.
      ScratchVec<double> lv(scratch), rv(scratch);
      double ls = 0, rs = 0;
      bool lsc = false, rsc = false;
      EvalDoubleSubtree(*a.left(), batch, sel, lv.get(), &ls, &lsc, c,
                        scratch);
      EvalDoubleSubtree(*a.right(), batch, sel, rv.get(), &rs, &rsc, c,
                        scratch);
      if (c != nullptr) c->arith_ops += sel.size();
      auto apply = [&](double x, double y) {
        switch (a.op()) {
          case ArithOp::kAdd:
            return x + y;
          case ArithOp::kSub:
            return x - y;
          case ArithOp::kMul:
            return x * y;
          case ArithOp::kDiv:
            break;  // excluded by CanEvalDoubleSubtree
        }
        return 0.0;
      };
      if (lsc && rsc) {
        *is_scalar = true;
        *scalar = apply(ls, rs);
        return;
      }
      *is_scalar = false;
      vec->resize(batch.num_rows());
      if (SelIsDenseRun(sel)) {
        // One IEEE op per element, SIMD over the dense run — bit-exact
        // against the scalar apply loop on any ISA.
        const size_t first = sel.front();
        const size_t n = sel.size();
        simd::ArithKind k = simd::ArithKind::kAdd;
        switch (a.op()) {
          case ArithOp::kAdd:
            k = simd::ArithKind::kAdd;
            break;
          case ArithOp::kSub:
            k = simd::ArithKind::kSub;
            break;
          case ArithOp::kMul:
            k = simd::ArithKind::kMul;
            break;
          case ArithOp::kDiv:
            break;  // excluded by CanEvalDoubleSubtree
        }
        double* out = vec->data() + first;
        if (lsc) {
          simd::ArithF64ScalarCol(k, ls, rv->data() + first, n, out);
        } else if (rsc) {
          simd::ArithF64ColScalar(k, lv->data() + first, rs, n, out);
        } else {
          simd::ArithF64ColCol(k, lv->data() + first, rv->data() + first, n,
                               out);
        }
        return;
      }
      for (uint32_t r : sel) {
        (*vec)[r] = apply(lsc ? ls : (*lv)[r], rsc ? rs : (*rv)[r]);
      }
      return;
    }
  }
}

namespace {

/// Typed fast path for `column <op> literal` over a null-free lane
/// column (scan lanes as well as projection and join output): compares
/// the lane's arrays directly instead of one CellView compare per cell.
/// Comparison semantics match Value::Compare (numeric coercion; a NULL
/// literal compares to false) and exactly one comparison per selected row
/// is charged, as on the generic path. Calls emit(row, pass) for each
/// selected row; returns false (charging nothing) when the shape doesn't
/// apply and the caller must take the generic path.
template <typename Emit>
bool ForEachColumnLiteralCompare(CompareOp op, const Expr& left,
                                 const Expr& right, const RowBatch& batch,
                                 const std::vector<uint32_t>& sel,
                                 EvalCounters* c, Emit&& emit) {
  if (left.kind() != ExprKind::kColumn ||
      right.kind() != ExprKind::kLiteral) {
    return false;
  }
  const int idx = static_cast<const ColumnExpr&>(left).index();
  const RowBatch::TypedLane& lane = batch.lane(idx);
  if (lane.has_nulls) return false;
  const Value& lit = static_cast<const LiteralExpr&>(right).value();
  const bool col_int = lane.kind == RowBatch::LaneKind::kInt64;
  const bool col_numeric = col_int || lane.kind == RowBatch::LaneKind::kDouble;
  const bool lit_int = IsIntBacked(lit.type());
  const bool lit_numeric = lit_int || lit.type() == ValueType::kDouble;

  enum class Path { kNullLit, kInt, kDouble, kString };
  Path path;
  if (lit.is_null()) {
    path = Path::kNullLit;
  } else if (col_int && lit_int) {
    path = Path::kInt;
  } else if (col_numeric && lit_numeric) {
    path = Path::kDouble;
  } else if (lane.type == ValueType::kString &&
             lit.type() == ValueType::kString) {
    path = Path::kString;
  } else {
    return false;  // mismatched non-numeric types: rare; generic path
  }

  if (c != nullptr) c->comparisons += sel.size();
  // Dense selections run the compare as one SIMD kernel over the lane's
  // array into a byte mask, then emit from the mask; sparse
  // selections keep the scalar per-row loop. Results and charged counts
  // are identical either way (the kernels' scalar fallback is the same
  // three-way-compare predicate).
  const bool dense = SelIsDenseRun(sel);
  const size_t n = sel.size();
  const size_t first = dense ? sel.front() : 0;
  switch (path) {
    case Path::kNullLit:  // scalar path: NULL operand compares to false
      for (uint32_t r : sel) emit(r, false);
      break;
    case Path::kInt: {
      const int64_t b = lit.AsInt();
      const int64_t* v = lane.i64_data();
      if (dense) {
        uint8_t* mask = MaskScratch(n);
        simd::CompareI64LitMask(v + first, n, ToSimdOp(op), b, mask);
        for (size_t i = 0; i < n; ++i) emit(sel[i], mask[i] != 0);
      } else {
        for (uint32_t r : sel) {
          const int64_t a = v[r];
          emit(r, CompareOpHolds(op, a < b ? -1 : (a > b ? 1 : 0)));
        }
      }
      break;
    }
    case Path::kDouble: {
      const double b = lit.AsDouble();
      if (dense) {
        uint8_t* mask = MaskScratch(n);
        if (col_int) {
          double* conv = F64Scratch(n);
          simd::ConvertI64ToF64(lane.i64_data() + first, n, conv);
          simd::CompareF64LitMask(conv, n, ToSimdOp(op), b, mask);
        } else {
          simd::CompareF64LitMask(lane.f64_data() + first, n, ToSimdOp(op),
                                  b, mask);
        }
        for (size_t i = 0; i < n; ++i) emit(sel[i], mask[i] != 0);
      } else if (col_int) {
        const int64_t* v = lane.i64_data();
        for (uint32_t r : sel) {
          const double a = static_cast<double>(v[r]);
          emit(r, CompareOpHolds(op, a < b ? -1 : (a > b ? 1 : 0)));
        }
      } else {
        const double* v = lane.f64_data();
        for (uint32_t r : sel) {
          const double a = v[r];
          emit(r, CompareOpHolds(op, a < b ? -1 : (a > b ? 1 : 0)));
        }
      }
      break;
    }
    case Path::kString: {
      const std::string& b = lit.AsString();
      if (lane.kind == RowBatch::LaneKind::kStringCode) {
        // Dictionary path: one boundary search over the sorted dict
        // translates the byte compare into an int32 code compare. When
        // the literal is absent from the dictionary the predicate
        // collapses further: equality is constant-false, inequality
        // constant-true, and the orderings reduce to one boundary test
        // (codes below `lb` decode to strings < b, codes at/above to
        // strings > b).
        bool exact = false;
        const int32_t lb = lane.dict->DictLowerBound(b, &exact);
        enum class CodeMode { kConstFalse, kConstTrue, kCmp };
        CodeMode mode = CodeMode::kCmp;
        CompareOp cop = op;
        if (!exact) {
          switch (op) {
            case CompareOp::kEq:
              mode = CodeMode::kConstFalse;
              break;
            case CompareOp::kNe:
              mode = CodeMode::kConstTrue;
              break;
            case CompareOp::kLt:
            case CompareOp::kLe:
              cop = CompareOp::kLt;
              break;
            case CompareOp::kGt:
            case CompareOp::kGe:
              cop = CompareOp::kGe;
              break;
          }
        }
        if (mode == CodeMode::kConstFalse) {
          for (uint32_t r : sel) emit(r, false);
        } else if (mode == CodeMode::kConstTrue) {
          for (uint32_t r : sel) emit(r, true);
        } else if (dense) {
          uint8_t* mask = MaskScratch(n);
          simd::CompareI32LitMask(lane.code_data() + first, n, ToSimdOp(cop),
                                  lb, mask);
          for (size_t i = 0; i < n; ++i) emit(sel[i], mask[i] != 0);
        } else {
          const int32_t* v = lane.code_data();
          for (uint32_t r : sel) {
            const int32_t a = v[r];
            emit(r, CompareOpHolds(cop, a < lb ? -1 : (a > lb ? 1 : 0)));
          }
        }
      } else {
        const std::string* const* v = lane.str_data();
        for (uint32_t r : sel) {
          const int cmp = v[r]->compare(b);
          emit(r, CompareOpHolds(op, cmp < 0 ? -1 : (cmp > 0 ? 1 : 0)));
        }
      }
      break;
    }
  }
  return true;
}

}  // namespace

CompareExpr::CompareExpr(CompareOp op, ExprPtr left, ExprPtr right)
    : op_(op), left_(std::move(left)), right_(std::move(right)) {}

Value CompareExpr::Eval(const Row& row, EvalCounters* c) const {
  Value l = left_->Eval(row, c);
  Value r = right_->Eval(row, c);
  if (c != nullptr) ++c->comparisons;
  return ApplyCompare(op_, l, r);
}

void CompareExpr::EvalBatch(const RowBatch& batch,
                            const std::vector<uint32_t>& sel,
                            std::vector<Value>* out, EvalCounters* c,
                            ExprScratch* scratch) const {
  out->resize(batch.num_rows());
  if (ForEachColumnLiteralCompare(
          op_, *left_, *right_, batch, sel, c,
          [&](uint32_t r, bool pass) { (*out)[r] = Value::Bool(pass); })) {
    return;
  }
  BatchOperand lhs, rhs;
  lhs.Resolve(*left_, batch, sel, c, scratch);
  rhs.Resolve(*right_, batch, sel, c, scratch);
  // One comparison per evaluated row, exactly like the scalar path (which
  // counts before its null check).
  if (c != nullptr) c->comparisons += sel.size();
  for (uint32_t r : sel) {
    const CellView l = lhs.view_at(r);
    const CellView rv = rhs.view_at(r);
    (*out)[r] = Value::Bool(!l.is_null() && !rv.is_null() &&
                            CompareOpHolds(op_, CompareCellViews(l, rv)));
  }
}

void CompareExpr::FilterBatch(const RowBatch& batch,
                              std::vector<uint32_t>* sel, EvalCounters* c,
                              ExprScratch* scratch) const {
  {
    std::vector<uint32_t>& s = *sel;
    size_t w = 0;
    if (ForEachColumnLiteralCompare(
            op_, *left_, *right_, batch, s, c,
            [&](uint32_t r, bool pass) { if (pass) s[w++] = r; })) {
      s.resize(w);
      return;
    }
  }
  BatchOperand lhs, rhs;
  lhs.Resolve(*left_, batch, *sel, c, scratch);
  rhs.Resolve(*right_, batch, *sel, c, scratch);
  if (c != nullptr) c->comparisons += sel->size();
  std::vector<uint32_t>& s = *sel;
  size_t w = 0;
  for (uint32_t r : s) {
    const CellView l = lhs.view_at(r);
    const CellView rv = rhs.view_at(r);
    if (l.is_null() || rv.is_null()) continue;
    if (CompareOpHolds(op_, CompareCellViews(l, rv))) s[w++] = r;
  }
  s.resize(w);
}

std::string CompareExpr::ToString() const {
  return StrFormat("(%s %s %s)", left_->ToString().c_str(),
                   ecodb::ToString(op_), right_->ToString().c_str());
}

void CompareExpr::CollectColumns(std::vector<const ColumnExpr*>* out) const {
  left_->CollectColumns(out);
  right_->CollectColumns(out);
}

// --- LogicalExpr ---

LogicalExpr::LogicalExpr(LogicalOp op, std::vector<ExprPtr> operands)
    : op_(op), operands_(std::move(operands)) {
  assert(!operands_.empty());
}

Value LogicalExpr::Eval(const Row& row, EvalCounters* c) const {
  if (op_ == LogicalOp::kAnd) {
    for (const ExprPtr& e : operands_) {
      if (!e->Eval(row, c).IsTruthy()) return Value::Bool(false);
    }
    return Value::Bool(true);
  }
  // OR: short-circuits at the first truthy disjunct, like MySQL's
  // left-to-right predicate chain — the QED merged query's cost driver.
  for (const ExprPtr& e : operands_) {
    if (e->Eval(row, c).IsTruthy()) return Value::Bool(true);
  }
  return Value::Bool(false);
}

void LogicalExpr::EvalBatch(const RowBatch& batch,
                            const std::vector<uint32_t>& sel,
                            std::vector<Value>* out, EvalCounters* c,
                            ExprScratch* scratch) const {
  // Short-circuit vectorized: each operand is evaluated only over the rows
  // still undecided after the previous operands, in operand order — the
  // same per-row laziness (and therefore the same operation counts) as the
  // scalar path, just with the operand loop hoisted outside the row loop.
  out->resize(batch.num_rows());
  ScratchVec<uint32_t> active(scratch), next(scratch);
  active->assign(sel.begin(), sel.end());
  ScratchVec<Value> vals(scratch);
  const bool is_and = (op_ == LogicalOp::kAnd);
  for (const ExprPtr& e : operands_) {
    if (active->empty()) break;
    e->EvalBatch(batch, *active, vals.get(), c, scratch);
    next->clear();
    for (uint32_t r : *active) {
      bool truthy = (*vals)[r].IsTruthy();
      if (is_and) {
        if (truthy) {
          next->push_back(r);  // still undecided
        } else {
          (*out)[r] = Value::Bool(false);
        }
      } else {
        if (truthy) {
          (*out)[r] = Value::Bool(true);
        } else {
          next->push_back(r);  // still undecided
        }
      }
    }
    active->swap(*next);
  }
  // Rows that survived every operand: AND -> true, OR -> false.
  for (uint32_t r : *active) (*out)[r] = Value::Bool(is_and);
}

void LogicalExpr::FilterBatch(const RowBatch& batch,
                              std::vector<uint32_t>* sel, EvalCounters* c,
                              ExprScratch* scratch) const {
  if (op_ == LogicalOp::kAnd) {
    // A conjunction narrows through each operand in order over the
    // survivors of the previous ones — identical laziness and counts to
    // the scalar short-circuit, with no boolean vector in between.
    for (const ExprPtr& e : operands_) {
      if (sel->empty()) return;
      e->FilterBatch(batch, sel, c, scratch);
    }
    return;
  }
  Expr::FilterBatch(batch, sel, c, scratch);  // OR: evaluate-and-compact
}

std::string LogicalExpr::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < operands_.size(); ++i) {
    if (i) {
      out += " ";
      out += ecodb::ToString(op_);
      out += " ";
    }
    out += operands_[i]->ToString();
  }
  out += ")";
  return out;
}

void LogicalExpr::CollectColumns(std::vector<const ColumnExpr*>* out) const {
  for (const ExprPtr& e : operands_) e->CollectColumns(out);
}

// --- NotExpr ---

Value NotExpr::Eval(const Row& row, EvalCounters* c) const {
  return Value::Bool(!operand_->Eval(row, c).IsTruthy());
}

void NotExpr::EvalBatch(const RowBatch& batch,
                        const std::vector<uint32_t>& sel,
                        std::vector<Value>* out, EvalCounters* c,
                        ExprScratch* scratch) const {
  ScratchVec<Value> vals(scratch);
  operand_->EvalBatch(batch, sel, vals.get(), c, scratch);
  out->resize(batch.num_rows());
  for (uint32_t r : sel) (*out)[r] = Value::Bool(!(*vals)[r].IsTruthy());
}

std::string NotExpr::ToString() const {
  return "NOT " + operand_->ToString();
}

void NotExpr::CollectColumns(std::vector<const ColumnExpr*>* out) const {
  operand_->CollectColumns(out);
}

// --- ArithExpr ---

namespace {

ValueType ArithResultType(const ExprPtr& l, const ExprPtr& r) {
  if (l->type() == ValueType::kDouble || r->type() == ValueType::kDouble) {
    return ValueType::kDouble;
  }
  return ValueType::kInt64;
}

}  // namespace

ArithExpr::ArithExpr(ArithOp op, ExprPtr left, ExprPtr right)
    : op_(op),
      left_(std::move(left)),
      right_(std::move(right)),
      type_(ArithResultType(left_, right_)) {}

Value ArithExpr::Eval(const Row& row, EvalCounters* c) const {
  Value l = left_->Eval(row, c);
  Value r = right_->Eval(row, c);
  if (c != nullptr) ++c->arith_ops;
  if (l.is_null() || r.is_null()) return Value::Null();
  if (type_ == ValueType::kInt64) {
    int64_t a = l.AsInt();
    int64_t b = r.AsInt();
    switch (op_) {
      case ArithOp::kAdd:
        return Value::Int(a + b);
      case ArithOp::kSub:
        return Value::Int(a - b);
      case ArithOp::kMul:
        return Value::Int(a * b);
      case ArithOp::kDiv:
        return b == 0 ? Value::Null() : Value::Int(a / b);
    }
  }
  double a = l.AsDouble();
  double b = r.AsDouble();
  switch (op_) {
    case ArithOp::kAdd:
      return Value::Dbl(a + b);
    case ArithOp::kSub:
      return Value::Dbl(a - b);
    case ArithOp::kMul:
      return Value::Dbl(a * b);
    case ArithOp::kDiv:
      return b == 0.0 ? Value::Null() : Value::Dbl(a / b);
  }
  return Value::Null();
}

void ArithExpr::EvalBatch(const RowBatch& batch,
                          const std::vector<uint32_t>& sel,
                          std::vector<Value>* out, EvalCounters* c,
                          ExprScratch* scratch) const {
  if (type_ == ValueType::kDouble && CanEvalDoubleSubtree(*this, batch)) {
    ScratchVec<double> vals(scratch);
    double scalar = 0;
    bool is_scalar = false;
    EvalDoubleSubtree(*this, batch, sel, vals.get(), &scalar, &is_scalar, c,
                      scratch);
    out->resize(batch.num_rows());
    for (uint32_t r : sel) {
      (*out)[r] = Value::Dbl(is_scalar ? scalar : (*vals)[r]);
    }
    return;
  }
  BatchOperand lhs, rhs;
  lhs.Resolve(*left_, batch, sel, c, scratch);
  rhs.Resolve(*right_, batch, sel, c, scratch);
  if (c != nullptr) c->arith_ops += sel.size();
  out->resize(batch.num_rows());
  if (type_ == ValueType::kInt64) {
    for (uint32_t r : sel) {
      const CellView l = lhs.view_at(r);
      const CellView rv = rhs.view_at(r);
      if (l.is_null() || rv.is_null()) {
        (*out)[r] = Value::Null();
        continue;
      }
      int64_t a = l.i;
      int64_t b = rv.i;
      switch (op_) {
        case ArithOp::kAdd:
          (*out)[r] = Value::Int(a + b);
          break;
        case ArithOp::kSub:
          (*out)[r] = Value::Int(a - b);
          break;
        case ArithOp::kMul:
          (*out)[r] = Value::Int(a * b);
          break;
        case ArithOp::kDiv:
          (*out)[r] = b == 0 ? Value::Null() : Value::Int(a / b);
          break;
      }
    }
    return;
  }
  for (uint32_t r : sel) {
    const CellView l = lhs.view_at(r);
    const CellView rv = rhs.view_at(r);
    if (l.is_null() || rv.is_null()) {
      (*out)[r] = Value::Null();
      continue;
    }
    double a = l.AsDouble();
    double b = rv.AsDouble();
    switch (op_) {
      case ArithOp::kAdd:
        (*out)[r] = Value::Dbl(a + b);
        break;
      case ArithOp::kSub:
        (*out)[r] = Value::Dbl(a - b);
        break;
      case ArithOp::kMul:
        (*out)[r] = Value::Dbl(a * b);
        break;
      case ArithOp::kDiv:
        (*out)[r] = b == 0.0 ? Value::Null() : Value::Dbl(a / b);
        break;
    }
  }
}

std::string ArithExpr::ToString() const {
  return StrFormat("(%s %s %s)", left_->ToString().c_str(),
                   ecodb::ToString(op_), right_->ToString().c_str());
}

void ArithExpr::CollectColumns(std::vector<const ColumnExpr*>* out) const {
  left_->CollectColumns(out);
  right_->CollectColumns(out);
}

// --- BetweenExpr ---

BetweenExpr::BetweenExpr(ExprPtr operand, ExprPtr lo, ExprPtr hi)
    : operand_(std::move(operand)), lo_(std::move(lo)), hi_(std::move(hi)) {}

Value BetweenExpr::Eval(const Row& row, EvalCounters* c) const {
  Value v = operand_->Eval(row, c);
  if (v.is_null()) return Value::Bool(false);
  Value lo = lo_->Eval(row, c);
  if (c != nullptr) ++c->comparisons;
  if (!lo.is_null() && v.Compare(lo) < 0) return Value::Bool(false);
  Value hi = hi_->Eval(row, c);
  if (c != nullptr) ++c->comparisons;
  return Value::Bool(!hi.is_null() && v.Compare(hi) <= 0);
}

void BetweenExpr::EvalBatch(const RowBatch& batch,
                            const std::vector<uint32_t>& sel,
                            std::vector<Value>* out, EvalCounters* c,
                            ExprScratch* scratch) const {
  // Mirrors the scalar laziness: rows with a NULL operand are decided
  // without touching the bounds; `hi` is only evaluated (and its
  // comparison counted) for rows that pass the `lo` check.
  out->resize(batch.num_rows());
  BatchOperand vals;
  vals.Resolve(*operand_, batch, sel, c, scratch);
  ScratchVec<uint32_t> pending(scratch);
  pending->reserve(sel.size());
  for (uint32_t r : sel) {
    if (vals.view_at(r).is_null()) {
      (*out)[r] = Value::Bool(false);
    } else {
      pending->push_back(r);
    }
  }
  if (pending->empty()) return;

  BatchOperand lo_vals;
  lo_vals.Resolve(*lo_, batch, *pending, c, scratch);
  if (c != nullptr) c->comparisons += pending->size();
  ScratchVec<uint32_t> passed_lo(scratch);
  passed_lo->reserve(pending->size());
  for (uint32_t r : *pending) {
    const CellView lo_v = lo_vals.view_at(r);
    if (!lo_v.is_null() && CompareCellViews(vals.view_at(r), lo_v) < 0) {
      (*out)[r] = Value::Bool(false);
    } else {
      passed_lo->push_back(r);
    }
  }
  if (passed_lo->empty()) return;

  BatchOperand hi_vals;
  hi_vals.Resolve(*hi_, batch, *passed_lo, c, scratch);
  if (c != nullptr) c->comparisons += passed_lo->size();
  for (uint32_t r : *passed_lo) {
    const CellView hi_v = hi_vals.view_at(r);
    (*out)[r] = Value::Bool(
        !hi_v.is_null() && CompareCellViews(vals.view_at(r), hi_v) <= 0);
  }
}

std::string BetweenExpr::ToString() const {
  return StrFormat("(%s BETWEEN %s AND %s)", operand_->ToString().c_str(),
                   lo_->ToString().c_str(), hi_->ToString().c_str());
}

void BetweenExpr::CollectColumns(std::vector<const ColumnExpr*>* out) const {
  operand_->CollectColumns(out);
  lo_->CollectColumns(out);
  hi_->CollectColumns(out);
}

// --- InListExpr ---

InListExpr::InListExpr(ExprPtr operand, std::vector<Value> values,
                       bool hashed)
    : operand_(std::move(operand)),
      values_(std::move(values)),
      hashed_(hashed) {
  if (hashed_) {
    set_.reserve(values_.size() * 2);
    for (const Value& v : values_) set_.insert(v);
  }
}

Value InListExpr::Eval(const Row& row, EvalCounters* c) const {
  Value v = operand_->Eval(row, c);
  if (v.is_null()) return Value::Bool(false);
  if (hashed_) {
    if (c != nullptr) ++c->comparisons;  // one probe
    return Value::Bool(set_.find(v) != set_.end());
  }
  for (const Value& candidate : values_) {
    if (c != nullptr) ++c->comparisons;
    if (v.Compare(candidate) == 0) return Value::Bool(true);
  }
  return Value::Bool(false);
}

void InListExpr::EvalBatch(const RowBatch& batch,
                           const std::vector<uint32_t>& sel,
                           std::vector<Value>* out, EvalCounters* c,
                           ExprScratch* scratch) const {
  out->resize(batch.num_rows());
  BatchOperand vals;
  vals.Resolve(*operand_, batch, sel, c, scratch);
  if (hashed_) {
    // The set lookup needs an owning Value: box each probed cell.
    for (uint32_t r : sel) {
      const CellView v = vals.view_at(r);
      if (v.is_null()) {
        (*out)[r] = Value::Bool(false);
        continue;
      }
      if (c != nullptr) ++c->comparisons;  // one probe
      (*out)[r] = Value::Bool(set_.find(BoxCellView(v)) != set_.end());
    }
    return;
  }
  // Dictionary fast path: a plain string-column operand stored as a
  // null-free code lane. Each candidate translates to its dict code once
  // per batch — a candidate absent from the dictionary (or non-string, or
  // NULL) gets the -1 sentinel, which no row code ever equals, exactly as
  // the byte compare never matches it. The loop structure, order and
  // charged comparison counts are identical to the byte path below.
  if (operand_->kind() == ExprKind::kColumn) {
    const int idx = static_cast<const ColumnExpr&>(*operand_).index();
    const RowBatch::TypedLane* lane = batch.code_lane(idx);
    if (lane != nullptr) {
      // No nulls on this path (code_lane excludes null-carrying lanes),
      // so every selected row enters the candidate loop — matching the
      // generic path's null pre-pass, which would pass them all through.
      const int32_t* codes = lane->code_data();
      ScratchVec<uint32_t> rem(scratch), nxt(scratch);
      rem->assign(sel.begin(), sel.end());
      for (const Value& candidate : values_) {
        if (rem->empty()) break;
        if (c != nullptr) c->comparisons += rem->size();
        const int32_t cand_code =
            candidate.type() == ValueType::kString
                ? lane->dict->FindDictCode(candidate.AsString())
                : -1;
        nxt->clear();
        for (uint32_t r : *rem) {
          if (codes[r] == cand_code) {
            (*out)[r] = Value::Bool(true);
          } else {
            nxt->push_back(r);
          }
        }
        rem->swap(*nxt);
      }
      for (uint32_t r : *rem) (*out)[r] = Value::Bool(false);
      return;
    }
  }
  // Linear scan with per-row early exit, candidate loop hoisted outside
  // the row loop: row `r` is compared against candidates until its first
  // hit, so the total comparison count equals the scalar path's.
  ScratchVec<uint32_t> remaining(scratch);
  remaining->reserve(sel.size());
  for (uint32_t r : sel) {
    if (vals.view_at(r).is_null()) {
      (*out)[r] = Value::Bool(false);
    } else {
      remaining->push_back(r);
    }
  }
  ScratchVec<uint32_t> next(scratch);
  for (const Value& candidate : values_) {
    if (remaining->empty()) break;
    if (c != nullptr) c->comparisons += remaining->size();
    const CellView cand = CellView::Of(candidate);
    next->clear();
    for (uint32_t r : *remaining) {
      if (CompareCellViews(vals.view_at(r), cand) == 0) {
        (*out)[r] = Value::Bool(true);
      } else {
        next->push_back(r);
      }
    }
    remaining->swap(*next);
  }
  for (uint32_t r : *remaining) (*out)[r] = Value::Bool(false);
}

std::string InListExpr::ToString() const {
  std::string out = operand_->ToString() + " IN (";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

void InListExpr::CollectColumns(std::vector<const ColumnExpr*>* out) const {
  operand_->CollectColumns(out);
}

// --- Construction helpers ---

ExprPtr Col(int index, ValueType type, std::string name) {
  return std::make_shared<ColumnExpr>(index, type, std::move(name));
}

ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr LitInt(int64_t v) { return Lit(Value::Int(v)); }
ExprPtr LitDbl(double v) { return Lit(Value::Dbl(v)); }
ExprPtr LitStr(std::string v) { return Lit(Value::Str(std::move(v))); }

ExprPtr LitDate(std::string_view iso) {
  int32_t days = ParseDateToDays(iso);
  assert(days != INT32_MIN && "bad literal date");
  return Lit(Value::Date(days));
}

ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(op, std::move(l), std::move(r));
}

ExprPtr Eq(ExprPtr l, ExprPtr r) {
  return Cmp(CompareOp::kEq, std::move(l), std::move(r));
}

ExprPtr And(std::vector<ExprPtr> operands) {
  if (operands.size() == 1) return operands[0];
  return std::make_shared<LogicalExpr>(LogicalOp::kAnd, std::move(operands));
}

ExprPtr Or(std::vector<ExprPtr> operands) {
  if (operands.size() == 1) return operands[0];
  return std::make_shared<LogicalExpr>(LogicalOp::kOr, std::move(operands));
}

ExprPtr Not(ExprPtr e) { return std::make_shared<NotExpr>(std::move(e)); }

ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(op, std::move(l), std::move(r));
}

ExprPtr Between(ExprPtr e, ExprPtr lo, ExprPtr hi) {
  return std::make_shared<BetweenExpr>(std::move(e), std::move(lo),
                                       std::move(hi));
}

ExprPtr InList(ExprPtr e, std::vector<Value> values, bool hashed) {
  return std::make_shared<InListExpr>(std::move(e), std::move(values),
                                      hashed);
}

}  // namespace ecodb
