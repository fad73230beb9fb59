#include "ecodb/exec/expr.h"

#include <algorithm>
#include <cassert>
#include <type_traits>

#include "ecodb/exec/simd.h"
#include "ecodb/exec/typed_column.h"
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

/// SQL truthiness of a cell: exactly Value::IsTruthy.
inline bool Truthy(const CellView& v) {
  switch (v.type) {
    case ValueType::kNull:
      return false;
    case ValueType::kDouble:
      return v.d != 0.0;
    case ValueType::kString:
      return !v.s->empty();
    case ValueType::kInt64:
    case ValueType::kDate:
    case ValueType::kBool:
      break;
  }
  return v.i != 0;
}

/// dst[r] = v[r] for every r in `sel`, `dst` sized to `n` rows.
template <typename T>
void GatherSel(const T* v, const SelVec& sel, size_t n, std::vector<T>* dst) {
  dst->resize(n);
  for (uint32_t r : sel) (*dst)[r] = v[r];
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

// --- Expr ---

void Expr::FilterBatch(const RowBatch& batch, std::vector<uint32_t>* sel,
                       EvalCounters* c, ExprScratch* scratch) const {
  ScratchLane vals(scratch);
  EvalBatch(batch, *sel, vals.get(), c, scratch);
  size_t w = 0;
  for (uint32_t r : *sel) {
    if (Truthy(vals->ViewAt(r))) (*sel)[w++] = r;
  }
  sel->resize(w);
}

// --- ColumnExpr ---

ColumnExpr::ColumnExpr(int index, ValueType type, std::string name)
    : index_(index), type_(type), name_(std::move(name)) {}

void ColumnExpr::EvalBatch(const RowBatch& batch, const SelVec& sel,
                           RowBatch::TypedLane* out, EvalCounters*,
                           ExprScratch*) const {
  assert(index_ < batch.num_cols());
  const RowBatch::TypedLane& src = batch.lane(index_);
  // Table cells stay put across pulls: borrow them too.
  if (src.is_borrowed()) {
    out->ShareBorrowed(src);
    return;
  }
  // An owned lane dies with the next pull into `batch`: gather.
  const size_t n = batch.num_rows();
  out->Clear();
  out->kind = src.kind;
  out->type = src.type;
  out->dict = src.dict;  // codes keep their dictionary binding
  if (src.has_nulls) {
    out->has_nulls = true;
    GatherSel(src.nulls.data(), sel, n, &out->nulls);
  }
  switch (src.kind) {
    case RowBatch::LaneKind::kInt64:
      GatherSel(src.i64_data(), sel, n, &out->i64);
      break;
    case RowBatch::LaneKind::kDouble:
      GatherSel(src.f64_data(), sel, n, &out->f64);
      break;
    case RowBatch::LaneKind::kStringRef:
      GatherSel(src.str_data(), sel, n, &out->str);
      break;
    case RowBatch::LaneKind::kStringCode:
      GatherSel(src.code_data(), sel, n, &out->codes);
      break;
    case RowBatch::LaneKind::kNone:
      break;
  }
}

void ColumnExpr::CollectColumns(std::vector<const ColumnExpr*>* out) const {
  out->push_back(this);
}

// --- LiteralExpr ---

void LiteralExpr::EvalBatch(const RowBatch& batch, const SelVec& sel,
                            RowBatch::TypedLane* out, EvalCounters*,
                            ExprScratch*) const {
  out->Start(value_.type(), batch.num_rows());
  const CellView v = CellView::Of(value_);
  for (uint32_t r : sel) {
    switch (out->kind) {
      case RowBatch::LaneKind::kInt64:
        if (v.is_null()) {
          out->SetNull(r);
        } else {
          out->i64[r] = v.i;
        }
        break;
      case RowBatch::LaneKind::kDouble:
        out->f64[r] = v.d;
        break;
      case RowBatch::LaneKind::kStringRef:
        out->str[r] = v.s;  // the literal's own bytes
        break;
      case RowBatch::LaneKind::kStringCode:
      case RowBatch::LaneKind::kNone:
        break;  // Start never yields these
    }
  }
}

std::string LiteralExpr::ToString() const {
  if (value_.type() == ValueType::kString) {
    return "'" + value_.ToString() + "'";
  }
  return value_.ToString();
}

// --- CompareExpr ---

void BatchOperand::Resolve(const Expr& e, const RowBatch& batch,
                           const SelVec& sel, EvalCounters* c,
                           ExprScratch* scratch) {
  ReleaseStorage();
  lane_ = nullptr;
  scalar_ = CellView::Null();
  if (e.kind() == ExprKind::kColumn) {
    lane_ = &batch.lane(static_cast<const ColumnExpr&>(e).index());
    return;
  }
  if (e.kind() == ExprKind::kLiteral) {
    scalar_ = CellView::Of(static_cast<const LiteralExpr&>(e).value());
    return;
  }
  RowBatch::TypedLane* storage = &local_;
  if (scratch != nullptr) {
    pooled_ = scratch->Acquire<RowBatch::TypedLane>();
    scratch_ = scratch;
    storage = pooled_;
  }
  e.EvalBatch(batch, sel, storage, c, scratch);
  lane_ = storage;
}

bool AppendExprColumn(const Expr& e, const RowBatch& batch, EvalCounters* c,
                      ExprScratch* scratch, TypedColumn* dst) {
  if (e.kind() == ExprKind::kColumn) {
    const int col = static_cast<const ColumnExpr&>(e).index();
    dst->AppendLane(batch, batch.lane(col));
    return batch.lane(col).table_strings();
  }
  // A computed string cell (a literal's) is borrowed from the expression,
  // which outlives every pool the plan fills.
  ScratchLane lane(scratch);
  e.EvalBatch(batch, batch.sel(), lane.get(), c, scratch);
  dst->AppendLane(batch, *lane);
  return lane->table_strings();
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

inline bool IsIntBacked(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDate ||
         t == ValueType::kBool;
}

}  // namespace

namespace {

/// How `column <op> literal` compares on the typed path.
enum class LiteralPath { kNullLit, kInt, kDouble, kString };

/// The typed path of `left <op> right` over `batch`, or false when the
/// shape has none: `left` must be a column whose lane holds no NULLs and
/// `right` a literal of a comparable type.
bool ColumnLiteralPath(const Expr& left, const Expr& right,
                       const RowBatch& batch, LiteralPath* path) {
  if (left.kind() != ExprKind::kColumn ||
      right.kind() != ExprKind::kLiteral) {
    return false;
  }
  const RowBatch::TypedLane& lane =
      batch.lane(static_cast<const ColumnExpr&>(left).index());
  if (lane.has_nulls) return false;
  const Value& lit = static_cast<const LiteralExpr&>(right).value();
  const bool col_int = lane.kind == RowBatch::LaneKind::kInt64;
  const bool col_numeric = col_int || lane.kind == RowBatch::LaneKind::kDouble;
  const bool lit_int = IsIntBacked(lit.type());
  const bool lit_numeric = lit_int || lit.type() == ValueType::kDouble;
  if (lit.is_null()) {
    *path = LiteralPath::kNullLit;
  } else if (col_int && lit_int) {
    *path = LiteralPath::kInt;
  } else if (col_numeric && lit_numeric) {
    *path = LiteralPath::kDouble;
  } else if (lane.type == ValueType::kString &&
             lit.type() == ValueType::kString) {
    *path = LiteralPath::kString;
  } else {
    return false;  // mismatched non-numeric types: rare; generic path
  }
  return true;
}

/// Typed fast path for `column <op> literal` over a null-free lane
/// column (scan lanes as well as projection and join output): compares
/// the lane's arrays directly instead of one CellView compare per cell.
/// Comparison semantics match Value::Compare (numeric coercion; a NULL
/// literal compares to false) and exactly one comparison per selected row
/// is charged, as on the generic path. Calls emit(row, pass) for each
/// selected row; returns false (charging nothing) when the shape doesn't
/// apply (ColumnLiteralPath) and the caller must take the generic path.
template <typename Emit>
bool ForEachColumnLiteralCompare(CompareOp op, const Expr& left,
                                 const Expr& right, const RowBatch& batch,
                                 const std::vector<uint32_t>& sel,
                                 EvalCounters* c, Emit&& emit) {
  LiteralPath path;
  if (!ColumnLiteralPath(left, right, batch, &path)) return false;
  const RowBatch::TypedLane& lane =
      batch.lane(static_cast<const ColumnExpr&>(left).index());
  const Value& lit = static_cast<const LiteralExpr&>(right).value();
  const bool col_int = lane.kind == RowBatch::LaneKind::kInt64;

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
    case LiteralPath::kNullLit:  // a NULL operand compares to false
      for (uint32_t r : sel) emit(r, false);
      break;
    case LiteralPath::kInt: {
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
    case LiteralPath::kDouble: {
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
    case LiteralPath::kString: {
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

/// Narrows *sel to the rows where `left <op> right` holds, on the typed
/// path; false (nothing charged, *sel unchanged) when it does not apply.
/// The survivors are compacted in place without a branch per row.
bool FilterColumnLiteral(CompareOp op, const Expr& left, const Expr& right,
                         const RowBatch& batch, std::vector<uint32_t>* sel,
                         EvalCounters* c) {
  std::vector<uint32_t>& s = *sel;
  size_t w = 0;
  if (!ForEachColumnLiteralCompare(op, left, right, batch, s, c,
                                   [&](uint32_t r, bool pass) {
                                     s[w] = r;
                                     w += pass;
                                   })) {
    return false;
  }
  s.resize(w);
  return true;
}

}  // namespace

CompareExpr::CompareExpr(CompareOp op, ExprPtr left, ExprPtr right)
    : op_(op), left_(std::move(left)), right_(std::move(right)) {}

void CompareExpr::EvalBatch(const RowBatch& batch, const SelVec& sel,
                            RowBatch::TypedLane* out, EvalCounters* c,
                            ExprScratch* scratch) const {
  out->Start(ValueType::kBool, batch.num_rows());
  int64_t* o = out->i64.data();
  if (ForEachColumnLiteralCompare(op_, *left_, *right_, batch, sel, c,
                                  [&](uint32_t r, bool pass) { o[r] = pass; })) {
    return;
  }
  BatchOperand lhs, rhs;
  lhs.Resolve(*left_, batch, sel, c, scratch);
  rhs.Resolve(*right_, batch, sel, c, scratch);
  // One comparison per evaluated row, counted before the null check.
  if (c != nullptr) c->comparisons += sel.size();
  for (uint32_t r : sel) {
    const CellView l = lhs.view_at(r);
    const CellView rv = rhs.view_at(r);
    o[r] = !l.is_null() && !rv.is_null() &&
           CompareOpHolds(op_, CompareCellViews(l, rv));
  }
}

void CompareExpr::FilterBatch(const RowBatch& batch,
                              std::vector<uint32_t>* sel, EvalCounters* c,
                              ExprScratch* scratch) const {
  if (FilterColumnLiteral(op_, *left_, *right_, batch, sel, c)) return;
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

void LogicalExpr::EvalBatch(const RowBatch& batch, const SelVec& sel,
                            RowBatch::TypedLane* out, EvalCounters* c,
                            ExprScratch* scratch) const {
  // Short-circuit vectorized: each operand is evaluated only over the rows
  // still undecided after the previous operands, in operand order — the
  // per-row short-circuit (and therefore its operation counts), with the
  // operand loop hoisted outside the row loop.
  out->Start(ValueType::kBool, batch.num_rows());
  int64_t* o = out->i64.data();
  ScratchSel active(scratch), next(scratch);
  active->assign(sel.begin(), sel.end());
  const bool is_and = (op_ == LogicalOp::kAnd);
  for (const ExprPtr& e : operands_) {
    if (active->empty()) break;
    BatchOperand vals;
    vals.Resolve(*e, batch, *active, c, scratch);
    next->clear();
    for (uint32_t r : *active) {
      // AND decides a falsy row, OR a truthy one; the rest stay undecided.
      const bool truthy = Truthy(vals.view_at(r));
      if (truthy == is_and) {
        next->push_back(r);
      } else {
        o[r] = truthy;
      }
    }
    active->swap(*next);
  }
  // Rows that survived every operand: AND -> true, OR -> false.
  for (uint32_t r : *active) o[r] = is_and;
}

void LogicalExpr::FilterBatch(const RowBatch& batch,
                              std::vector<uint32_t>* sel, EvalCounters* c,
                              ExprScratch* scratch) const {
  if (op_ == LogicalOp::kAnd) {
    // A conjunction narrows through each operand in order over the
    // survivors of the previous ones — the per-row short-circuit and its
    // counts, with no boolean vector in between.
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

void NotExpr::EvalBatch(const RowBatch& batch, const SelVec& sel,
                        RowBatch::TypedLane* out, EvalCounters* c,
                        ExprScratch* scratch) const {
  BatchOperand vals;
  vals.Resolve(*operand_, batch, sel, c, scratch);
  out->Start(ValueType::kBool, batch.num_rows());
  for (uint32_t r : sel) out->i64[r] = !Truthy(vals.view_at(r));
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

/// `a op b` over int64, defined on every input: + - * wrap (two's
/// complement, computed in uint64_t) and INT64_MIN / -1 is INT64_MIN.
/// Division by zero is the caller's (it yields NULL).
inline int64_t ApplyArith(ArithOp op, int64_t a, int64_t b) {
  const uint64_t x = static_cast<uint64_t>(a);
  const uint64_t y = static_cast<uint64_t>(b);
  switch (op) {
    case ArithOp::kAdd:
      return static_cast<int64_t>(x + y);
    case ArithOp::kSub:
      return static_cast<int64_t>(x - y);
    case ArithOp::kMul:
      return static_cast<int64_t>(x * y);
    case ArithOp::kDiv:
      return b == -1 ? static_cast<int64_t>(0 - x) : a / b;
  }
  return 0;
}

inline double ApplyArith(ArithOp op, double a, double b) {
  switch (op) {
    case ArithOp::kAdd:
      return a + b;
    case ArithOp::kSub:
      return a - b;
    case ArithOp::kMul:
      return a * b;
    case ArithOp::kDiv:
      return a / b;
  }
  return 0.0;
}

inline simd::ArithKind ToSimdArith(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return simd::ArithKind::kAdd;
    case ArithOp::kSub:
      return simd::ArithKind::kSub;
    case ArithOp::kMul:
      return simd::ArithKind::kMul;
    case ArithOp::kDiv:
      break;
  }
  return simd::ArithKind::kDiv;
}

/// One arithmetic operand's cells in the kernel's element type T
/// (int64_t or double): per-row values by physical row, or one scalar.
template <typename T>
struct ArithIn {
  const T* v = nullptr;            ///< per-row cells, or nullptr: `scalar`
  T scalar = 0;
  const uint8_t* nulls = nullptr;  ///< per-row null mask, or nullptr
  bool all_null = false;           ///< a NULL literal

  bool null_free() const { return !all_null && nulls == nullptr; }
  bool null_at(uint32_t r) const {
    return all_null || (nulls != nullptr && nulls[r] != 0);
  }
  T at(uint32_t r) const { return v != nullptr ? v[r] : scalar; }
};

/// True when lane `l` holds a cell at every row up to `last`.
[[maybe_unused]] bool LaneCovers(const RowBatch::TypedLane& l,
                                 uint32_t last) {
  if (l.is_borrowed()) return l.table_row + last < l.table->size();
  return last < l.LaneSize();
}

/// Reads operand `op` as T. Numeric lanes are read in place, except that
/// a double kernel converts int64 cells into `conv`, SIMD over the
/// selection's covering run [sel.front(), sel.back()] (converting an
/// unselected cell is harmless). Cells of any other kind read as 0, as
/// CellView's `i` and AsDouble() read a string.
template <typename T>
ArithIn<T> ArithInput(const BatchOperand& op, const SelVec& sel,
                      size_t n_rows, RowBatch::TypedLane* conv) {
  ArithIn<T> in;
  const RowBatch::TypedLane* l = op.lane();
  if (l == nullptr) {
    const CellView& s = op.scalar();
    in.all_null = s.is_null();
    if constexpr (std::is_same_v<T, double>) {
      in.scalar = s.AsDouble();
    } else {
      in.scalar = s.i;
    }
    return in;
  }
  if (l->has_nulls) in.nulls = l->nulls.data();
  if constexpr (std::is_same_v<T, double>) {
    if (l->kind == RowBatch::LaneKind::kDouble) {
      in.v = l->f64_data();
    } else if (l->kind == RowBatch::LaneKind::kInt64) {
      conv->f64.resize(n_rows);
      if (!sel.empty()) {
        assert(LaneCovers(*l, sel.back()));
        simd::ConvertI64ToF64(l->i64_data() + sel.front(),
                              sel.back() - sel.front() + 1,
                              conv->f64.data() + sel.front());
      }
      in.v = conv->f64.data();
    }
  } else if (l->kind == RowBatch::LaneKind::kInt64) {
    in.v = l->i64_data();
  }
  return in;
}

/// out[r] = a[r] op b[r] over `sel`; NULL where an operand is NULL or a
/// divisor is zero.
template <typename T>
void ArithKernel(ArithOp op, const ArithIn<T>& a, const ArithIn<T>& b,
                 const SelVec& sel, T* out, RowBatch::TypedLane* lane) {
  if (op != ArithOp::kDiv && a.null_free() && b.null_free()) {
    for (uint32_t r : sel) out[r] = ApplyArith(op, a.at(r), b.at(r));
    return;
  }
  for (uint32_t r : sel) {
    const T y = b.at(r);
    if (a.null_at(r) || b.null_at(r) || (op == ArithOp::kDiv && y == 0)) {
      lane->SetNull(r);
    } else {
      out[r] = ApplyArith(op, a.at(r), y);
    }
  }
}

}  // namespace

ArithExpr::ArithExpr(ArithOp op, ExprPtr left, ExprPtr right)
    : op_(op),
      left_(std::move(left)),
      right_(std::move(right)),
      type_(ArithResultType(left_, right_)) {}

void ArithExpr::EvalBatch(const RowBatch& batch, const SelVec& sel,
                          RowBatch::TypedLane* out, EvalCounters* c,
                          ExprScratch* scratch) const {
  BatchOperand lhs, rhs;
  lhs.Resolve(*left_, batch, sel, c, scratch);
  rhs.Resolve(*right_, batch, sel, c, scratch);
  if (c != nullptr) c->arith_ops += sel.size();
  const size_t n = batch.num_rows();
  out->Start(type_, n);
  if (type_ == ValueType::kInt64) {
    ArithKernel(op_, ArithInput<int64_t>(lhs, sel, n, nullptr),
                ArithInput<int64_t>(rhs, sel, n, nullptr), sel,
                out->i64.data(), out);
    return;
  }
  ScratchLane lconv(scratch), rconv(scratch);
  const ArithIn<double> a = ArithInput<double>(lhs, sel, n, lconv.get());
  const ArithIn<double> b = ArithInput<double>(rhs, sel, n, rconv.get());
  if (!sel.empty() && op_ != ArithOp::kDiv && a.null_free() &&
      b.null_free()) {
    // One IEEE op per element, SIMD over the selection's covering run:
    // every selected element gets the op the scalar loop would apply, so
    // the result is bit-exact on any ISA; the unselected ones in between
    // are computed and never read.
    assert(a.v == nullptr || LaneCovers(*lhs.lane(), sel.back()));
    assert(b.v == nullptr || LaneCovers(*rhs.lane(), sel.back()));
    const size_t first = sel.front();
    const size_t m = sel.back() - first + 1;
    const simd::ArithKind k = ToSimdArith(op_);
    double* o = out->f64.data() + first;
    if (a.v != nullptr && b.v != nullptr) {
      simd::ArithF64ColCol(k, a.v + first, b.v + first, m, o);
    } else if (a.v != nullptr) {
      simd::ArithF64ColScalar(k, a.v + first, b.scalar, m, o);
    } else if (b.v != nullptr) {
      simd::ArithF64ScalarCol(k, a.scalar, b.v + first, m, o);
    } else {
      std::fill(o, o + m, ApplyArith(op_, a.scalar, b.scalar));
    }
    return;
  }
  ArithKernel(op_, a, b, sel, out->f64.data(), out);
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

void BetweenExpr::EvalBatch(const RowBatch& batch, const SelVec& sel,
                            RowBatch::TypedLane* out, EvalCounters* c,
                            ExprScratch* scratch) const {
  // Per-row laziness: rows with a NULL operand are decided
  // without touching the bounds; `hi` is only evaluated (and its
  // comparison counted) for rows that pass the `lo` check.
  BatchOperand vals;
  vals.Resolve(*operand_, batch, sel, c, scratch);
  out->Start(ValueType::kBool, batch.num_rows());
  int64_t* o = out->i64.data();
  ScratchSel pending(scratch);
  pending->reserve(sel.size());
  for (uint32_t r : sel) {
    if (vals.view_at(r).is_null()) {
      o[r] = false;
    } else {
      pending->push_back(r);
    }
  }
  if (pending->empty()) return;

  BatchOperand lo_vals;
  lo_vals.Resolve(*lo_, batch, *pending, c, scratch);
  if (c != nullptr) c->comparisons += pending->size();
  ScratchSel passed_lo(scratch);
  passed_lo->reserve(pending->size());
  for (uint32_t r : *pending) {
    const CellView lo_v = lo_vals.view_at(r);
    if (!lo_v.is_null() && CompareCellViews(vals.view_at(r), lo_v) < 0) {
      o[r] = false;
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
    o[r] = !hi_v.is_null() && CompareCellViews(vals.view_at(r), hi_v) <= 0;
  }
}

void BetweenExpr::FilterBatch(const RowBatch& batch,
                              std::vector<uint32_t>* sel, EvalCounters* c,
                              ExprScratch* scratch) const {
  // A null-free column between two non-NULL literals: `>= lo` over the
  // selection, then `<= hi` over its survivors, on the compare kernel —
  // the lazy per-row counts. Any other shape (a NULL bound passes its
  // check there) evaluates and compacts.
  LiteralPath lo_path, hi_path;
  if (ColumnLiteralPath(*operand_, *lo_, batch, &lo_path) &&
      ColumnLiteralPath(*operand_, *hi_, batch, &hi_path) &&
      lo_path != LiteralPath::kNullLit && hi_path != LiteralPath::kNullLit) {
    FilterColumnLiteral(CompareOp::kGe, *operand_, *lo_, batch, sel, c);
    if (!sel->empty()) {
      FilterColumnLiteral(CompareOp::kLe, *operand_, *hi_, batch, sel, c);
    }
    return;
  }
  Expr::FilterBatch(batch, sel, c, scratch);
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
    for (const Value& v : values_) set_.insert(CellView::Of(v));
  }
}

void InListExpr::EvalBatch(const RowBatch& batch, const SelVec& sel,
                           RowBatch::TypedLane* out, EvalCounters* c,
                           ExprScratch* scratch) const {
  BatchOperand vals;
  vals.Resolve(*operand_, batch, sel, c, scratch);
  out->Start(ValueType::kBool, batch.num_rows());
  int64_t* o = out->i64.data();
  if (hashed_) {
    for (uint32_t r : sel) {
      const CellView v = vals.view_at(r);
      if (v.is_null()) {
        o[r] = false;
        continue;
      }
      if (c != nullptr) ++c->comparisons;  // one probe
      o[r] = set_.count(v) != 0;
    }
    return;
  }
  // Dictionary fast path: a plain string-column operand stored as a
  // null-free code lane. Each candidate translates to its dict code once
  // per batch — a candidate absent from the dictionary (or non-string, or
  // NULL) gets the -1 sentinel, which no row code ever equals, exactly as
  // the byte compare never matches it. The loop structure, order and
  // charged comparison counts are identical to the byte path below.
  const RowBatch::TypedLane* lane = vals.lane();
  if (lane != nullptr && lane->is_null_free_codes()) {
    // No nulls on this path, so every selected row enters the candidate
    // loop — matching the generic path's null pre-pass, which would pass
    // them all through.
    const int32_t* codes = lane->code_data();
    ScratchSel rem(scratch), nxt(scratch);
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
          o[r] = true;
        } else {
          nxt->push_back(r);
        }
      }
      rem->swap(*nxt);
    }
    for (uint32_t r : *rem) o[r] = false;
    return;
  }
  // Linear scan with per-row early exit, candidate loop hoisted outside
  // the row loop: row `r` is compared against candidates until its first
  // hit, so the total comparison count is the per-row early-exit count.
  ScratchSel remaining(scratch);
  remaining->reserve(sel.size());
  for (uint32_t r : sel) {
    if (vals.view_at(r).is_null()) {
      o[r] = false;
    } else {
      remaining->push_back(r);
    }
  }
  ScratchSel next(scratch);
  for (const Value& candidate : values_) {
    if (remaining->empty()) break;
    if (c != nullptr) c->comparisons += remaining->size();
    const CellView cand = CellView::Of(candidate);
    next->clear();
    for (uint32_t r : *remaining) {
      if (CompareCellViews(vals.view_at(r), cand) == 0) {
        o[r] = true;
      } else {
        next->push_back(r);
      }
    }
    remaining->swap(*next);
  }
  for (uint32_t r : *remaining) o[r] = false;
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
