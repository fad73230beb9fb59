#include <gtest/gtest.h>

#include "ecodb/exec/expr.h"
#include "reference_eval.h"

namespace ecodb {
namespace {

Row TestRow() {
  return {Value::Int(10), Value::Dbl(2.5), Value::Str("ASIA"),
          Value::Date(100)};
}

// The engine's value of `e` over one boxed row: a one-row batch holding
// `row`'s cells, evaluated with EvalBatch and boxed back.
Value EvalOne(const ExprPtr& e, const Row& row, EvalCounters* c = nullptr) {
  RowBatch batch;
  batch.Reset(static_cast<int>(row.size()));
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row[i];
    RowBatch::TypedLane* lane = batch.StartLane(static_cast<int>(i), v.type());
    lane->Start(v.type(), 1);
    if (v.is_null()) {
      lane->SetNull(0);
    } else if (lane->kind == RowBatch::LaneKind::kDouble) {
      lane->f64[0] = v.AsDouble();
    } else if (lane->kind == RowBatch::LaneKind::kStringRef) {
      lane->str[0] = batch.arena()->Intern(v.AsString());
    } else {
      lane->i64[0] = v.AsInt();
    }
  }
  batch.set_num_rows(1);
  batch.ExtendIdentitySel(0);
  RowBatch::TypedLane out;
  e->EvalBatch(batch, batch.sel(), &out, c);
  return BoxCellView(out.ViewAt(0));
}

// Boxes physical row `r` of `batch` for the reference evaluator.
Row BoxRow(const RowBatch& batch, uint32_t r) {
  Row row;
  for (int c = 0; c < batch.num_cols(); ++c) {
    row.push_back(BoxCellView(batch.ViewCell(c, r)));
  }
  return row;
}

TEST(ExprTest, ColumnAndLiteral) {
  Row row = TestRow();
  EXPECT_EQ(EvalOne(Col(0, ValueType::kInt64, "k"), row).AsInt(), 10);
  EXPECT_EQ(EvalOne(LitStr("x"), row).AsString(), "x");
}

struct CmpCase {
  CompareOp op;
  int64_t lhs;
  int64_t rhs;
  bool expect;
};

class CompareOpTest : public ::testing::TestWithParam<CmpCase> {};

TEST_P(CompareOpTest, EvaluatesCorrectly) {
  const CmpCase& c = GetParam();
  ExprPtr e = Cmp(c.op, LitInt(c.lhs), LitInt(c.rhs));
  EXPECT_EQ(EvalOne(e, {}).AsBool(), c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, CompareOpTest,
    ::testing::Values(CmpCase{CompareOp::kEq, 3, 3, true},
                      CmpCase{CompareOp::kEq, 3, 4, false},
                      CmpCase{CompareOp::kNe, 3, 4, true},
                      CmpCase{CompareOp::kNe, 3, 3, false},
                      CmpCase{CompareOp::kLt, 3, 4, true},
                      CmpCase{CompareOp::kLt, 4, 3, false},
                      CmpCase{CompareOp::kLt, 3, 3, false},
                      CmpCase{CompareOp::kLe, 3, 3, true},
                      CmpCase{CompareOp::kGt, 4, 3, true},
                      CmpCase{CompareOp::kGt, 3, 3, false},
                      CmpCase{CompareOp::kGe, 3, 3, true},
                      CmpCase{CompareOp::kGe, 2, 3, false}));

TEST(ExprTest, ArithmeticIntAndDouble) {
  EXPECT_EQ(EvalOne(Arith(ArithOp::kAdd, LitInt(2), LitInt(3)), {}).AsInt(), 5);
  EXPECT_EQ(EvalOne(Arith(ArithOp::kMul, LitInt(2), LitInt(3)), {}).AsInt(), 6);
  EXPECT_DOUBLE_EQ(
      EvalOne(Arith(ArithOp::kMul, LitDbl(1.5), LitInt(4)), {}).AsDouble(),
      6.0);
  EXPECT_DOUBLE_EQ(
      EvalOne(Arith(ArithOp::kSub, LitDbl(1.0), LitDbl(0.25)), {}).AsDouble(),
      0.75);
  // Division by zero yields NULL, not a crash.
  EXPECT_TRUE(
      EvalOne(Arith(ArithOp::kDiv, LitInt(1), LitInt(0)), {}).is_null());
}

TEST(ExprTest, Q5RevenueExpression) {
  // l_extendedprice * (1 - l_discount), the paper workload's aggregate arg.
  Row row{Value::Dbl(1000.0), Value::Dbl(0.1)};
  ExprPtr rev = Arith(ArithOp::kMul, Col(0, ValueType::kDouble, "p"),
                      Arith(ArithOp::kSub, LitDbl(1.0),
                            Col(1, ValueType::kDouble, "d")));
  EXPECT_DOUBLE_EQ(EvalOne(rev, row).AsDouble(), 900.0);
}

TEST(ExprTest, AndOrNotSemantics) {
  ExprPtr t = Lit(Value::Bool(true));
  ExprPtr f = Lit(Value::Bool(false));
  EXPECT_FALSE(EvalOne(And({t, f, t}), {}).AsBool());
  EXPECT_TRUE(EvalOne(And({t, t}), {}).AsBool());
  EXPECT_TRUE(EvalOne(Or({f, f, t}), {}).AsBool());
  EXPECT_FALSE(EvalOne(Or({f, f}), {}).AsBool());
  EXPECT_TRUE(EvalOne(Not(f), {}).AsBool());
}

TEST(ExprTest, OrShortCircuitCountsLazily) {
  // The comparison count must reflect early termination — the property
  // QED's merged-OR cost model rests on.
  Row row{Value::Int(7)};
  ExprPtr col = Col(0, ValueType::kInt64, "q");
  std::vector<ExprPtr> disjuncts;
  for (int v = 1; v <= 10; ++v) disjuncts.push_back(Eq(col, LitInt(v)));
  ExprPtr ten_or = Or(disjuncts);

  EvalCounters c;
  EXPECT_TRUE(EvalOne(ten_or, row, &c).AsBool());
  EXPECT_EQ(c.comparisons, 7u);  // stops at the matching 7th disjunct

  Row miss{Value::Int(99)};
  c = EvalCounters();
  EXPECT_FALSE(EvalOne(ten_or, miss, &c).AsBool());
  EXPECT_EQ(c.comparisons, 10u);  // full scan on a non-match
}

TEST(ExprTest, AndShortCircuits) {
  Row row{Value::Int(7)};
  ExprPtr col = Col(0, ValueType::kInt64, "q");
  EvalCounters c;
  ExprPtr e = And({Eq(col, LitInt(1)), Eq(col, LitInt(7))});
  EXPECT_FALSE(EvalOne(e, row, &c).AsBool());
  EXPECT_EQ(c.comparisons, 1u);
}

TEST(ExprTest, BetweenInclusive) {
  ExprPtr col = Col(0, ValueType::kInt64, "q");
  ExprPtr e = Between(col, LitInt(5), LitInt(10));
  EXPECT_TRUE(EvalOne(e, {Value::Int(5)}).AsBool());
  EXPECT_TRUE(EvalOne(e, {Value::Int(10)}).AsBool());
  EXPECT_FALSE(EvalOne(e, {Value::Int(4)}).AsBool());
  EXPECT_FALSE(EvalOne(e, {Value::Int(11)}).AsBool());
}

class InListEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(InListEquivalenceTest, HashedAndLinearAgree) {
  // Property: the two IN evaluation strategies are semantically identical
  // (they differ only in charged cost).
  int n = GetParam();
  std::vector<Value> values;
  for (int i = 0; i < n; ++i) values.push_back(Value::Int(i * 3));
  ExprPtr col = Col(0, ValueType::kInt64, "q");
  ExprPtr linear = InList(col, values, /*hashed=*/false);
  ExprPtr hashed = InList(col, values, /*hashed=*/true);
  for (int64_t probe = -2; probe < 3 * n + 2; ++probe) {
    Row row{Value::Int(probe)};
    EXPECT_EQ(EvalOne(linear, row).AsBool(),
              EvalOne(hashed, row).AsBool())
        << "probe " << probe;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, InListEquivalenceTest,
                         ::testing::Values(1, 2, 5, 16, 50));

TEST(ExprTest, HashedInListChargesOneComparison) {
  std::vector<Value> values;
  for (int i = 0; i < 50; ++i) values.push_back(Value::Int(i));
  ExprPtr col = Col(0, ValueType::kInt64, "q");
  ExprPtr hashed = InList(col, values, true);
  EvalCounters c;
  EvalOne(hashed, {Value::Int(49)}, &c);
  EXPECT_EQ(c.comparisons, 1u);
  ExprPtr linear = InList(col, values, false);
  c = EvalCounters();
  EvalOne(linear, {Value::Int(49)}, &c);
  EXPECT_EQ(c.comparisons, 50u);
}

// Evaluates `e` over `sel` both ways — EvalBatch into a lane and
// FilterBatch — and checks values, lane type and operation counts
// against the reference evaluator (RefEval) over each selected row.
void ExpectBatchMatchesScalar(const ExprPtr& e, const RowBatch& batch,
                              const std::vector<uint32_t>& sel,
                              ExprScratch* scratch) {
  EvalCounters scalar_c;
  std::vector<Value> scalar_vals(batch.num_rows());
  std::vector<uint32_t> scalar_sel;
  for (uint32_t r : sel) {
    scalar_vals[r] = testing::RefEval(*e, BoxRow(batch, r), &scalar_c);
    if (scalar_vals[r].IsTruthy()) scalar_sel.push_back(r);
  }
  EvalCounters batch_c;
  RowBatch::TypedLane lane;
  e->EvalBatch(batch, sel, &lane, &batch_c, scratch);
  EXPECT_EQ(scalar_c.comparisons, batch_c.comparisons);
  EXPECT_EQ(scalar_c.arith_ops, batch_c.arith_ops);
  EXPECT_EQ(lane.type, e->type());
  for (uint32_t r : sel) {
    const Value got = BoxCellView(lane.ViewAt(r));
    EXPECT_EQ(scalar_vals[r].type(), got.type()) << "row " << r;
    EXPECT_EQ(scalar_vals[r].ToString(), got.ToString()) << "row " << r;
  }
  EvalCounters filter_c;
  std::vector<uint32_t> filtered = sel;
  e->FilterBatch(batch, &filtered, &filter_c, scratch);
  EXPECT_EQ(filtered, scalar_sel);
  EXPECT_EQ(scalar_c.comparisons, filter_c.comparisons);
  EXPECT_EQ(scalar_c.arith_ops, filter_c.arith_ops);
}

// A 200-row batch: k int64 (rows 0-3 hold INT64_MIN, INT64_MAX, -1, 0),
// s string (every 11th empty), d double with NULLs and zeros, n int64
// with NULLs and zeros, p double without NULLs.
RowBatch EdgeBatch() {
  RowBatch batch;
  batch.Reset(5);
  RowBatch::TypedLane* k = batch.StartLane(0, ValueType::kInt64);
  RowBatch::TypedLane* s = batch.StartLane(1, ValueType::kString);
  RowBatch::TypedLane* d = batch.StartLane(2, ValueType::kDouble);
  RowBatch::TypedLane* n = batch.StartLane(3, ValueType::kInt64);
  RowBatch::TypedLane* p = batch.StartLane(4, ValueType::kDouble);
  d->has_nulls = n->has_nulls = true;
  const int64_t kEdges[] = {INT64_MIN, INT64_MAX, -1, 0};
  for (int i = 0; i < 200; ++i) {
    k->i64.push_back(i < 4 ? kEdges[i] : i % 23 - 11);
    s->str.push_back(batch.arena()->Intern(
        i % 11 == 0 ? std::string() : "s" + std::to_string(i % 7)));
    d->f64.push_back((i % 13) * 0.5 - 3.0);
    d->nulls.push_back(i % 5 == 1 ? 1 : 0);
    n->i64.push_back(i % 5 - 2);
    n->nulls.push_back(i % 7 == 3 ? 1 : 0);
    p->f64.push_back((i % 17) * 1.25 - 4.0);
  }
  batch.set_num_rows(200);
  batch.ExtendIdentitySel(0);
  return batch;
}

// EvalBatch must reproduce the reference evaluator's values and lazy
// operation counts exactly — AND/OR short-circuit and IN-list early exit
// are what give the QED merged-disjunction cost curve (Figure 6) its
// shape — on dense and sparse selections, with and without a scratch
// pool.
TEST(ExprTest, EvalBatchMatchesScalarCountsAndValues) {
  const RowBatch batch = EdgeBatch();
  ExprPtr k = Col(0, ValueType::kInt64, "k");
  ExprPtr s = Col(1, ValueType::kString, "s");
  ExprPtr d = Col(2, ValueType::kDouble, "d");
  ExprPtr n = Col(3, ValueType::kInt64, "n");
  ExprPtr p = Col(4, ValueType::kDouble, "p");
  ExprPtr null = Lit(Value::Null());
  std::vector<Value> in_vals;
  for (int i = 0; i < 5; ++i) in_vals.push_back(Value::Str("s" + std::to_string(i)));
  const std::vector<ExprPtr> exprs = {
      Cmp(CompareOp::kLt, k, LitInt(11)),
      Arith(ArithOp::kMul, k, LitInt(3)),
      And({Cmp(CompareOp::kGe, k, LitInt(5)), Eq(s, LitStr("s2"))}),
      Or({Eq(s, LitStr("s0")), Eq(s, LitStr("s4")),
          Cmp(CompareOp::kGt, k, LitInt(20))}),
      Between(k, LitInt(3), LitInt(17)),
      InList(s, in_vals, /*hashed=*/false),
      InList(s, in_vals, /*hashed=*/true),
      Not(Eq(s, LitStr("s1"))),
      // Integer arithmetic wraps at the int64 extremes; / 0 is NULL.
      Arith(ArithOp::kAdd, k, LitInt(1)),
      Arith(ArithOp::kSub, LitInt(0), k),
      Arith(ArithOp::kMul, k, k),
      Arith(ArithOp::kDiv, k, LitInt(-1)),
      Arith(ArithOp::kDiv, k, n),
      Arith(ArithOp::kDiv, k, LitInt(0)),
      // Double arithmetic over lanes with and without NULLs; / 0.0 is NULL.
      Arith(ArithOp::kMul, d, LitDbl(2.0)),
      Arith(ArithOp::kSub, LitDbl(1.0), d),
      Arith(ArithOp::kAdd, d, k),
      Arith(ArithOp::kDiv, k, d),
      Arith(ArithOp::kDiv, LitDbl(1.0), d),
      Arith(ArithOp::kDiv, p, LitDbl(0.0)),
      Arith(ArithOp::kAdd, p, k),
      Arith(ArithOp::kMul, LitDbl(2.0), n),
      // Nested arithmetic, literal operands on the left and on the right.
      Arith(ArithOp::kMul, p, Arith(ArithOp::kSub, LitDbl(1.0), p)),
      Arith(ArithOp::kMul, Arith(ArithOp::kSub, LitDbl(1.0), d),
            Arith(ArithOp::kAdd, k, LitDbl(0.5))),
      Arith(ArithOp::kSub, LitInt(3), Arith(ArithOp::kMul, n, LitInt(2))),
      Arith(ArithOp::kAdd, Arith(ArithOp::kMul, LitDbl(1.5), LitDbl(2.0)),
            p),
      // A NULL literal, alone and as an operand.
      null,
      Arith(ArithOp::kAdd, k, null),
      Arith(ArithOp::kMul, null, LitDbl(2.0)),
      Eq(k, null),
      Between(k, null, LitInt(5)),
      // Truthiness of int, double and string operands.
      Not(k),
      Not(d),
      Not(s),
      Or({n, d, s}),
      And({d, s, k}),
      Not(Or({Eq(n, LitInt(0)), d})),
      Between(d, LitInt(-1), LitDbl(1.5)),
      Between(k, n, LitInt(5)),
      Between(s, LitStr("s2"), LitStr("s5")),
      // Plain column and literal nodes.
      k,
      d,
      s,
      LitStr("lit"),
  };
  std::vector<uint32_t> sparse;
  for (uint32_t r = 0; r < batch.num_rows(); r += 3) sparse.push_back(r);
  ExprScratch scratch;
  for (const ExprPtr& e : exprs) {
    SCOPED_TRACE(e->ToString());
    for (ExprScratch* pool : {static_cast<ExprScratch*>(nullptr), &scratch}) {
      ExpectBatchMatchesScalar(e, batch, batch.sel(), pool);
      ExpectBatchMatchesScalar(e, batch, sparse, pool);
    }
  }
}

TEST(ExprTest, EvalBatchRespectsSelectionSubset) {
  RowBatch batch;
  batch.Reset(1);
  RowBatch::TypedLane* k = batch.StartLane(0, ValueType::kInt64);
  for (int i = 0; i < 10; ++i) k->i64.push_back(i);
  batch.set_num_rows(10);
  batch.ExtendIdentitySel(0);
  // Evaluate over the even rows only; counts scale with the subset.
  std::vector<uint32_t> subset = {0, 2, 4, 6, 8};
  ExprPtr e = Cmp(CompareOp::kLt, Col(0, ValueType::kInt64, "k"), LitInt(5));
  EvalCounters c;
  RowBatch::TypedLane vals;
  e->EvalBatch(batch, subset, &vals, &c);
  EXPECT_EQ(c.comparisons, subset.size());
  EXPECT_TRUE(vals.ViewAt(4).i);
  EXPECT_FALSE(vals.ViewAt(6).i);

  // The same holds for every kernel over a subset that is neither a
  // dense run nor the batch's selection.
  const RowBatch edge = EdgeBatch();
  ExprPtr ek = Col(0, ValueType::kInt64, "k");
  ExprPtr ed = Col(2, ValueType::kDouble, "d");
  ExprPtr ep = Col(4, ValueType::kDouble, "p");
  const std::vector<uint32_t> rows = {0, 1, 2, 3, 5, 6, 7, 40, 41, 42, 199};
  ExprScratch scratch;
  for (const ExprPtr& x :
       {Arith(ArithOp::kMul, ep, Arith(ArithOp::kSub, LitDbl(1.0), ed)),
        Arith(ArithOp::kDiv, ek, Arith(ArithOp::kSub, ek, LitInt(2))),
        Arith(ArithOp::kAdd, ep, ek), Or({ed, Not(ek)}),
        Between(ep, ed, LitDbl(4.0))}) {
    SCOPED_TRACE(x->ToString());
    ExpectBatchMatchesScalar(x, edge, rows, &scratch);
  }
}

TEST(ExprTest, NullComparisonsAreFalse) {
  ExprPtr e = Eq(Lit(Value::Null()), LitInt(1));
  EXPECT_FALSE(EvalOne(e, {}).AsBool());
}

TEST(ExprTest, ToStringIsReadable) {
  ExprPtr e = And({Eq(Col(0, ValueType::kString, "r_name"), LitStr("ASIA")),
                   Cmp(CompareOp::kLt, Col(1, ValueType::kInt64, "q"),
                       LitInt(24))});
  EXPECT_EQ(e->ToString(), "((r_name = 'ASIA') AND (q < 24))");
}

TEST(ExprTest, CollectColumnsFindsAllReferences) {
  ExprPtr e = And({Eq(Col(3, ValueType::kInt64, "a"), LitInt(1)),
                   Between(Col(7, ValueType::kInt64, "b"), LitInt(0),
                           Col(2, ValueType::kInt64, "c"))});
  std::vector<const ColumnExpr*> refs;
  e->CollectColumns(&refs);
  std::vector<int> cols;
  for (const ColumnExpr* c : refs) cols.push_back(c->index());
  std::sort(cols.begin(), cols.end());
  EXPECT_EQ(cols, (std::vector<int>{2, 3, 7}));
}

// `column <op> literal` over an owned lane (projection, join or sort
// output) takes the typed compare fast path unless the lane carries
// NULLs. Either way it must give the answers and comparison counts of the
// reference evaluator over each row.
TEST(ExprTest, ColumnLiteralCompareOverLanesMatchesScalarEval) {
  Column dict(ValueType::kString);
  for (const char* s : {"MAIL", "AIR", "SHIP", "AIR", "RAIL"}) {
    dict.AppendString(s);
  }
  for (bool nulls : {false, true}) {
    SCOPED_TRACE(nulls ? "lanes with nulls" : "lanes without nulls");
    const size_t n = 60;
    std::vector<std::string> strs;
    for (size_t r = 0; r < n; ++r) strs.push_back("s" + std::to_string(r % 9));
    RowBatch lanes;
    lanes.Reset(5);
    RowBatch::TypedLane* li = lanes.StartLane(0, ValueType::kInt64);
    RowBatch::TypedLane* ld = lanes.StartLane(1, ValueType::kDouble);
    RowBatch::TypedLane* ls = lanes.StartLane(2, ValueType::kString);
    RowBatch::TypedLane* lc = lanes.StartCodeLane(3, &dict);
    RowBatch::TypedLane* lt = lanes.StartLane(4, ValueType::kDate);
    for (RowBatch::TypedLane* l : {li, ld, ls, lc, lt}) l->has_nulls = nulls;
    for (size_t r = 0; r < n; ++r) {
      const bool null = nulls && r % 4 == 1;
      const int64_t i = static_cast<int64_t>(r % 11) - 5;
      const double d = r % 5 == 0 ? -0.0 : static_cast<double>(i) * 0.5;
      li->i64.push_back(null ? 0 : i);
      ld->f64.push_back(null ? 0.0 : d);
      ls->str.push_back(null ? nullptr : &strs[r]);
      lc->codes.push_back(null ? 0 : dict.DictCode(r % 5));
      lt->i64.push_back(null ? 0 : 100 + i);
      for (RowBatch::TypedLane* l : {li, ld, ls, lc, lt}) {
        if (nulls) l->nulls.push_back(null ? 1 : 0);
      }
    }
    lanes.set_num_rows(n);
    lanes.ExtendIdentitySel(0);
    const ValueType kTypes[] = {ValueType::kInt64, ValueType::kDouble,
                                ValueType::kString, ValueType::kString,
                                ValueType::kDate};
    const std::vector<std::pair<int, Value>> cases = {
        {0, Value::Int(0)},     {0, Value::Int(-3)},  {0, Value::Dbl(1.5)},
        {0, Value::Null()},     {0, Value::Str("x")}, {1, Value::Dbl(0.0)},
        {1, Value::Dbl(-1.0)},  {1, Value::Int(2)},   {2, Value::Str("s4")},
        {2, Value::Str("s45")}, {2, Value::Int(1)},   {3, Value::Str("AIR")},
        {3, Value::Str("B")},   {3, Value::Str("ZZ")}, {4, Value::Date(100)},
        {4, Value::Int(98)},    {4, Value::Dbl(101.5)}};
    std::vector<uint32_t> sparse;
    for (uint32_t r = 0; r < n; r += 3) sparse.push_back(r);
    for (const auto& [col, lit] : cases) {
      for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
        const ExprPtr e = Cmp(op, Col(col, kTypes[col], "c"), Lit(lit));
        SCOPED_TRACE("column " + std::to_string(col) + " " + e->ToString());
        for (const std::vector<uint32_t>& sel : {lanes.sel(), sparse}) {
          EvalCounters lane_c, scalar_c;
          RowBatch::TypedLane lane_vals;
          e->EvalBatch(lanes, sel, &lane_vals, &lane_c);
          std::vector<uint32_t> scalar_sel;
          for (uint32_t r : sel) {
            const bool pass =
                testing::RefEval(*e, BoxRow(lanes, r), &scalar_c).AsBool();
            ASSERT_EQ(lane_vals.ViewAt(r).i != 0, pass) << "row " << r;
            if (pass) scalar_sel.push_back(r);
          }
          EXPECT_EQ(lane_c.comparisons, scalar_c.comparisons);
          std::vector<uint32_t> lane_sel = sel;
          lane_c = EvalCounters();
          e->FilterBatch(lanes, &lane_sel, &lane_c);
          EXPECT_EQ(lane_sel, scalar_sel);
          EXPECT_EQ(lane_c.comparisons, scalar_c.comparisons);
        }
      }
    }
  }
}

}  // namespace
}  // namespace ecodb
