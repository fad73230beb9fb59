#include <gtest/gtest.h>

#include "ecodb/exec/expr.h"

namespace ecodb {
namespace {

Row TestRow() {
  return {Value::Int(10), Value::Dbl(2.5), Value::Str("ASIA"),
          Value::Date(100)};
}

TEST(ExprTest, ColumnAndLiteral) {
  Row row = TestRow();
  EXPECT_EQ(Col(0, ValueType::kInt64, "k")->Eval(row, nullptr).AsInt(), 10);
  EXPECT_EQ(LitStr("x")->Eval(row, nullptr).AsString(), "x");
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
  EXPECT_EQ(e->Eval({}, nullptr).AsBool(), c.expect);
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
  EXPECT_EQ(Arith(ArithOp::kAdd, LitInt(2), LitInt(3))->Eval({}, nullptr).AsInt(), 5);
  EXPECT_EQ(Arith(ArithOp::kMul, LitInt(2), LitInt(3))->Eval({}, nullptr).AsInt(), 6);
  EXPECT_DOUBLE_EQ(
      Arith(ArithOp::kMul, LitDbl(1.5), LitInt(4))->Eval({}, nullptr).AsDouble(),
      6.0);
  EXPECT_DOUBLE_EQ(
      Arith(ArithOp::kSub, LitDbl(1.0), LitDbl(0.25))->Eval({}, nullptr).AsDouble(),
      0.75);
  // Division by zero yields NULL, not a crash.
  EXPECT_TRUE(
      Arith(ArithOp::kDiv, LitInt(1), LitInt(0))->Eval({}, nullptr).is_null());
}

TEST(ExprTest, Q5RevenueExpression) {
  // l_extendedprice * (1 - l_discount), the paper workload's aggregate arg.
  Row row{Value::Dbl(1000.0), Value::Dbl(0.1)};
  ExprPtr rev = Arith(ArithOp::kMul, Col(0, ValueType::kDouble, "p"),
                      Arith(ArithOp::kSub, LitDbl(1.0),
                            Col(1, ValueType::kDouble, "d")));
  EXPECT_DOUBLE_EQ(rev->Eval(row, nullptr).AsDouble(), 900.0);
}

TEST(ExprTest, AndOrNotSemantics) {
  ExprPtr t = Lit(Value::Bool(true));
  ExprPtr f = Lit(Value::Bool(false));
  EXPECT_FALSE(And({t, f, t})->Eval({}, nullptr).AsBool());
  EXPECT_TRUE(And({t, t})->Eval({}, nullptr).AsBool());
  EXPECT_TRUE(Or({f, f, t})->Eval({}, nullptr).AsBool());
  EXPECT_FALSE(Or({f, f})->Eval({}, nullptr).AsBool());
  EXPECT_TRUE(Not(f)->Eval({}, nullptr).AsBool());
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
  EXPECT_TRUE(ten_or->Eval(row, &c).AsBool());
  EXPECT_EQ(c.comparisons, 7u);  // stops at the matching 7th disjunct

  Row miss{Value::Int(99)};
  c = EvalCounters();
  EXPECT_FALSE(ten_or->Eval(miss, &c).AsBool());
  EXPECT_EQ(c.comparisons, 10u);  // full scan on a non-match
}

TEST(ExprTest, AndShortCircuits) {
  Row row{Value::Int(7)};
  ExprPtr col = Col(0, ValueType::kInt64, "q");
  EvalCounters c;
  ExprPtr e = And({Eq(col, LitInt(1)), Eq(col, LitInt(7))});
  EXPECT_FALSE(e->Eval(row, &c).AsBool());
  EXPECT_EQ(c.comparisons, 1u);
}

TEST(ExprTest, BetweenInclusive) {
  ExprPtr col = Col(0, ValueType::kInt64, "q");
  ExprPtr e = Between(col, LitInt(5), LitInt(10));
  EXPECT_TRUE(e->Eval({Value::Int(5)}, nullptr).AsBool());
  EXPECT_TRUE(e->Eval({Value::Int(10)}, nullptr).AsBool());
  EXPECT_FALSE(e->Eval({Value::Int(4)}, nullptr).AsBool());
  EXPECT_FALSE(e->Eval({Value::Int(11)}, nullptr).AsBool());
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
    EXPECT_EQ(linear->Eval(row, nullptr).AsBool(),
              hashed->Eval(row, nullptr).AsBool())
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
  hashed->Eval({Value::Int(49)}, &c);
  EXPECT_EQ(c.comparisons, 1u);
  ExprPtr linear = InList(col, values, false);
  c = EvalCounters();
  linear->Eval({Value::Int(49)}, &c);
  EXPECT_EQ(c.comparisons, 50u);
}

// EvalBatch must reproduce the scalar path's lazy operation counts
// exactly — AND/OR short-circuit and IN-list early exit are what give the
// QED merged-disjunction cost curve (Figure 6) its shape.
TEST(ExprTest, EvalBatchMatchesScalarCountsAndValues) {
  RowBatch batch;
  batch.Reset(2);
  RowBatch::TypedLane* ki = batch.StartLane(0, ValueType::kInt64);
  RowBatch::TypedLane* ks = batch.StartLane(1, ValueType::kString);
  for (int i = 0; i < 200; ++i) {
    ki->i64.push_back(i % 23);
    ks->str.push_back(batch.arena()->Intern("s" + std::to_string(i % 7)));
  }
  batch.set_num_rows(200);
  batch.ExtendIdentitySel(0);
  ExprPtr k = Col(0, ValueType::kInt64, "k");
  ExprPtr s = Col(1, ValueType::kString, "s");
  std::vector<Value> in_vals;
  for (int i = 0; i < 5; ++i) in_vals.push_back(Value::Str("s" + std::to_string(i)));
  std::vector<ExprPtr> exprs = {
      Cmp(CompareOp::kLt, k, LitInt(11)),
      Arith(ArithOp::kMul, k, LitInt(3)),
      And({Cmp(CompareOp::kGe, k, LitInt(5)), Eq(s, LitStr("s2"))}),
      Or({Eq(s, LitStr("s0")), Eq(s, LitStr("s4")),
          Cmp(CompareOp::kGt, k, LitInt(20))}),
      Between(k, LitInt(3), LitInt(17)),
      InList(s, in_vals, /*hashed=*/false),
      InList(s, in_vals, /*hashed=*/true),
      Not(Eq(s, LitStr("s1"))),
  };
  for (const ExprPtr& e : exprs) {
    SCOPED_TRACE(e->ToString());
    EvalCounters scalar_c;
    std::vector<Value> scalar_vals(batch.num_rows());
    Row row;
    for (uint32_t r : batch.sel()) {
      batch.MaterializeRow(r, &row);
      scalar_vals[r] = e->Eval(row, &scalar_c);
    }
    EvalCounters batch_c;
    std::vector<Value> batch_vals;
    e->EvalBatch(batch, batch.sel(), &batch_vals, &batch_c);
    EXPECT_EQ(scalar_c.comparisons, batch_c.comparisons);
    EXPECT_EQ(scalar_c.arith_ops, batch_c.arith_ops);
    ASSERT_EQ(batch_vals.size(), batch.num_rows());
    for (uint32_t r : batch.sel()) {
      EXPECT_EQ(scalar_vals[r].ToString(), batch_vals[r].ToString())
          << "row " << r;
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
  std::vector<Value> vals;
  e->EvalBatch(batch, subset, &vals, &c);
  EXPECT_EQ(c.comparisons, subset.size());
  EXPECT_TRUE(vals[4].AsBool());
  EXPECT_FALSE(vals[6].AsBool());
}

TEST(ExprTest, NullComparisonsAreFalse) {
  ExprPtr e = Eq(Lit(Value::Null()), LitInt(1));
  EXPECT_FALSE(e->Eval({}, nullptr).AsBool());
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
// scalar evaluator over each row.
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
          std::vector<Value> lane_vals;
          e->EvalBatch(lanes, sel, &lane_vals, &lane_c);
          std::vector<uint32_t> scalar_sel;
          Row row;
          for (uint32_t r : sel) {
            lanes.MaterializeRow(r, &row);
            const bool pass = e->Eval(row, &scalar_c).AsBool();
            ASSERT_EQ(lane_vals[r].AsBool(), pass) << "row " << r;
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
