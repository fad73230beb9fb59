// Malformed input is a clean Status, never an assert: ValidatePlan over
// hand-built plan trees, and the SQL front-end on degenerate text.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "ecodb/ecodb.h"
#include "test_util.h"

namespace ecodb {
namespace {

class PlanValidationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { db_ = testing::MakeTestDb().release(); }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  PlanNodePtr Scan(const char* table) {
    auto r = MakeScan(*db_->catalog(), table);
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  }

  static Database* db_;
};

Database* PlanValidationTest::db_ = nullptr;

TEST_F(PlanValidationTest, ValidPlanPasses) {
  PlanNodePtr plan = Scan("nation");
  EXPECT_TRUE(ValidatePlan(*plan).ok());
  auto res = db_->ExecutePlanQuery(*plan);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().num_rows(), 25u);
}

TEST_F(PlanValidationTest, ZeroColumnProjectionIsInvalidArgument) {
  PlanNodePtr plan = MakeProject(Scan("nation"), {}, {});
  Status st = ValidatePlan(*plan);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  auto res = db_->ExecutePlanQuery(*plan);
  EXPECT_TRUE(res.status().IsInvalidArgument());
}

TEST_F(PlanValidationTest, NullFilterPredicateIsInvalidArgument) {
  PlanNodePtr plan = MakeFilter(Scan("nation"), nullptr);
  Status st = ValidatePlan(*plan);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_TRUE(db_->ExecutePlanQuery(*plan).status().IsInvalidArgument());
}

TEST_F(PlanValidationTest, OutOfRangeColumnIsInvalidArgument) {
  // n_nationkey reinterpreted over a narrower schema: column index 99
  // does not exist in nation's 4 fields.
  PlanNodePtr plan =
      MakeFilter(Scan("nation"), Eq(Col(99, ValueType::kInt64, "bogus"),
                                    LitInt(0)));
  Status st = ValidatePlan(*plan);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_TRUE(db_->ExecutePlanQuery(*plan).status().IsInvalidArgument());
}

TEST_F(PlanValidationTest, JoinKeyArityMismatchIsInvalidArgument) {
  PlanNodePtr plan =
      MakeHashJoin(Scan("region"), Scan("nation"), {0, 1}, {2});
  Status st = ValidatePlan(*plan);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_TRUE(db_->ExecutePlanQuery(*plan).status().IsInvalidArgument());
}

TEST_F(PlanValidationTest, JoinKeyOutOfRangeIsInvalidArgument) {
  PlanNodePtr plan = MakeHashJoin(Scan("region"), Scan("nation"), {7}, {0});
  Status st = ValidatePlan(*plan);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_TRUE(db_->ExecutePlanQuery(*plan).status().IsInvalidArgument());
}

TEST_F(PlanValidationTest, NegativeLimitIsInvalidArgument) {
  PlanNodePtr plan = MakeLimit(Scan("nation"), -3);
  Status st = ValidatePlan(*plan);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_TRUE(db_->ExecutePlanQuery(*plan).status().IsInvalidArgument());
}

TEST_F(PlanValidationTest, EmptyAggregateIsInvalidArgument) {
  PlanNodePtr plan = MakeAggregate(Scan("nation"), {}, {});
  Status st = ValidatePlan(*plan);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_TRUE(db_->ExecutePlanQuery(*plan).status().IsInvalidArgument());
}

TEST_F(PlanValidationTest, NullAggregateArgOutsideCountIsInvalidArgument) {
  std::vector<AggSpec> aggs;
  AggSpec a;
  a.kind = AggSpec::Kind::kSum;
  a.arg = nullptr;  // SUM with no argument — only COUNT(*) may omit it
  a.name = "bad_sum";
  aggs.push_back(std::move(a));
  PlanNodePtr plan = MakeAggregate(Scan("nation"), {}, std::move(aggs));
  Status st = ValidatePlan(*plan);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_TRUE(db_->ExecutePlanQuery(*plan).status().IsInvalidArgument());
}

TEST_F(PlanValidationTest, MistypedColumnReferenceIsInvalidArgument) {
  // typed(k INT64, v DOUBLE, s STRING). Reading v as INT64 used to pass
  // validation and return v's doubles under an INT64 result schema.
  ASSERT_TRUE(db_->catalog()->FindTable("typed") != nullptr ||
              testing::MakeSimpleTable(db_->catalog(), "typed", 4) != nullptr);
  const ExprPtr v_as_int = Col(1, ValueType::kInt64, "v");
  PlanNodePtr plan =
      MakeProject(Scan("typed"),
                  {Arith(ArithOp::kAdd, v_as_int, LitInt(1)), v_as_int},
                  {"v_plus_1", "v"});
  Status st = ValidatePlan(*plan);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_TRUE(db_->ExecutePlanQuery(*plan).status().IsInvalidArgument());

  // Read as DOUBLE, the same projection is valid.
  const ExprPtr v = Col(1, ValueType::kDouble, "v");
  plan = MakeProject(Scan("typed"), {Arith(ArithOp::kAdd, v, LitInt(1)), v},
                     {"v_plus_1", "v"});
  EXPECT_TRUE(ValidatePlan(*plan).ok());
  auto res = db_->ExecutePlanQuery(*plan);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_EQ(res.value().num_rows(), 4u);
  EXPECT_EQ(RowToString(res.value().rows()[3]), "(5.5, 4.5)");

  // Every expression slot checks its input: filter, NLJ predicate (over
  // both sides), group-by key, aggregate argument and sort key.
  std::vector<PlanNodePtr> bad;
  bad.push_back(MakeFilter(Scan("typed"), Cmp(CompareOp::kLt, v_as_int,
                                               LitInt(2))));
  bad.push_back(MakeNestedLoopJoin(
      Scan("typed"), Scan("typed"),
      Cmp(CompareOp::kLt, v, Col(4, ValueType::kInt64, "v"))));
  bad.push_back(MakeAggregate(Scan("typed"), {v_as_int}, {}));
  AggSpec sum;
  sum.kind = AggSpec::Kind::kSum;
  sum.arg = Col(2, ValueType::kInt64, "s");
  sum.name = "sum_s";
  bad.push_back(MakeAggregate(Scan("typed"), {}, {sum}));
  bad.push_back(MakeSort(Scan("typed"), {SortKey{v_as_int, true}}));
  for (const PlanNodePtr& p : bad) {
    st = ValidatePlan(*p);
    EXPECT_TRUE(st.IsInvalidArgument()) << p->Explain() << st.ToString();
  }
  EXPECT_TRUE(ValidatePlan(*MakeNestedLoopJoin(
                               Scan("typed"), Scan("typed"),
                               Cmp(CompareOp::kLt, v,
                                   Col(4, ValueType::kDouble, "v"))))
                  .ok());
}

TEST_F(PlanValidationTest, ErrorsSurfaceFromNestedNodes) {
  // The malformed node sits under two healthy unaries; validation recurses.
  PlanNodePtr bad = MakeFilter(Scan("nation"), nullptr);
  PlanNodePtr plan = MakeLimit(std::move(bad), 5);
  Status st = ValidatePlan(*plan);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST_F(PlanValidationTest, DatabaseStaysUsableAfterRejectedPlan) {
  PlanNodePtr bad = MakeLimit(Scan("nation"), -1);
  EXPECT_FALSE(db_->ExecutePlanQuery(*bad).ok());
  auto res = db_->ExecuteSql("SELECT COUNT(*) AS n FROM region");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().rows()[0][0].AsInt(), 5);
}

TEST_F(PlanValidationTest, DegenerateSqlIsParseErrorNotAbort) {
  for (const char* sql : {"", "   ", "\n\t", ";", "SELECT", "SELECT FROM",
                          "FROM lineitem", "SELECT * FROM"}) {
    auto res = db_->ExecuteSql(sql);
    ASSERT_FALSE(res.ok()) << "sql: \"" << sql << '"';
    EXPECT_TRUE(res.status().IsParseError() ||
                res.status().IsInvalidArgument())
        << "sql: \"" << sql << "\" -> " << res.status().ToString();
  }
}

TEST_F(PlanValidationTest, BadDateLiteralIsParseError) {
  auto res = db_->ExecuteSql(
      "SELECT COUNT(*) AS n FROM lineitem WHERE l_shipdate < "
      "DATE '1995-13-99'");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsParseError()) << res.status().ToString();
}

}  // namespace
}  // namespace ecodb
