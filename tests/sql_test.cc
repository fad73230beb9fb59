#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "ecodb/sql/binder.h"
#include "ecodb/sql/lexer.h"
#include "ecodb/sql/parser.h"
#include "ecodb/sql/planner.h"
#include "ecodb/tpch/queries.h"
#include "hand_plans.h"
#include "test_util.h"

namespace ecodb {
namespace {

using sql::Lex;
using sql::ParseSelect;
using sql::PlanQuery;

TEST(LexerTest, TokenKinds) {
  auto tokens = Lex("SELECT a, 1.5 FROM t WHERE s = 'it''s' AND x >= 2");
  ASSERT_TRUE(tokens.ok());
  const auto& ts = tokens.value();
  EXPECT_TRUE(ts[0].IsKeyword("SELECT"));
  EXPECT_EQ(ts[1].text, "a");
  EXPECT_TRUE(ts[2].IsSymbol(","));
  EXPECT_EQ(ts[3].kind, sql::TokenKind::kDouble);
  EXPECT_DOUBLE_EQ(ts[3].dbl_value, 1.5);
  // ... s = 'it's' ...
  bool found_string = false;
  for (const auto& t : ts) {
    if (t.kind == sql::TokenKind::kString) {
      EXPECT_EQ(t.text, "it's");
      found_string = true;
    }
  }
  EXPECT_TRUE(found_string);
}

TEST(LexerTest, ErrorsOnBadInput) {
  EXPECT_TRUE(Lex("SELECT 'unterminated").status().IsParseError());
  EXPECT_TRUE(Lex("SELECT @").status().IsParseError());
  // Numeric literals outside int64 / double range.
  for (const char* sql : {"SELECT 99999999999999999999 FROM nation",
                          "SELECT 1e999 FROM nation",
                          "SELECT 1e-400 FROM nation",
                          "SELECT a FROM t LIMIT 99999999999999999999"}) {
    EXPECT_TRUE(Lex(sql).status().IsParseError()) << sql;
    EXPECT_TRUE(ParseSelect(sql).status().IsParseError()) << sql;
  }
  // The extremes themselves still lex.
  auto edge = Lex("9223372036854775807 .5 1e308 4.9e-324");
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(edge.value()[0].int_value, INT64_MAX);
  EXPECT_EQ(edge.value()[1].dbl_value, 0.5);
}

TEST(ParserTest, SimpleSelectStructure) {
  auto stmt = ParseSelect(
      "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity = 24");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value().items.size(), 2u);
  EXPECT_EQ(stmt.value().from_tables.size(), 1u);
  ASSERT_NE(stmt.value().where, nullptr);
  EXPECT_EQ(stmt.value().where->kind, sql::AstKind::kCompare);
}

TEST(ParserTest, FullClauseSet) {
  auto stmt = ParseSelect(
      "SELECT a, SUM(b) AS total FROM t1, t2 WHERE a = c AND b > 1 "
      "GROUP BY a ORDER BY total DESC, a ASC LIMIT 10;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& s = stmt.value();
  EXPECT_EQ(s.items[1].alias, "total");
  EXPECT_EQ(s.group_by.size(), 1u);
  ASSERT_EQ(s.order_by.size(), 2u);
  EXPECT_FALSE(s.order_by[0].ascending);
  EXPECT_TRUE(s.order_by[1].ascending);
  EXPECT_EQ(s.limit, 10);
}

TEST(ParserTest, JoinOnFoldsIntoWhere) {
  auto stmt = ParseSelect(
      "SELECT a FROM t1 JOIN t2 ON x = y WHERE b = 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value().from_tables.size(), 2u);
  // WHERE and ON combined under AND.
  ASSERT_NE(stmt.value().where, nullptr);
  EXPECT_EQ(stmt.value().where->kind, sql::AstKind::kLogical);
}

TEST(ParserTest, OperatorPrecedence) {
  auto stmt = ParseSelect("SELECT a + b * c FROM t");
  ASSERT_TRUE(stmt.ok());
  const auto& e = *stmt.value().items[0].expr;
  ASSERT_EQ(e.kind, sql::AstKind::kArith);
  EXPECT_EQ(e.arith_op, ArithOp::kAdd);
  EXPECT_EQ(e.args[1]->arith_op, ArithOp::kMul);
}

TEST(ParserTest, BetweenInNotAndDates) {
  auto stmt = ParseSelect(
      "SELECT * FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3) "
      "AND NOT c = 4 AND d >= DATE '1994-01-01'");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
}

class ParseErrorTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ParseErrorTest, RejectsMalformedSql) {
  auto stmt = ParseSelect(GetParam());
  EXPECT_FALSE(stmt.ok()) << "accepted: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    BadSql, ParseErrorTest,
    ::testing::Values("SELECT", "SELECT a", "SELECT a FROM",
                      "SELECT a FROM t WHERE", "SELECT FROM t",
                      "SELECT a FROM t GROUP a", "SELECT a FROM t LIMIT x",
                      "SELECT a FROM t ORDER a", "FROM t SELECT a",
                      "SELECT a FROM t WHERE a IN ()",
                      "SELECT a FROM t trailing garbage ("));

class SqlEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing::MakeTestDb();
    ASSERT_NE(db_, nullptr);
  }

  // Runs SQL and a hand-built plan; compares result multisets.
  void ExpectSameResults(const std::string& sql, const PlanNode& hand) {
    auto sql_result = db_->ExecuteSql(sql);
    ASSERT_TRUE(sql_result.ok()) << sql_result.status().ToString();
    auto hand_result = db_->ExecutePlanQuery(hand);
    ASSERT_TRUE(hand_result.ok()) << hand_result.status().ToString();
    auto key = [](const Row& r) {
      std::string s;
      for (const Value& v : r) s += v.ToString() + "|";
      return s;
    };
    std::vector<std::string> a, b;
    for (const Row& r : sql_result.value().rows()) a.push_back(key(r));
    for (const Row& r : hand_result.value().rows()) b.push_back(key(r));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "SQL: " << sql;
    EXPECT_FALSE(a.empty()) << "vacuous comparison for " << sql;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SqlEquivalenceTest, Q5MatchesHandPlan) {
  tpch::Q5Params p;
  ExpectSameResults(tpch::Q5Sql(p), *testing::HandQ5Plan(*db_->catalog(), p));
}

TEST_F(SqlEquivalenceTest, Q3MatchesHandPlan) {
  tpch::Q3Params p;
  ExpectSameResults(tpch::Q3Sql(p), *testing::HandQ3Plan(*db_->catalog(), p));
}

TEST_F(SqlEquivalenceTest, SelectStarAndLimit) {
  auto r = db_->ExecuteSql("SELECT * FROM region ORDER BY r_name LIMIT 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows().size(), 3u);
  EXPECT_EQ(r.value().rows()[0][1].AsString(), "AFRICA");
  EXPECT_EQ(r.value().rows()[1][1].AsString(), "AMERICA");
}

TEST_F(SqlEquivalenceTest, InListQuery) {
  auto r = db_->ExecuteSql(
      "SELECT n_name FROM nation WHERE n_regionkey IN (2) ORDER BY n_name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows().size(), 5u);  // 5 ASIA nations
  EXPECT_EQ(r.value().rows()[0][0].AsString(), "CHINA");
}

TEST_F(SqlEquivalenceTest, CountStarAndAliases) {
  auto r = db_->ExecuteSql("SELECT COUNT(*) AS n FROM nation");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows().size(), 1u);
  EXPECT_EQ(r.value().rows()[0][0].AsInt(), 25);
  EXPECT_EQ(r.value().schema.field(0).name, "n");
}

TEST_F(SqlEquivalenceTest, UnknownTableAndColumnErrors) {
  EXPECT_FALSE(db_->ExecuteSql("SELECT x FROM nosuch").ok());
  EXPECT_FALSE(db_->ExecuteSql("SELECT nocol FROM nation").ok());
  EXPECT_FALSE(
      db_->ExecuteSql("SELECT n_name, SUM(nocol) FROM nation GROUP BY n_name")
          .ok());
}

// Integer arithmetic is defined on every int64 input: + - * wrap and
// INT64_MIN / -1 gives INT64_MIN instead of trapping.
TEST_F(SqlEquivalenceTest, IntegerArithmeticWrapsAtInt64Extremes) {
  auto r = db_->ExecuteSql(
      "SELECT (0 - 9223372036854775807 - 1) / (0 - 1) FROM nation");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows().size(), 25u);
  for (const Row& row : r.value().rows()) {
    EXPECT_EQ(row[0].AsInt(), INT64_MIN);
  }
  auto w = db_->ExecuteSql(
      "SELECT 9223372036854775807 + n_nationkey * 1 FROM nation "
      "WHERE n_nationkey = 1");
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  ASSERT_EQ(w.value().rows().size(), 1u);
  EXPECT_EQ(w.value().rows()[0][0].AsInt(), INT64_MIN);
}

TEST_F(SqlEquivalenceTest, OutOfRangeNumericLiteralIsParseError) {
  for (const char* sql : {"SELECT 99999999999999999999 FROM nation",
                          "SELECT 1e999 FROM nation",
                          "SELECT 1e-400 FROM nation",
                          "SELECT n_name FROM nation LIMIT 99999999999999999999"}) {
    auto r = db_->ExecuteSql(sql);
    EXPECT_TRUE(r.status().IsParseError()) << sql << ": "
                                           << r.status().ToString();
  }
}

TEST_F(SqlEquivalenceTest, AggregateMixedWithNonGroupColumnRejected) {
  EXPECT_FALSE(
      db_->ExecuteSql("SELECT n_name, COUNT(*) FROM nation").ok());
}

TEST_F(SqlEquivalenceTest, QualifiedColumnNames) {
  auto r = db_->ExecuteSql(
      "SELECT nation.n_name FROM nation WHERE nation.n_nationkey = 8");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().rows().size(), 1u);
  EXPECT_EQ(r.value().rows()[0][0].AsString(), "INDIA");
}

// A string literal compared with a DATE reads as a date, on either side
// and in BETWEEN / IN lists: each query must return exactly what its
// DATE '...' form returns (and not the 0 rows or every row that ordering
// by type tag gave).
TEST_F(SqlEquivalenceTest, StringLiteralComparedWithDateReadsAsDate) {
  const std::pair<const char*, const char*> kPairs[] = {
      {"l_shipdate <= '1998-09-02'", "l_shipdate <= DATE '1998-09-02'"},
      {"l_shipdate >= '1995-06-17'", "l_shipdate >= DATE '1995-06-17'"},
      {"'1994-01-01' > l_shipdate", "DATE '1994-01-01' > l_shipdate"},
      {"l_shipdate = '1996-03-13'", "l_shipdate = DATE '1996-03-13'"},
      {"l_shipdate BETWEEN '1994-01-01' AND '1994-12-31'",
       "l_shipdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'"},
      {"l_shipdate IN ('1996-03-13', '1994-01-02', '1997-07-01')",
       "l_shipdate IN (DATE '1996-03-13', DATE '1994-01-02', "
       "DATE '1997-07-01')"},
  };
  const auto count = [this](const std::string& where) -> int64_t {
    auto r = db_->ExecuteSql("SELECT COUNT(*) FROM lineitem WHERE " + where);
    EXPECT_TRUE(r.ok()) << where << ": " << r.status().ToString();
    return r.ok() ? r.value().rows()[0][0].AsInt() : -1;
  };
  const int64_t all = count("l_orderkey >= 0");
  for (const auto& [text, date] : kPairs) {
    const int64_t want = count(date);
    EXPECT_EQ(count(text), want) << text;
    EXPECT_GT(want, 0) << "vacuous comparison for " << date;
    EXPECT_LT(want, all) << "vacuous comparison for " << date;
  }
}

// Pairs of types that cannot be ordered by value are a parse error, not
// an order by type tag.
TEST_F(SqlEquivalenceTest, IncomparableTypesAreParseErrors) {
  const char* kBad[] = {
      "l_quantity < 'abc'",
      "'abc' > l_quantity",
      "l_shipdate <= 'not a date'",
      "l_returnflag = 1",
      "l_comment > l_shipdate",
      "l_quantity BETWEEN 'a' AND 'z'",
      "l_returnflag BETWEEN 1 AND 2",
      "l_orderkey IN (1, 'two')",
      "l_shipmode IN ('AIR', DATE '1995-01-01')",
  };
  for (const char* where : kBad) {
    auto r = db_->ExecuteSql(
        std::string("SELECT COUNT(*) FROM lineitem WHERE ") + where);
    EXPECT_TRUE(r.status().IsParseError())
        << where << ": " << r.status().ToString();
  }
}

// Two columns of one table that equal the same column of another table
// equal each other: the join takes one key per equivalence class, so the
// planner must keep l_linenumber = l_quantity as a lineitem predicate.
TEST_F(SqlEquivalenceTest, TransitiveEqualityWithinOneTableIsKept) {
  const auto count = [this](const char* where) -> int64_t {
    auto r = db_->ExecuteSql(
        std::string("SELECT COUNT(*) FROM lineitem, nation WHERE ") + where);
    EXPECT_TRUE(r.ok()) << where << ": " << r.status().ToString();
    return r.ok() ? r.value().rows()[0][0].AsInt() : -1;
  };
  const int64_t want =
      count("l_linenumber = n_nationkey AND l_linenumber = l_quantity");
  EXPECT_GT(want, 0);
  EXPECT_EQ(count("l_linenumber = n_nationkey AND l_quantity = n_nationkey"),
            want);
}

// The planner orders joins by predicted joules: its plans for the TPC-H
// join queries cost no more simulated joules than the hand-built join
// orders, at the test scale and at the benchmark's.
TEST(SqlPlannerTest, SqlPlansCostNoMoreJoulesThanHandPlans) {
  for (double sf : {testing::kTestSf, 0.05}) {
    auto db = testing::MakeTestDb(EngineProfile::MySqlMemory(), sf);
    ASSERT_NE(db, nullptr);
    const Catalog& c = *db->catalog();
    std::vector<std::pair<std::string, PlanNodePtr>> queries;
    queries.emplace_back(tpch::Q3Sql(tpch::Q3Params{}),
                         testing::HandQ3Plan(c, tpch::Q3Params{}));
    queries.emplace_back(tpch::Q5Sql(tpch::Q5Params{}),
                         testing::HandQ5Plan(c, tpch::Q5Params{}));
    for (const auto& [sql, hand] : queries) {
      SCOPED_TRACE("sf " + std::to_string(sf) + ": " + sql);
      auto s = db->ExecuteSql(sql);
      auto h = db->ExecutePlanQuery(*hand);
      ASSERT_TRUE(s.ok()) << s.status().ToString();
      ASSERT_TRUE(h.ok()) << h.status().ToString();
      EXPECT_LE(s.value().cpu_joules, h.value().cpu_joules * (1 + 1e-9));
      EXPECT_LE(s.value().wall_joules, h.value().wall_joules * (1 + 1e-9));
    }
  }
}

// governor_test's frozen-cycle pins for CancelMidJoin and
// CancelMidLimitedPipeline hold only while this join keeps its shape at
// that test's scale: orders builds, lineitem probes, each input projected
// to the one column the query reads of it, and the output is orders'
// column then lineitem's.
TEST(SqlPlannerTest, OrdersLineitemBuildsOnOrders) {
  auto db = testing::MakeTestDb(EngineProfile::MySqlMemory(), 0.01);
  ASSERT_NE(db, nullptr);
  auto plan = db->PlanSql(
      "SELECT o_orderkey, l_extendedprice FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const PlanNode& project = *plan.value();
  ASSERT_EQ(project.kind, PlanKind::kProject);
  const PlanNode& join = *project.children[0];
  ASSERT_EQ(join.kind, PlanKind::kHashJoin);
  const std::pair<const char*, const char*> kInputs[] = {
      {"orders", "o_orderkey"}, {"lineitem", "l_orderkey, l_extendedprice"}};
  for (size_t i = 0; i < 2; ++i) {
    const PlanNode& input = *join.children[i];
    ASSERT_EQ(input.kind, PlanKind::kProject);
    ASSERT_EQ(input.children[0]->kind, PlanKind::kScan);
    EXPECT_EQ(input.children[0]->table_name, kInputs[i].first);
    EXPECT_EQ(StrJoin(input.names, ", "), kInputs[i].second);
  }
  EXPECT_EQ(join.build_keys, std::vector<int>{0});
  EXPECT_EQ(join.probe_keys, std::vector<int>{0});
  EXPECT_EQ(join.output_schema.ToString(),
            Schema({Field("o_orderkey", ValueType::kInt64),
                    Field("l_orderkey", ValueType::kInt64),
                    Field("l_extendedprice", ValueType::kDouble)})
                .ToString());
}

// SELECT * over a join answers in FROM order, whichever side the join
// builds on: orders builds here, so the join emits orders' columns first,
// and a passthrough projection restores lineitem's, then orders'.
TEST(SqlPlannerTest, SelectStarOverJoinAnswersInFromOrder) {
  auto db = testing::MakeTestDb(EngineProfile::MySqlMemory(), 0.01);
  ASSERT_NE(db, nullptr);
  const std::string sql =
      "SELECT * FROM lineitem, orders WHERE l_orderkey = o_orderkey "
      "AND o_orderkey < 100";
  auto plan = db->PlanSql(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  SCOPED_TRACE(plan.value()->Explain());
  std::vector<std::string> want;
  for (const char* table : {"lineitem", "orders"}) {
    for (const Field& f : db->catalog()->FindTable(table)->schema().fields()) {
      want.push_back(f.name);
    }
  }
  std::vector<std::string> got;
  for (const Field& f : plan.value()->output_schema.fields()) {
    got.push_back(f.name);
  }
  EXPECT_EQ(got, want);
  const PlanNode& join = *plan.value()->children[0];
  ASSERT_EQ(join.kind, PlanKind::kHashJoin);
  EXPECT_EQ(join.output_schema.field(0).name, "o_orderkey");

  auto r = db->ExecuteSql(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r.value().num_rows(), 0u);
  const size_t l_key =
      std::find(want.begin(), want.end(), "l_orderkey") - want.begin();
  const size_t o_key =
      std::find(want.begin(), want.end(), "o_orderkey") - want.begin();
  ASSERT_LT(o_key, want.size());
  for (const Row& row : r.value().rows()) {
    EXPECT_EQ(row[l_key].Compare(row[o_key]), 0);
  }
}

/// Table -> output names of each projection directly over its scan (or
/// over the filters on that scan), anywhere in `node`'s tree.
void CollectProjectedInputs(const PlanNode& node,
                            std::map<std::string, std::string>* out) {
  if (node.kind == PlanKind::kProject) {
    const PlanNode* below = node.children[0].get();
    while (below->kind == PlanKind::kFilter) below = below->children[0].get();
    if (below->kind == PlanKind::kScan) {
      (*out)[below->table_name] = StrJoin(node.names, ", ");
    }
  }
  for (const PlanNodePtr& c : node.children) CollectProjectedInputs(*c, out);
}

// Each join input carries only the columns read above it: Q5's joins
// read 14 of the six tables' 47 columns. Single-table plans and SELECT *
// are not projected at their scans.
TEST(SqlPlannerTest, JoinInputsCarryOnlyTheColumnsReadAboveThem) {
  auto db = testing::MakeTestDb();
  ASSERT_NE(db, nullptr);
  auto q5 = db->PlanSql(tpch::Q5Sql(tpch::Q5Params{}));
  ASSERT_TRUE(q5.ok()) << q5.status().ToString();
  SCOPED_TRACE(q5.value()->Explain());
  std::map<std::string, std::string> inputs;
  CollectProjectedInputs(*q5.value(), &inputs);
  const std::map<std::string, std::string> want = {
      {"customer", "c_custkey, c_nationkey"},
      {"orders", "o_orderkey, o_custkey"},
      {"lineitem", "l_orderkey, l_suppkey, l_extendedprice, l_discount"},
      {"supplier", "s_suppkey, s_nationkey"},
      {"nation", "n_nationkey, n_name, n_regionkey"},
      {"region", "r_regionkey"},
  };
  EXPECT_EQ(inputs, want);

  const std::string kUnprojected[] = {
      tpch::Q1Sql("1998-09-02"), tpch::Q6Sql(tpch::Q6Params{}),
      "SELECT * FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' "
      "ORDER BY l_shipdate DESC, l_orderkey",
      "SELECT * FROM nation, region WHERE n_regionkey = r_regionkey"};
  for (const std::string& sql : kUnprojected) {
    auto plan = db->PlanSql(sql);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    std::map<std::string, std::string> projected;
    CollectProjectedInputs(*plan.value(), &projected);
    EXPECT_TRUE(projected.empty()) << sql << "\n" << plan.value()->Explain();
  }
}

TEST(SqlPlannerTest, MoreTablesThanTheEnumerationTakesIsParseError) {
  auto db = std::make_unique<Database>(DatabaseOptions{});
  tpch::DbGenOptions gen;
  gen.scale_factor = testing::kTestSf;
  gen.include_part_tables = true;
  ASSERT_TRUE(db->LoadTpch(gen).ok());
  // All eight TPC-H tables plan.
  auto eight = db->PlanSql(
      "SELECT COUNT(*) AS n FROM region, nation, supplier, customer, "
      "orders, lineitem, part, partsupp WHERE r_regionkey = n_regionkey "
      "AND n_nationkey = s_nationkey AND c_nationkey = n_nationkey "
      "AND c_custkey = o_custkey AND o_orderkey = l_orderkey "
      "AND l_partkey = ps_partkey AND l_suppkey = ps_suppkey "
      "AND p_partkey = ps_partkey AND s_suppkey = ps_suppkey");
  EXPECT_TRUE(eight.ok()) << eight.status().ToString();
  auto nine = db->PlanSql(
      "SELECT COUNT(*) AS n FROM region, nation, supplier, customer, "
      "orders, lineitem, part, partsupp, nation");
  EXPECT_TRUE(nine.status().IsParseError()) << nine.status().ToString();
}

}  // namespace
}  // namespace ecodb
