// Planner property test: the cost-based join order changes which plan
// runs, never the answer.
//
// Each case draws a random connected join graph of 2-6 TPC-H tables over
// the foreign-key edges (SF 0.002, part tables included), adds random
// local predicates, and sometimes a redundant transitive edge (like Q5's
// c_nationkey = s_nationkey next to both nation-key edges) or a small
// table with no join edge at all, which only a cross product can join.
// The SQL answer must equal, as a multiset, what the tests-only reference
// evaluator (tests/reference_eval.h) returns for a plan the test builds
// itself, joining in FROM order on every stated equality.
//
// Each case then checks a variant of its query, drawn from a second
// stream of the same seed (so the first query of every seed stays as it
// was): a cross-table non-equi residual on columns nothing else reads,
// and a GROUP BY with SUM and COUNT(*), SELECT * or the same columns as
// output. Those are what the planner's column pruning must keep: a
// residual's columns and an aggregate's argument are read above the join
// inputs and nowhere else, and SELECT * keeps every column.
//
// Each case is derived from its own seed, printed in every assertion
// message; ECODB_FUZZ_SEED sets the seed base and ECODB_FUZZ_PLANS the
// number of cases (default 64).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "ecodb/ecodb.h"
#include "reference_eval.h"

namespace ecodb {
namespace {

/// column_a = column_b, with column_a in table_a.
struct FkEdge {
  const char* table_a;
  const char* column_a;
  const char* table_b;
  const char* column_b;
};

constexpr FkEdge kFkEdges[] = {
    {"nation", "n_regionkey", "region", "r_regionkey"},
    {"supplier", "s_nationkey", "nation", "n_nationkey"},
    {"customer", "c_nationkey", "nation", "n_nationkey"},
    {"orders", "o_custkey", "customer", "c_custkey"},
    {"lineitem", "l_orderkey", "orders", "o_orderkey"},
    {"lineitem", "l_partkey", "part", "p_partkey"},
    {"lineitem", "l_suppkey", "supplier", "s_suppkey"},
    {"partsupp", "ps_partkey", "part", "p_partkey"},
    {"partsupp", "ps_suppkey", "supplier", "s_suppkey"},
    {"lineitem", "l_partkey", "partsupp", "ps_partkey"},
    {"lineitem", "l_suppkey", "partsupp", "ps_suppkey"},
};

/// Low-cardinality or ordered columns that local predicates compare.
struct PredColumn {
  const char* table;
  const char* column;
};

constexpr PredColumn kPredColumns[] = {
    {"region", "r_name"},          {"nation", "n_name"},
    {"nation", "n_regionkey"},     {"supplier", "s_nationkey"},
    {"customer", "c_mktsegment"},  {"customer", "c_nationkey"},
    {"orders", "o_orderdate"},     {"orders", "o_orderpriority"},
    {"orders", "o_orderstatus"},   {"lineitem", "l_quantity"},
    {"lineitem", "l_shipdate"},    {"lineitem", "l_shipmode"},
    {"lineitem", "l_returnflag"},  {"part", "p_size"},
    {"part", "p_brand"},           {"part", "p_container"},
    {"partsupp", "ps_availqty"},
};

/// Non-key double columns, which residuals compare across tables.
constexpr PredColumn kResidualColumns[] = {
    {"supplier", "s_acctbal"},        {"customer", "c_acctbal"},
    {"orders", "o_totalprice"},       {"lineitem", "l_extendedprice"},
    {"part", "p_retailprice"},        {"partsupp", "ps_supplycost"},
};

struct Equality {
  std::string table_a, column_a, table_b, column_b;
};

/// column_a op column_b, the columns in different tables.
struct Residual {
  std::string column_a;
  CompareOp op;
  std::string column_b;
};

struct LocalPredicate {
  std::string table, column;
  CompareOp op;
  Value literal;
};

struct Query {
  std::vector<std::string> from;  ///< connected order, then any extra table
  std::vector<Equality> equalities;
  std::vector<LocalPredicate> predicates;
  std::vector<Residual> residuals;
  /// Output columns; with `sum_column` set, the GROUP BY keys.
  std::vector<std::string> select;
  bool star = false;  ///< SELECT * instead of `select`
  /// Non-empty: GROUP BY `select` with SUM(sum_column) and COUNT(*).
  std::string sum_column;

  std::string Sql() const {
    std::string sql = "SELECT ";
    for (size_t i = 0; i < select.size() && !star; ++i) {
      sql += (i ? ", " : "") + select[i];
    }
    if (star) sql += "*";
    if (!sum_column.empty()) {
      sql += ", SUM(" + sum_column + ") AS s, COUNT(*) AS n";
    }
    sql += " FROM ";
    for (size_t i = 0; i < from.size(); ++i) {
      sql += (i ? ", " : "") + from[i];
    }
    std::vector<std::string> conjuncts;
    for (const Equality& e : equalities) {
      conjuncts.push_back(e.column_a + " = " + e.column_b);
    }
    for (const LocalPredicate& p : predicates) {
      std::string lit = p.literal.ToString();
      if (p.literal.type() == ValueType::kString) lit = "'" + lit + "'";
      if (p.literal.type() == ValueType::kDate) lit = "DATE '" + lit + "'";
      conjuncts.push_back(p.column + " " + ToString(p.op) + " " + lit);
    }
    for (const Residual& r : residuals) {
      conjuncts.push_back(r.column_a + " " + ToString(r.op) + " " +
                          r.column_b);
    }
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      sql += (i ? " AND " : " WHERE ") + conjuncts[i];
    }
    for (size_t i = 0; i < select.size() && !sum_column.empty(); ++i) {
      sql += (i ? ", " : " GROUP BY ") + select[i];
    }
    return sql;
  }
};

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

std::vector<std::string> SortedRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(RowToString(r));
  std::sort(out.begin(), out.end());
  return out;
}

class PlannerPropertyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database(DatabaseOptions{});
    tpch::DbGenOptions gen;
    gen.scale_factor = 0.002;
    gen.include_part_tables = true;
    ASSERT_TRUE(db_->LoadTpch(gen).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  const Table& TableOf(const std::string& name) const {
    return *db_->catalog()->FindTable(name);
  }

  Query Draw(std::mt19937_64* rng) const {
    auto below = [&](size_t n) { return static_cast<size_t>((*rng)() % n); };
    Query q;
    // A connected graph: grow from one table along random FK edges.
    const size_t want = 2 + below(5);
    q.from.push_back(kFkEdges[below(std::size(kFkEdges))].table_a);
    while (q.from.size() < want) {
      std::vector<const FkEdge*> frontier;
      for (const FkEdge& e : kFkEdges) {
        if (Contains(q.from, e.table_a) != Contains(q.from, e.table_b)) {
          frontier.push_back(&e);
        }
      }
      if (frontier.empty()) break;
      const FkEdge& e = *frontier[below(frontier.size())];
      q.from.push_back(Contains(q.from, e.table_a) ? e.table_b : e.table_a);
    }
    // Every FK edge inside the set (cycles such as lineitem-partsupp
    // next to lineitem-part-partsupp included).
    for (const FkEdge& e : kFkEdges) {
      if (Contains(q.from, e.table_a) && Contains(q.from, e.table_b)) {
        q.equalities.push_back(
            {e.table_a, e.column_a, e.table_b, e.column_b});
      }
    }
    // A redundant transitive edge between two columns one key links.
    if (below(3) == 0) {
      const size_t n = q.equalities.size();
      for (size_t i = 0; i < n * n; ++i) {
        const Equality x = q.equalities[i / n];
        const Equality y = q.equalities[i % n];
        if (x.column_b == y.column_b && x.table_a != y.table_a) {
          q.equalities.push_back(
              {x.table_a, x.column_a, y.table_a, y.column_a});
          break;
        }
      }
    }
    // A small table no equality reaches: only a cross product joins it.
    if (below(4) == 0) {
      for (const char* t : {"region", "nation"}) {
        if (!Contains(q.from, t)) {
          q.from.push_back(t);
          q.predicates.push_back(
              {t, t[0] == 'r' ? "r_regionkey" : "n_nationkey",
               CompareOp::kLt, Value::Int(static_cast<int64_t>(1 + below(3)))});
          break;
        }
      }
    }
    // Local predicates with literals sampled from the data.
    const size_t n_preds = below(4);
    for (size_t i = 0; i < n_preds; ++i) {
      std::vector<const PredColumn*> usable;
      for (const PredColumn& c : kPredColumns) {
        if (Contains(q.from, c.table)) usable.push_back(&c);
      }
      if (usable.empty()) break;
      const PredColumn& c = *usable[below(usable.size())];
      const Table& t = TableOf(c.table);
      const int col = t.schema().FindField(c.column);
      const Value v = t.GetValue(below(t.num_rows()), col);
      static constexpr CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                           CompareOp::kLt, CompareOp::kGe};
      q.predicates.push_back({c.table, c.column, kOps[below(4)], v});
    }
    // A few output columns from any of the tables.
    const size_t n_select = 1 + below(3);
    for (size_t i = 0; i < n_select; ++i) {
      const Schema& s = TableOf(q.from[below(q.from.size())]).schema();
      q.select.push_back(s.field(static_cast<int>(below(
          static_cast<size_t>(s.num_fields())))).name);
    }
    return q;
  }

  /// The variant of `base` a case checks second: a residual (always when
  /// the output stays `base`'s columns) and one of three outputs.
  Query DrawVariant(const Query& base, std::mt19937_64* rng) const {
    auto below = [&](size_t n) { return static_cast<size_t>((*rng)() % n); };
    Query q = base;
    const size_t shape = below(3);
    if (shape == 0) {
      q.star = true;
    } else if (shape == 1) {
      // Distinct keys; an integer sum is exact in any row order.
      std::vector<std::string> keys;
      for (const std::string& c : q.select) {
        if (!Contains(keys, c)) keys.push_back(c);
      }
      q.select = keys;
      std::vector<std::string> ints;
      for (const std::string& t : q.from) {
        for (const Field& f : TableOf(t).schema().fields()) {
          if (f.type == ValueType::kInt64) ints.push_back(f.name);
        }
      }
      q.sum_column = ints[below(ints.size())];
    }
    if (shape == 2 || below(2) == 0) {
      std::vector<const PredColumn*> usable;
      for (const PredColumn& c : kResidualColumns) {
        if (Contains(q.from, c.table) && !Contains(q.select, c.column)) {
          usable.push_back(&c);
        }
      }
      for (size_t tries = 0; tries < 4 && usable.size() > 1; ++tries) {
        const PredColumn* a = usable[below(usable.size())];
        const PredColumn* b = usable[below(usable.size())];
        if (std::string(a->table) == b->table) continue;
        q.residuals.push_back(
            {a->column, below(2) ? CompareOp::kLt : CompareOp::kGe,
             b->column});
        break;
      }
    }
    return q;
  }

  /// Joins in FROM order: each table on every equality to the tables
  /// before it (hash join, the plan so far building), else a cross product;
  /// local predicates filter each scan, residuals the join. SELECT * is
  /// projected to `star_order`, the planner's output column order.
  PlanNodePtr ReferencePlan(const Query& q,
                            const std::vector<std::string>& star_order) const {
    PlanNodePtr plan;
    std::vector<std::string> joined;
    for (const std::string& table : q.from) {
      PlanNodePtr input = MakeScan(*db_->catalog(), table).value();
      std::vector<ExprPtr> preds;
      for (const LocalPredicate& p : q.predicates) {
        if (p.table != table) continue;
        const int c = input->output_schema.FindField(p.column);
        const ValueType type = input->output_schema.field(c).type;
        preds.push_back(Cmp(p.op, Col(c, type, p.column), Lit(p.literal)));
      }
      if (!preds.empty()) input = MakeFilter(std::move(input), And(preds));
      if (plan == nullptr) {
        plan = std::move(input);
        joined.push_back(table);
        continue;
      }
      std::vector<int> plan_keys, input_keys;
      for (const Equality& e : q.equalities) {
        std::string mine, other, other_table;
        if (e.table_a == table) {
          mine = e.column_a;
          other = e.column_b;
          other_table = e.table_b;
        } else if (e.table_b == table) {
          mine = e.column_b;
          other = e.column_a;
          other_table = e.table_a;
        } else {
          continue;
        }
        if (!Contains(joined, other_table)) continue;
        plan_keys.push_back(plan->output_schema.FindField(other));
        input_keys.push_back(input->output_schema.FindField(mine));
      }
      plan = plan_keys.empty()
                 ? MakeNestedLoopJoin(std::move(plan), std::move(input),
                                      nullptr)
                 : MakeHashJoin(std::move(plan), std::move(input), plan_keys,
                                input_keys);
      joined.push_back(table);
    }
    const Schema& joined_schema = plan->output_schema;
    auto col = [&](const std::string& name) {
      const int c = joined_schema.FindField(name);
      return Col(c, joined_schema.field(c).type, name);
    };
    std::vector<ExprPtr> residuals;
    for (const Residual& r : q.residuals) {
      residuals.push_back(Cmp(r.op, col(r.column_a), col(r.column_b)));
    }
    if (!residuals.empty()) {
      plan = MakeFilter(std::move(plan), And(std::move(residuals)));
    }
    std::vector<ExprPtr> exprs;
    for (const std::string& name : q.select) exprs.push_back(col(name));
    if (!q.sum_column.empty()) {
      std::vector<AggSpec> aggs(2);
      aggs[0] = {AggSpec::Kind::kSum, col(q.sum_column), "s"};
      aggs[1] = {AggSpec::Kind::kCount, nullptr, "n"};
      return MakeAggregate(std::move(plan), std::move(exprs),
                           std::move(aggs));
    }
    if (q.star) {
      exprs.clear();
      for (const std::string& name : star_order) exprs.push_back(col(name));
      return MakeProject(std::move(plan), std::move(exprs), star_order);
    }
    return MakeProject(std::move(plan), std::move(exprs), q.select);
  }

  /// Plans `q` from SQL and checks its answer against the reference plan.
  void CheckAnswer(const Query& q, size_t* non_empty) const {
    const std::string sql = q.Sql();
    SCOPED_TRACE(sql);
    auto plan = db_->PlanSql(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    SCOPED_TRACE("plan:\n" + plan.value()->Explain());
    auto got = db_->ExecutePlanQuery(*plan.value());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::vector<std::string> star_order;
    for (const Field& f : plan.value()->output_schema.fields()) {
      star_order.push_back(f.name);
    }
    const PlanNodePtr ref = ReferencePlan(q, star_order);
    const std::vector<std::string> want =
        SortedRows(testing::ReferenceEvaluate(*ref, *db_->catalog()));
    ASSERT_EQ(SortedRows(got.value().rows()), want);
    *non_empty += !want.empty();
  }

  static Database* db_;
};

Database* PlannerPropertyTest::db_ = nullptr;

TEST_F(PlannerPropertyTest, CostBasedJoinOrderKeepsTheAnswer) {
  uint64_t base_seed = 0x51A7;
  size_t n_cases = 64;
  if (const char* s = std::getenv("ECODB_FUZZ_SEED")) {
    base_seed = std::strtoull(s, nullptr, 0);
  }
  if (const char* s = std::getenv("ECODB_FUZZ_PLANS")) {
    n_cases = std::strtoull(s, nullptr, 0);
  }
  size_t non_empty = 0, multi_join = 0, variant_rows = 0;
  size_t residuals = 0, grouped = 0, stars = 0;
  for (size_t i = 0; i < n_cases; ++i) {
    const uint64_t seed = base_seed + i;
    SCOPED_TRACE("seed " + std::to_string(seed) + " (rerun with "
                 "ECODB_FUZZ_SEED=" + std::to_string(seed) +
                 " ECODB_FUZZ_PLANS=1)");
    std::mt19937_64 rng(seed);
    const Query q = Draw(&rng);
    CheckAnswer(q, &non_empty);
    if (HasFatalFailure()) return;
    multi_join += q.from.size() > 2;

    std::mt19937_64 variant_rng(seed ^ 0x7A41A47Eull);
    const Query v = DrawVariant(q, &variant_rng);
    CheckAnswer(v, &variant_rows);
    if (HasFatalFailure()) return;
    residuals += !v.residuals.empty();
    grouped += !v.sum_column.empty();
    stars += v.star;
  }
  // The draw is not vacuous: most answers have rows, most graphs several
  // joins, and every kind of variant is drawn.
  if (n_cases >= 32) {
    EXPECT_GT(non_empty, n_cases / 2);
    EXPECT_GT(variant_rows, n_cases / 2);
    EXPECT_GT(multi_join, n_cases / 2);
    EXPECT_GT(residuals, n_cases / 4);
    EXPECT_GT(grouped, n_cases / 8);
    EXPECT_GT(stars, n_cases / 8);
  }
}

}  // namespace
}  // namespace ecodb
