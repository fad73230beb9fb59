// Hand-built TPC-H Q3 and Q5 plans, for tests that need fixed join orders
// to set against the SQL planner's: the cost model's join-order ranking
// and the planner's "no more joules than the hand order" check. Each
// plan joins its tables whole (no column pruning), in the order a
// textbook optimizer would pick.

#ifndef ECODB_TESTS_HAND_PLANS_H_
#define ECODB_TESTS_HAND_PLANS_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ecodb/ecodb.h"

namespace ecodb::testing {

inline PlanNodePtr ScanOf(const Catalog& catalog, const std::string& table) {
  auto scan = MakeScan(catalog, table);
  EXPECT_TRUE(scan.ok()) << table;
  return std::move(scan).value();
}

/// Column reference into a plan node's output schema, by name.
inline ExprPtr ColOf(const PlanNode& node, const std::string& name) {
  const int i = node.output_schema.FindField(name);
  EXPECT_GE(i, 0) << name;
  return Col(i, node.output_schema.field(i).type, name);
}

/// Hash join on (build column, probe column) name pairs.
inline PlanNodePtr JoinOn(
    PlanNodePtr build, PlanNodePtr probe,
    const std::vector<std::pair<std::string, std::string>>& keys) {
  std::vector<int> build_keys, probe_keys;
  for (const auto& [b, p] : keys) {
    build_keys.push_back(build->output_schema.FindField(b));
    probe_keys.push_back(probe->output_schema.FindField(p));
  }
  return MakeHashJoin(std::move(build), std::move(probe), build_keys,
                      probe_keys);
}

/// SUM(l_extendedprice * (1 - l_discount)) AS revenue over `node`.
inline AggSpec RevenueOf(const PlanNode& node) {
  AggSpec revenue;
  revenue.kind = AggSpec::Kind::kSum;
  revenue.arg =
      Arith(ArithOp::kMul, ColOf(node, "l_extendedprice"),
            Arith(ArithOp::kSub, LitDbl(1.0), ColOf(node, "l_discount")));
  revenue.name = "revenue";
  return revenue;
}

/// Q5: region(r_name) builds for nation, then customer, orders (date
/// window) and lineitem probe in turn; supplier builds for the last join
/// on (l_suppkey, n_nationkey). Group by n_name, sort by revenue.
inline PlanNodePtr HandQ5Plan(const Catalog& catalog,
                              const tpch::Q5Params& p) {
  PlanNodePtr region = ScanOf(catalog, "region");
  ExprPtr r_name = ColOf(*region, "r_name");
  PlanNodePtr j =
      JoinOn(MakeFilter(std::move(region), Eq(r_name, LitStr(p.region))),
             ScanOf(catalog, "nation"), {{"r_regionkey", "n_regionkey"}});
  j = JoinOn(std::move(j), ScanOf(catalog, "customer"),
             {{"n_nationkey", "c_nationkey"}});
  PlanNodePtr orders = ScanOf(catalog, "orders");
  ExprPtr date = ColOf(*orders, "o_orderdate");
  j = JoinOn(std::move(j),
             MakeFilter(std::move(orders),
                        And({Cmp(CompareOp::kGe, date, LitDate(p.date_lo)),
                             Cmp(CompareOp::kLt, date, LitDate(p.date_hi))})),
             {{"c_custkey", "o_custkey"}});
  j = JoinOn(std::move(j), ScanOf(catalog, "lineitem"),
             {{"o_orderkey", "l_orderkey"}});
  j = JoinOn(ScanOf(catalog, "supplier"), std::move(j),
             {{"s_suppkey", "l_suppkey"}, {"s_nationkey", "n_nationkey"}});
  ExprPtr n_name = ColOf(*j, "n_name");
  AggSpec revenue = RevenueOf(*j);
  PlanNodePtr agg = MakeAggregate(std::move(j), {n_name}, {revenue});
  ExprPtr rev = ColOf(*agg, "revenue");
  PlanNodePtr sorted = MakeSort(std::move(agg), {SortKey{rev, false}});
  ExprPtr name_out = ColOf(*sorted, "group_0");
  ExprPtr rev_out = ColOf(*sorted, "revenue");
  return MakeProject(std::move(sorted), {name_out, rev_out},
                     {"n_name", "revenue"});
}

/// Q3: customer(segment) builds for orders (date), which builds for
/// lineitem (ship date). Group by order, top 10 by revenue.
inline PlanNodePtr HandQ3Plan(const Catalog& catalog,
                              const tpch::Q3Params& p) {
  PlanNodePtr customer = ScanOf(catalog, "customer");
  ExprPtr seg = ColOf(*customer, "c_mktsegment");
  PlanNodePtr orders = ScanOf(catalog, "orders");
  ExprPtr odate = ColOf(*orders, "o_orderdate");
  PlanNodePtr j = JoinOn(
      MakeFilter(std::move(customer), Eq(seg, LitStr(p.segment))),
      MakeFilter(std::move(orders),
                 Cmp(CompareOp::kLt, odate, LitDate(p.date))),
      {{"c_custkey", "o_custkey"}});
  PlanNodePtr lineitem = ScanOf(catalog, "lineitem");
  ExprPtr sdate = ColOf(*lineitem, "l_shipdate");
  j = JoinOn(std::move(j),
             MakeFilter(std::move(lineitem),
                        Cmp(CompareOp::kGt, sdate, LitDate(p.date))),
             {{"o_orderkey", "l_orderkey"}});
  std::vector<ExprPtr> groups = {ColOf(*j, "o_orderkey"),
                                 ColOf(*j, "o_orderdate"),
                                 ColOf(*j, "o_shippriority")};
  AggSpec revenue = RevenueOf(*j);
  PlanNodePtr agg = MakeAggregate(std::move(j), groups, {revenue});
  ExprPtr rev = ColOf(*agg, "revenue");
  ExprPtr gdate = ColOf(*agg, "group_1");
  return MakeLimit(
      MakeSort(std::move(agg), {SortKey{rev, false}, SortKey{gdate, true}}),
      10);
}

}  // namespace ecodb::testing

#endif  // ECODB_TESTS_HAND_PLANS_H_
