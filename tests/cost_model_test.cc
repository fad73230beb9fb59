#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "ecodb/optimizer/cost_model.h"
#include "ecodb/tpch/queries.h"
#include "hand_plans.h"
#include "test_util.h"

namespace ecodb {
namespace {

/// The boxed computation ComputeTableStats replaced: every sampled cell
/// through Column::GetValue, distinct Value hashes in a set.
TableStats BoxedTableStats(const Table& table) {
  constexpr size_t kSampleCap = 200000;
  TableStats stats;
  stats.rows = static_cast<double>(table.num_rows());
  size_t n = std::min(table.num_rows(), kSampleCap);
  double scale =
      n > 0 ? static_cast<double>(table.num_rows()) / static_cast<double>(n)
            : 1.0;
  for (int c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    ColumnStats cs;
    std::unordered_set<size_t> distinct;
    bool first = true;
    for (size_t r = 0; r < n; ++r) {
      Value v = col.GetValue(r);
      distinct.insert(v.Hash());
      if (v.type() != ValueType::kString && !v.is_null()) {
        cs.numeric = true;
        double d = v.AsDouble();
        if (first) {
          cs.min = cs.max = d;
          first = false;
        } else {
          cs.min = std::min(cs.min, d);
          cs.max = std::max(cs.max, d);
        }
      }
    }
    double d = static_cast<double>(distinct.size());
    if (n > 0 && d > 0.9 * static_cast<double>(n)) {
      cs.ndv = d * scale;
    } else {
      cs.ndv = std::max(1.0, d);
    }
    stats.columns.push_back(cs);
  }
  return stats;
}

void ExpectStatsMatchBoxed(const Table& table) {
  SCOPED_TRACE(table.name());
  const TableStats want = BoxedTableStats(table);
  const TableStats got = ComputeTableStats(table);
  EXPECT_EQ(got.rows, want.rows);
  ASSERT_EQ(got.columns.size(), want.columns.size());
  for (size_t c = 0; c < got.columns.size(); ++c) {
    SCOPED_TRACE(table.schema().field(static_cast<int>(c)).name);
    EXPECT_EQ(got.columns[c].ndv, want.columns[c].ndv);
    EXPECT_EQ(got.columns[c].min, want.columns[c].min);
    EXPECT_EQ(got.columns[c].max, want.columns[c].max);
    EXPECT_EQ(got.columns[c].numeric, want.columns[c].numeric);
  }
}

using testing::ColOf;
using testing::JoinOn;
using testing::RevenueOf;
using testing::ScanOf;

/// Q5 joining the two largest tables first and applying the region
/// filter last, so the whole year's lineitems flow through every join.
PlanNodePtr BadOrderQ5(const Catalog& catalog) {
  const tpch::Q5Params p;
  PlanNodePtr orders = ScanOf(catalog, "orders");
  ExprPtr date = ColOf(*orders, "o_orderdate");
  PlanNodePtr j = JoinOn(
      MakeFilter(std::move(orders),
                 And({Cmp(CompareOp::kGe, date, LitDate(p.date_lo)),
                      Cmp(CompareOp::kLt, date, LitDate(p.date_hi))})),
      ScanOf(catalog, "lineitem"), {{"o_orderkey", "l_orderkey"}});
  j = JoinOn(ScanOf(catalog, "customer"), std::move(j),
             {{"c_custkey", "o_custkey"}});
  j = JoinOn(ScanOf(catalog, "supplier"), std::move(j),
             {{"s_suppkey", "l_suppkey"}, {"s_nationkey", "c_nationkey"}});
  j = JoinOn(ScanOf(catalog, "nation"), std::move(j),
             {{"n_nationkey", "s_nationkey"}});
  PlanNodePtr region = ScanOf(catalog, "region");
  ExprPtr r_name = ColOf(*region, "r_name");
  j = JoinOn(MakeFilter(std::move(region), Eq(r_name, LitStr(p.region))),
             std::move(j), {{"r_regionkey", "n_regionkey"}});
  AggSpec revenue = RevenueOf(*j);
  ExprPtr n_name = ColOf(*j, "n_name");
  PlanNodePtr agg = MakeAggregate(std::move(j), {n_name}, {revenue});
  ExprPtr rev = ColOf(*agg, "revenue");
  return MakeSort(std::move(agg), {SortKey{rev, false}});
}

/// Q3 building its first hash table on lineitem, the larger side.
PlanNodePtr BadOrderQ3(const Catalog& catalog) {
  const tpch::Q3Params p;
  PlanNodePtr orders = ScanOf(catalog, "orders");
  ExprPtr odate = ColOf(*orders, "o_orderdate");
  PlanNodePtr lineitem = ScanOf(catalog, "lineitem");
  ExprPtr sdate = ColOf(*lineitem, "l_shipdate");
  PlanNodePtr lo = JoinOn(
      MakeFilter(std::move(lineitem),
                 Cmp(CompareOp::kGt, sdate, LitDate(p.date))),
      MakeFilter(std::move(orders),
                 Cmp(CompareOp::kLt, odate, LitDate(p.date))),
      {{"l_orderkey", "o_orderkey"}});
  PlanNodePtr customer = ScanOf(catalog, "customer");
  ExprPtr seg = ColOf(*customer, "c_mktsegment");
  PlanNodePtr j = JoinOn(
      MakeFilter(std::move(customer), Eq(seg, LitStr(p.segment))),
      std::move(lo), {{"c_custkey", "o_custkey"}});
  AggSpec revenue = RevenueOf(*j);
  std::vector<ExprPtr> groups = {ColOf(*j, "o_orderkey"),
                                 ColOf(*j, "o_orderdate"),
                                 ColOf(*j, "o_shippriority")};
  PlanNodePtr agg = MakeAggregate(std::move(j), groups, {revenue});
  ExprPtr rev = ColOf(*agg, "revenue");
  ExprPtr gdate = ColOf(*agg, "group_1");
  return MakeLimit(
      MakeSort(std::move(agg), {SortKey{rev, false}, SortKey{gdate, true}}),
      10);
}

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing::MakeTestDb(EngineProfile::MySqlMemory(), 0.005);
    ASSERT_NE(db_, nullptr);
    model_ = std::make_unique<CostModel>(db_->catalog(), &db_->profile(),
                                         db_->options().machine);
  }
  std::unique_ptr<Database> db_;
  std::unique_ptr<CostModel> model_;
};

TEST_F(CostModelTest, TypedStatsMatchBoxedComputation) {
  for (const std::string& name : db_->catalog()->TableNames()) {
    ExpectStatsMatchBoxed(*db_->catalog()->FindTable(name));
  }
  // Past the sample cap: extrapolated key NDVs, sampled min/max, and a
  // string column that outgrew its dictionary.
  Catalog catalog;
  Table* big = testing::MakeSimpleTable(&catalog, "big", 250000, 5000);
  ASSERT_NE(big, nullptr);
  ASSERT_FALSE(big->column(2).dict_encoded());
  ExpectStatsMatchBoxed(*big);
}

TEST_F(CostModelTest, TableStatsCountNdvAndRange) {
  const TableStats* li = model_->GetTableStats("lineitem");
  ASSERT_NE(li, nullptr);
  EXPECT_EQ(li->rows, db_->catalog()->FindTable("lineitem")->num_rows());
  int qty = db_->catalog()->FindTable("lineitem")->schema().FindField(
      "l_quantity");
  const ColumnStats& cs = li->columns[static_cast<size_t>(qty)];
  EXPECT_NEAR(cs.ndv, 50.0, 1.0);
  EXPECT_DOUBLE_EQ(cs.min, 1.0);
  EXPECT_DOUBLE_EQ(cs.max, 50.0);
}

TEST_F(CostModelTest, EqualityOnQuantityEstimatesTwoPercent) {
  auto plan = db_->PlanSql(tpch::SelectionSql(24));
  ASSERT_TRUE(plan.ok());
  auto cost = model_->Estimate(*plan.value(), SystemSettings::Stock());
  ASSERT_TRUE(cost.ok());
  double rows = db_->catalog()->FindTable("lineitem")->num_rows();
  EXPECT_NEAR(cost.value().est_rows / (0.02 * rows), 1.0, 0.15);
}

TEST_F(CostModelTest, TimePredictionTracksMeasurement) {
  auto plan = db_->PlanSql(tpch::SelectionSql(24));
  ASSERT_TRUE(plan.ok());
  auto cost = model_->Estimate(*plan.value(), SystemSettings::Stock());
  ASSERT_TRUE(cost.ok());
  auto measured = db_->ExecutePlanQuery(*plan.value());
  ASSERT_TRUE(measured.ok());
  EXPECT_NEAR(cost.value().est_seconds / measured.value().seconds, 1.0, 0.35);
  EXPECT_NEAR(cost.value().est_cpu_joules / measured.value().cpu_joules, 1.0,
              0.35);
}

TEST_F(CostModelTest, Q5PredictionWithinFactorTwo) {
  // Join cardinalities come from key NDVs traced to base columns; the
  // prediction must stay within 25% of the measurement.
  auto plan = db_->PlanSql(tpch::Q5Sql(tpch::Q5Params{}));
  ASSERT_TRUE(plan.ok());
  auto cost = model_->Estimate(*plan.value(), SystemSettings::Stock());
  ASSERT_TRUE(cost.ok());
  auto measured = db_->ExecutePlanQuery(*plan.value());
  ASSERT_TRUE(measured.ok());
  double ratio = cost.value().est_seconds / measured.value().seconds;
  EXPECT_GT(ratio, 1.0 / 1.25) << cost.value().est_seconds << " vs "
                               << measured.value().seconds;
  EXPECT_LT(ratio, 1.25);
}

// The model prices a Sort with the executor's charge formula: fed the
// sort's actual input rows, its estimated sort cycles equal the charged
// ones, for a large ORDER BY and the small sorts over Q1/Q3/Q5's groups.
TEST_F(CostModelTest, SortEstimateEqualsExecutorCharge) {
  const double cycles_per_compare = db_->profile().sort_compare_cycles;
  for (const std::string& sql :
       {std::string("SELECT * FROM lineitem WHERE l_quantity < 20 "
                    "ORDER BY l_shipdate DESC, l_orderkey"),
        tpch::Q1Sql("1998-09-02"), tpch::Q3Sql(tpch::Q3Params{}),
        tpch::Q5Sql(tpch::Q5Params{})}) {
    SCOPED_TRACE(sql);
    auto plan = db_->PlanSql(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const PlanNode* sort = plan.value().get();
    while (sort->kind != PlanKind::kSort) {
      ASSERT_FALSE(sort->children.empty());
      sort = sort->children[0].get();
    }
    auto input = db_->ExecutePlanQuery(*sort->children[0]);
    ASSERT_TRUE(input.ok()) << input.status().ToString();
    auto run = db_->ExecutePlanQuery(*plan.value());
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    CostModel::NodeEstimate fed;
    fed.rows = static_cast<double>(input.value().result.num_rows());
    const double est_sort_cycles = model_->EstimateSort(fed).cycles;
    const uint64_t charged = run.value().exec_stats.sort_compares;
    EXPECT_GT(charged, 0u);
    EXPECT_EQ(est_sort_cycles,
              static_cast<double>(charged) * cycles_per_compare);
  }
}

// For each query, every pair of plans must be predicted in the order the
// simulator measures them. Plans that measure within 1% of each other are
// one plan to the model too: their predictions must lie within 1%.
TEST_F(CostModelTest, JoinOrderRankingMatchesMeasurement) {
  const Catalog& catalog = *db_->catalog();
  struct Candidate {
    const char* name;
    PlanNodePtr plan;
  };
  struct Query {
    const char* name;
    std::vector<Candidate> plans;
  };
  std::vector<Query> queries(2);
  queries[0].name = "q3";
  queries[0].plans.push_back(
      {"sql", db_->PlanSql(tpch::Q3Sql(tpch::Q3Params{})).value()});
  queries[0].plans.push_back(
      {"hand", testing::HandQ3Plan(catalog, tpch::Q3Params{})});
  queries[0].plans.push_back({"bad_order", BadOrderQ3(catalog)});
  queries[1].name = "q5";
  queries[1].plans.push_back(
      {"sql", db_->PlanSql(tpch::Q5Sql(tpch::Q5Params{})).value()});
  queries[1].plans.push_back(
      {"hand", testing::HandQ5Plan(catalog, tpch::Q5Params{})});
  queries[1].plans.push_back({"bad_order", BadOrderQ5(catalog)});
  for (const Query& q : queries) {
    std::vector<double> predicted, measured;
    for (const Candidate& c : q.plans) {
      auto cost = model_->Estimate(*c.plan, SystemSettings::Stock());
      ASSERT_TRUE(cost.ok()) << cost.status().ToString();
      auto m = db_->ExecutePlanQuery(*c.plan);
      ASSERT_TRUE(m.ok()) << m.status().ToString();
      predicted.push_back(cost.value().est_cpu_joules);
      measured.push_back(m.value().cpu_joules);
      const double error = predicted.back() / measured.back() - 1.0;
      const std::string key = std::string(q.name) + "_" + c.name;
      RecordProperty(key + "_cpu_j_error_pct", std::to_string(100.0 * error));
      std::printf("%-14s predicted %.4f J, measured %.4f J, error %+.1f%%\n",
                  key.c_str(), predicted.back(), measured.back(),
                  100.0 * error);
    }
    for (size_t i = 0; i < predicted.size(); ++i) {
      for (size_t j = i + 1; j < predicted.size(); ++j) {
        SCOPED_TRACE(std::string(q.name) + ": " + q.plans[i].name + " vs " +
                     q.plans[j].name);
        auto rel = [](double a, double b) {
          return std::fabs(a - b) / std::max(a, b);
        };
        if (rel(measured[i], measured[j]) < 0.01) {
          EXPECT_LT(rel(predicted[i], predicted[j]), 0.01);
        } else {
          EXPECT_EQ(predicted[i] < predicted[j], measured[i] < measured[j]);
        }
      }
    }
  }
}

TEST_F(CostModelTest, PredictsEnergySavingsUnderDowngrade) {
  // The energy-aware optimizer hook: predicted joules must fall when a
  // voltage downgrade is applied, with roughly the V^2 scaling.
  auto plan = db_->PlanSql(tpch::SelectionSql(10));
  ASSERT_TRUE(plan.ok());
  auto stock = model_->Estimate(*plan.value(), SystemSettings::Stock());
  auto eco = model_->Estimate(*plan.value(),
                              {0.05, VoltageDowngrade::kMedium});
  ASSERT_TRUE(stock.ok());
  ASSERT_TRUE(eco.ok());
  EXPECT_LT(eco.value().est_cpu_joules, stock.value().est_cpu_joules);
  EXPECT_GT(eco.value().est_seconds, stock.value().est_seconds);
}

TEST_F(CostModelTest, RankingAcrossOperatingPointsMatchesSimulation) {
  // What the policy layer needs: predicted EDP ordering across settings
  // must match the simulated ordering.
  auto plan = db_->PlanSql(tpch::SelectionSql(7));
  ASSERT_TRUE(plan.ok());
  std::vector<SystemSettings> grid = {
      SystemSettings::Stock(),
      {0.05, VoltageDowngrade::kSmall},
      {0.05, VoltageDowngrade::kMedium},
      {0.15, VoltageDowngrade::kSmall},
  };
  std::vector<double> predicted, measured;
  for (const SystemSettings& s : grid) {
    auto cost = model_->Estimate(*plan.value(), s);
    ASSERT_TRUE(cost.ok());
    predicted.push_back(cost.value().est_edp);
    ASSERT_TRUE(db_->ApplySettings(s).ok());
    auto m = db_->ExecutePlanQuery(*plan.value());
    ASSERT_TRUE(m.ok());
    measured.push_back(m.value().cpu_joules * m.value().seconds);
  }
  ASSERT_TRUE(db_->ApplySettings(SystemSettings::Stock()).ok());
  // Compare orderings pairwise.
  for (size_t i = 0; i < grid.size(); ++i) {
    for (size_t j = i + 1; j < grid.size(); ++j) {
      EXPECT_EQ(predicted[i] < predicted[j], measured[i] < measured[j])
          << grid[i].ToString() << " vs " << grid[j].ToString();
    }
  }
}

TEST_F(CostModelTest, SelectivityHeuristics) {
  auto plan = db_->PlanSql(tpch::SelectionSql(24));
  ASSERT_TRUE(plan.ok());
  const PlanNode& filter = *plan.value()->children[0];
  const TableStats* stats = model_->GetTableStats("lineitem");
  double sel = model_->EstimateSelectivity(*filter.predicate, stats);
  EXPECT_NEAR(sel, 0.02, 0.005);

  // Range selectivity interpolates min/max.
  int qty = filter.output_schema.FindField("l_quantity");
  ExprPtr half = Cmp(CompareOp::kLt,
                     Col(qty, ValueType::kInt64, "l_quantity"), LitInt(25));
  EXPECT_NEAR(model_->EstimateSelectivity(*half, stats), 0.49, 0.05);

  // OR of two disjoint equalities doubles the estimate.
  ExprPtr two = Or({Eq(Col(qty, ValueType::kInt64, "q"), LitInt(1)),
                    Eq(Col(qty, ValueType::kInt64, "q"), LitInt(2))});
  EXPECT_NEAR(model_->EstimateSelectivity(*two, stats), 0.04, 0.01);
}

TEST_F(CostModelTest, UnknownTableFails) {
  PlanNode scan;
  scan.kind = PlanKind::kScan;
  scan.table_name = "nope";
  auto cost = model_->Estimate(scan, SystemSettings::Stock());
  EXPECT_FALSE(cost.ok());
}

}  // namespace
}  // namespace ecodb
