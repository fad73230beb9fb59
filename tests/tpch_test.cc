#include <gtest/gtest.h>

#include "ecodb/tpch/dbgen.h"
#include "ecodb/tpch/queries.h"
#include "ecodb/tpch/workloads.h"
#include "ecodb/util/strings.h"
#include "test_util.h"

namespace ecodb {
namespace {

class TpchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::DbGenOptions opt;
    opt.scale_factor = 0.002;
    opt.include_part_tables = true;
    ASSERT_TRUE(tpch::Generate(opt, &catalog_).ok());
  }
  Catalog catalog_;
};

TEST_F(TpchTest, RowCountsScaleWithSf) {
  EXPECT_EQ(catalog_.FindTable("region")->num_rows(), 5u);
  EXPECT_EQ(catalog_.FindTable("nation")->num_rows(), 25u);
  EXPECT_EQ(catalog_.FindTable("customer")->num_rows(),
            tpch::CustomerCount(0.002));
  EXPECT_EQ(catalog_.FindTable("orders")->num_rows(),
            tpch::OrderCount(0.002));
  EXPECT_EQ(catalog_.FindTable("supplier")->num_rows(),
            tpch::SupplierCount(0.002));
  // ~4 lineitems per order on average (uniform 1..7).
  double ratio =
      static_cast<double>(catalog_.FindTable("lineitem")->num_rows()) /
      static_cast<double>(catalog_.FindTable("orders")->num_rows());
  EXPECT_NEAR(ratio, 4.0, 0.3);
  EXPECT_EQ(catalog_.FindTable("partsupp")->num_rows(),
            4 * catalog_.FindTable("part")->num_rows());
}

TEST_F(TpchTest, GenerationIsDeterministic) {
  Catalog other;
  tpch::DbGenOptions opt;
  opt.scale_factor = 0.002;
  opt.include_part_tables = true;
  ASSERT_TRUE(tpch::Generate(opt, &other).ok());
  const Table* a = catalog_.FindTable("lineitem");
  const Table* b = other.FindTable("lineitem");
  ASSERT_EQ(a->num_rows(), b->num_rows());
  for (size_t r = 0; r < a->num_rows(); r += 97) {
    for (int c = 0; c < a->num_columns(); ++c) {
      EXPECT_EQ(a->GetValue(r, c).Compare(b->GetValue(r, c)), 0);
    }
  }
}

TEST_F(TpchTest, QuantityGivesTwoPercentSelectivity) {
  // QED's premise: each l_quantity value selects ~2 % of lineitem
  // (uniform over 50 integers, Section 4).
  const Table* li = catalog_.FindTable("lineitem");
  int qty_col = li->schema().FindField("l_quantity");
  ASSERT_GE(qty_col, 0);
  std::vector<int> counts(51, 0);
  for (size_t r = 0; r < li->num_rows(); ++r) {
    int64_t q = li->column(qty_col).GetInt(r);
    ASSERT_GE(q, 1);
    ASSERT_LE(q, 50);
    ++counts[static_cast<size_t>(q)];
  }
  double expected = static_cast<double>(li->num_rows()) / 50.0;
  for (int v = 1; v <= 50; ++v) {
    EXPECT_NEAR(counts[static_cast<size_t>(v)] / expected, 1.0, 0.45)
        << "l_quantity=" << v;
  }
}

TEST_F(TpchTest, OrderDatesSpanPaperRange) {
  const Table* orders = catalog_.FindTable("orders");
  int date_col = orders->schema().FindField("o_orderdate");
  int32_t lo = ParseDateToDays(tpch::kOrderDateLo);
  int32_t hi = ParseDateToDays(tpch::kOrderDateHi);
  for (size_t r = 0; r < orders->num_rows(); ++r) {
    int64_t d = orders->column(date_col).GetInt(r);
    EXPECT_GE(d, lo);
    EXPECT_LT(d, hi);
  }
}

TEST_F(TpchTest, ForeignKeysResolve) {
  const Table* nation = catalog_.FindTable("nation");
  for (size_t r = 0; r < nation->num_rows(); ++r) {
    int64_t rk = nation->column(2).GetInt(r);
    EXPECT_GE(rk, 0);
    EXPECT_LE(rk, 4);
  }
  const Table* li = catalog_.FindTable("lineitem");
  uint64_t max_supp = catalog_.FindTable("supplier")->num_rows();
  uint64_t max_order = catalog_.FindTable("orders")->num_rows();
  for (size_t r = 0; r < li->num_rows(); r += 53) {
    EXPECT_LE(li->column(0).GetInt(r), static_cast<int64_t>(max_order));
    EXPECT_GE(li->column(2).GetInt(r), 1);
    EXPECT_LE(li->column(2).GetInt(r), static_cast<int64_t>(max_supp));
  }
}

TEST_F(TpchTest, ShipdateFollowsOrderdate) {
  // l_shipdate = o_orderdate + [1,121] by construction; spot check the
  // semantic constraint shipdate > orderdate through a join.
  const Table* li = catalog_.FindTable("lineitem");
  const Table* orders = catalog_.FindTable("orders");
  std::vector<int64_t> order_date(orders->num_rows() + 1);
  for (size_t r = 0; r < orders->num_rows(); ++r) {
    order_date[static_cast<size_t>(orders->column(0).GetInt(r))] =
        orders->column(4).GetInt(r);
  }
  for (size_t r = 0; r < li->num_rows(); r += 31) {
    int64_t ok = li->column(0).GetInt(r);
    EXPECT_GT(li->column(10).GetInt(r),
              order_date[static_cast<size_t>(ok)]);
  }
}

TEST_F(TpchTest, RejectsDoubleGeneration) {
  tpch::DbGenOptions opt;
  opt.scale_factor = 0.002;
  EXPECT_FALSE(tpch::Generate(opt, &catalog_).ok());
}

TEST_F(TpchTest, RejectsNonPositiveScale) {
  Catalog c;
  tpch::DbGenOptions opt;
  opt.scale_factor = 0;
  EXPECT_TRUE(tpch::Generate(opt, &c).IsInvalidArgument());
}

TEST_F(TpchTest, Q5WorkloadHasTenNonOverlappingQueries) {
  auto wl = tpch::MakeQ5Workload(catalog_);
  ASSERT_TRUE(wl.ok());
  EXPECT_EQ(wl.value().queries.size(), 10u);  // 2 regions x 5 years
}

TEST_F(TpchTest, SelectionWorkloadValuesAreDistinct) {
  auto wl = tpch::MakeSelectionWorkload(catalog_, 50, 7);
  ASSERT_TRUE(wl.ok());
  EXPECT_EQ(wl.value().queries.size(), 50u);
  std::vector<int64_t> vals = wl.value().selection_values;
  std::sort(vals.begin(), vals.end());
  EXPECT_EQ(std::adjacent_find(vals.begin(), vals.end()), vals.end());
  EXPECT_EQ(vals.front(), 1);
  EXPECT_EQ(vals.back(), 50);
  EXPECT_FALSE(tpch::MakeSelectionWorkload(catalog_, 51, 7).ok());
  EXPECT_FALSE(tpch::MakeSelectionWorkload(catalog_, 0, 7).ok());
}

class Q5ResultTest : public ::testing::TestWithParam<const char*> {};

TEST_P(Q5ResultTest, GroupsAreNationsOfTheRegion) {
  auto db = testing::MakeTestDb();
  ASSERT_NE(db, nullptr);
  tpch::Q5Params p;
  p.region = GetParam();
  auto plan = db->PlanSql(tpch::Q5Sql(p));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto r = db->ExecutePlanQuery(*plan.value());
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.value().rows().size(), 5u);  // at most 5 nations per region
  // Revenue sorted descending.
  for (size_t i = 1; i < r.value().rows().size(); ++i) {
    EXPECT_GE(r.value().rows()[i - 1][1].AsDouble(),
              r.value().rows()[i][1].AsDouble());
  }
}

INSTANTIATE_TEST_SUITE_P(Regions, Q5ResultTest,
                         ::testing::Values("ASIA", "AMERICA", "EUROPE",
                                           "AFRICA", "MIDDLE EAST"));

TEST_F(TpchTest, MixedWorkloadBuilds) {
  auto wl = tpch::MakeMixedWorkload(catalog_);
  ASSERT_TRUE(wl.ok()) << wl.status().ToString();
  EXPECT_EQ(wl.value().queries.size(), 4u);
}

}  // namespace
}  // namespace ecodb
