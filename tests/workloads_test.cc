// tpch/workloads.h: generator bounds, determinism, plan validity, and
// the merge-key contract the workload scheduler's QED batching relies
// on.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ecodb/ecodb.h"
#include "test_util.h"

namespace ecodb {
namespace {

class WorkloadsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = testing::MakeTestDb().release();
    ASSERT_NE(db_, nullptr);
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};

Database* WorkloadsTest::db_ = nullptr;

TEST_F(WorkloadsTest, SelectionWorkloadBoundsChecked) {
  EXPECT_FALSE(tpch::MakeSelectionWorkload(*db_->catalog(), 0, 1).ok());
  EXPECT_FALSE(tpch::MakeSelectionWorkload(*db_->catalog(), -3, 1).ok());
  EXPECT_FALSE(tpch::MakeSelectionWorkload(*db_->catalog(), 51, 1).ok());
  EXPECT_TRUE(tpch::MakeSelectionWorkload(*db_->catalog(), 50, 1).ok());
}

TEST_F(WorkloadsTest, SelectionWorkloadDistinctValuesAndDeterminism) {
  auto w1 = tpch::MakeSelectionWorkload(*db_->catalog(), 20, 0xABC);
  auto w2 = tpch::MakeSelectionWorkload(*db_->catalog(), 20, 0xABC);
  auto w3 = tpch::MakeSelectionWorkload(*db_->catalog(), 20, 0xDEF);
  ASSERT_TRUE(w1.ok() && w2.ok() && w3.ok());
  ASSERT_EQ(w1.value().queries.size(), 20u);
  ASSERT_EQ(w1.value().selection_values.size(), 20u);
  ASSERT_EQ(w1.value().merge_keys.size(), 20u);

  std::set<int64_t> seen;
  for (size_t i = 0; i < 20; ++i) {
    const int64_t v = w1.value().selection_values[i];
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 50);
    EXPECT_TRUE(seen.insert(v).second) << "duplicate value " << v;
    // Selections are QED-mergeable: merge key == predicate literal.
    EXPECT_EQ(w1.value().merge_keys[i], v);
  }
  EXPECT_EQ(w1.value().selection_values, w2.value().selection_values);
  EXPECT_NE(w1.value().selection_values, w3.value().selection_values);
}

TEST_F(WorkloadsTest, AllGeneratorsProduceValidPlans) {
  auto q5 = tpch::MakeQ5Workload(*db_->catalog());
  ASSERT_TRUE(q5.ok()) << q5.status().ToString();
  EXPECT_EQ(q5.value().queries.size(), 10u);

  auto mixed = tpch::MakeMixedWorkload(*db_->catalog());
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_EQ(mixed.value().queries.size(), 4u);

  auto sel = tpch::MakeSelectionWorkload(*db_->catalog(), 10, 7);
  ASSERT_TRUE(sel.ok());

  auto mix = tpch::MakeSchedulerMixWorkload(*db_->catalog(), 30, 7);
  ASSERT_TRUE(mix.ok()) << mix.status().ToString();

  for (const auto* w : {&q5.value(), &mixed.value(), &sel.value(),
                        &mix.value()}) {
    for (const auto& plan : w->queries) {
      Status st = ValidatePlan(*plan);
      EXPECT_TRUE(st.ok()) << w->name << ": " << st.ToString();
    }
  }
}

TEST_F(WorkloadsTest, SchedulerMixHonorsFractionAndTagsMergeables) {
  auto mix = tpch::MakeSchedulerMixWorkload(*db_->catalog(), 100, 0x5EED,
                                            /*selection_fraction=*/0.7);
  ASSERT_TRUE(mix.ok());
  const tpch::Workload& w = mix.value();
  ASSERT_EQ(w.queries.size(), 100u);
  ASSERT_EQ(w.merge_keys.size(), 100u);
  ASSERT_EQ(w.selection_values.size(), 100u);

  int mergeable = 0;
  for (size_t i = 0; i < 100; ++i) {
    if (w.merge_keys[i] >= 0) {
      ++mergeable;
      EXPECT_GE(w.merge_keys[i], 1);
      EXPECT_LE(w.merge_keys[i], 50);
      EXPECT_EQ(w.merge_keys[i], w.selection_values[i]);
    } else {
      EXPECT_EQ(w.merge_keys[i], tpch::kNotMergeable);
    }
  }
  // Bernoulli(0.7) over 100 draws: generous 3-sigma-ish band.
  EXPECT_GE(mergeable, 50);
  EXPECT_LE(mergeable, 90);

  // Same seed, same stream.
  auto again = tpch::MakeSchedulerMixWorkload(*db_->catalog(), 100, 0x5EED);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().merge_keys, w.merge_keys);
  EXPECT_EQ(again.value().selection_values, w.selection_values);
}

TEST_F(WorkloadsTest, SchedulerMixRejectsBadArguments) {
  EXPECT_FALSE(tpch::MakeSchedulerMixWorkload(*db_->catalog(), 0, 1).ok());
  EXPECT_FALSE(
      tpch::MakeSchedulerMixWorkload(*db_->catalog(), 10, 1, -0.1).ok());
  EXPECT_FALSE(
      tpch::MakeSchedulerMixWorkload(*db_->catalog(), 10, 1, 1.5).ok());
}

// The merged-selection contract: mergeable entries really can be merged
// and split back, as long as keys are distinct.
TEST_F(WorkloadsTest, MergeableEntriesSatisfyMergeContract) {
  auto sel = tpch::MakeSelectionWorkload(*db_->catalog(), 5, 0x11);
  ASSERT_TRUE(sel.ok());
  std::vector<const PlanNode*> members;
  for (const auto& q : sel.value().queries) members.push_back(q.get());
  auto merged = MergeSelections(members);
  EXPECT_TRUE(merged.ok()) << merged.status().ToString();
}

// The generators plan the SQL texts: each generated plan is the planner's
// plan for its text on a stock memory-resident database, and every QED
// member keeps the Project(Filter(Scan(lineitem))) shape MergeSelections
// needs, so a planner change that breaks QED merging fails here.
TEST_F(WorkloadsTest, GeneratedPlansAreThePlannersPlans) {
  auto explain_sql = [](const std::string& sql) {
    auto plan = db_->PlanSql(sql);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    return plan.ok() ? plan.value()->Explain() : std::string();
  };
  std::vector<std::string> heavies;
  for (const std::string& sql :
       {tpch::Q1Sql("1998-09-02"), tpch::Q3Sql(tpch::Q3Params{}),
        tpch::Q5Sql(tpch::Q5Params{}), tpch::Q6Sql(tpch::Q6Params{})}) {
    heavies.push_back(explain_sql(sql));
  }

  auto sel = tpch::MakeSelectionWorkload(*db_->catalog(), 10, 7);
  auto mix = tpch::MakeSchedulerMixWorkload(*db_->catalog(), 40, 7);
  ASSERT_TRUE(sel.ok() && mix.ok());
  for (const tpch::Workload* w : {&sel.value(), &mix.value()}) {
    int mergeable = 0;
    for (size_t i = 0; i < w->queries.size(); ++i) {
      SCOPED_TRACE(w->name + " #" + std::to_string(i));
      const PlanNode& plan = *w->queries[i];
      if (w->merge_keys[i] < 0) {
        EXPECT_NE(std::find(heavies.begin(), heavies.end(), plan.Explain()),
                  heavies.end())
            << plan.Explain();
        continue;
      }
      ++mergeable;
      EXPECT_EQ(plan.Explain(),
                explain_sql(tpch::SelectionSql(w->selection_values[i])));
      ASSERT_EQ(plan.kind, PlanKind::kProject);
      const PlanNode& filter = *plan.children[0];
      ASSERT_EQ(filter.kind, PlanKind::kFilter);
      const PlanNode& scan = *filter.children[0];
      ASSERT_EQ(scan.kind, PlanKind::kScan);
      EXPECT_EQ(scan.table_name, "lineitem");
    }
    EXPECT_GT(mergeable, 0) << w->name;
  }
}

// A workload depends on the catalog alone: a disk-backed commercial
// database over the same data generates the same plans, so the
// benchmark's reference database can rebuild the mix it checks against.
TEST_F(WorkloadsTest, PlansDoNotDependOnTheDatabaseProfile) {
  auto commercial = testing::MakeTestDb(EngineProfile::Commercial());
  ASSERT_NE(commercial, nullptr);
  auto a = tpch::MakeSchedulerMixWorkload(*db_->catalog(), 40, 0x5EED);
  auto b = tpch::MakeSchedulerMixWorkload(*commercial->catalog(), 40, 0x5EED);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().queries.size(), b.value().queries.size());
  for (size_t i = 0; i < a.value().queries.size(); ++i) {
    EXPECT_EQ(a.value().queries[i]->Explain(), b.value().queries[i]->Explain())
        << "#" << i;
  }
}

}  // namespace
}  // namespace ecodb
