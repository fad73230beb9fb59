#include <gtest/gtest.h>

#include "ecodb/core/qed.h"
#include "test_util.h"

namespace ecodb {
namespace {

class QedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing::MakeTestDb(EngineProfile::MySqlMemory(), 0.005);
    ASSERT_NE(db_, nullptr);
    workload_ = tpch::MakeSelectionWorkload(*db_->catalog(), 50, 7).value();
  }
  std::unique_ptr<Database> db_;
  tpch::Workload workload_;
};

TEST_F(QedTest, TradesResponseTimeForEnergy) {
  // Figure 6's core effect: QED lowers per-query energy (~half) while
  // raising average response time (~1.4-1.5x).
  QedScheduler qed(db_.get(), QedOptions{35, false});
  auto rep = qed.RunComparison(workload_);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_TRUE(rep.value().results_match);
  EXPECT_LT(rep.value().energy_ratio, 0.65);
  EXPECT_GT(rep.value().energy_ratio, 0.35);
  EXPECT_GT(rep.value().response_ratio, 1.25);
  EXPECT_LT(rep.value().response_ratio, 1.65);
  EXPECT_LT(rep.value().edp_ratio, 1.0);  // QED wins on EDP
}

TEST_F(QedTest, EnergySavingsGrowWithBatchSizeWithDiminishingReturns) {
  std::vector<double> energies;
  std::vector<double> responses;
  for (int n : {35, 40, 45, 50}) {
    QedScheduler qed(db_.get(), QedOptions{n, false});
    auto rep = qed.RunComparison(workload_);
    ASSERT_TRUE(rep.ok());
    energies.push_back(rep.value().energy_ratio);
    responses.push_back(rep.value().response_ratio);
  }
  // Energy ratio falls with batch size ...
  for (size_t i = 1; i < energies.size(); ++i) {
    EXPECT_LT(energies[i], energies[i - 1]);
  }
  // ... with diminishing decrements (paper Section 4) ...
  EXPECT_LT(energies[2] - energies[3], energies[0] - energies[1] + 1e-6);
  // ... and the relative response-time penalty *falls* as N grows (the
  // largest batch has the best EDP, paper's closing Figure 6 observation).
  for (size_t i = 1; i < responses.size(); ++i) {
    EXPECT_LT(responses[i], responses[i - 1]);
  }
}

TEST_F(QedTest, FirstQuerySuffersMostLastQueryLeast) {
  // "the response time degradation is most severe for the first query in
  // the batch, and least for the last" (Section 4).
  QedScheduler qed(db_.get(), QedOptions{40, false});
  auto rep = qed.RunComparison(workload_);
  ASSERT_TRUE(rep.ok());
  EXPECT_GT(rep.value().first_query_degradation,
            rep.value().last_query_degradation);
  EXPECT_GT(rep.value().first_query_degradation, 10.0);
}

TEST_F(QedTest, FirstQueryDegradationGrowsWithBatchSize) {
  double prev = 0;
  for (int n : {10, 25, 50}) {
    QedScheduler qed(db_.get(), QedOptions{n, false});
    auto rep = qed.RunComparison(workload_);
    ASSERT_TRUE(rep.ok());
    EXPECT_GT(rep.value().first_query_degradation, prev);
    prev = rep.value().first_query_degradation;
  }
}

TEST_F(QedTest, QueueApiFlushesAtThreshold) {
  QedScheduler qed(db_.get(), QedOptions{3, false});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        qed.Submit(db_->PlanSql(tpch::SelectionSql(10 + i)).value()).ok());
  }
  EXPECT_TRUE(qed.ShouldFlush());
  auto flush = qed.Flush();
  ASSERT_TRUE(flush.ok()) << flush.status().ToString();
  EXPECT_EQ(flush.value().per_query_rows.size(), 3u);
  EXPECT_GT(flush.value().total_s, 0);
  EXPECT_GT(flush.value().cpu_j, 0);
  EXPECT_EQ(qed.pending(), 0);
  EXPECT_FALSE(qed.ShouldFlush());
  // Per-query results match direct execution.
  auto direct = db_->ExecutePlanQuery(
      *db_->PlanSql(tpch::SelectionSql(11)).value());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(flush.value().per_query_rows[1].size(),
            direct.value().rows().size());
}

TEST_F(QedTest, FlushOnEmptyQueueFails) {
  QedScheduler qed(db_.get(), QedOptions{5, false});
  EXPECT_FALSE(qed.Flush().ok());
}

TEST_F(QedTest, OversizedBatchRejected) {
  QedScheduler qed(db_.get(), QedOptions{60, false});
  EXPECT_FALSE(qed.RunComparison(workload_).ok());
}

TEST_F(QedTest, HashedInListImprovesOnOrChain) {
  // Ablation: evaluating the merged predicate as a hash probe beats the
  // MySQL-style OR chain on both time and energy.
  QedScheduler or_chain(db_.get(), QedOptions{40, false});
  QedScheduler hashed(db_.get(), QedOptions{40, true});
  auto a = or_chain.RunComparison(workload_);
  auto b = hashed.RunComparison(workload_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b.value().results_match);
  EXPECT_LT(b.value().qed_total_s, a.value().qed_total_s);
  EXPECT_LT(b.value().qed_cpu_j, a.value().qed_cpu_j);
}

TEST(QedModelTest, AnalyticalModelBasics) {
  QedAnalyticalModel m;
  m.single_query_s = 1.0;
  m.merged_base_s = 2.0;
  m.merged_slope_s = 0.6;
  EXPECT_DOUBLE_EQ(m.MergedTime(35), 23.0);
  EXPECT_DOUBLE_EQ(m.SeqAvgResponse(35), 18.0);
  EXPECT_NEAR(m.ResponseRatio(35), 1.278, 1e-3);
  // First query degrades T_m/t_q, last T_m/(N t_q).
  EXPECT_DOUBLE_EQ(m.QueryDegradation(1, 35), 23.0);
  EXPECT_NEAR(m.QueryDegradation(35, 35), 0.657, 1e-3);
}

TEST(QedModelTest, FitRecoversParameters) {
  QedAnalyticalModel truth;
  truth.single_query_s = 0.5;
  truth.merged_base_s = 1.2;
  truth.merged_slope_s = 0.31;
  auto fit = QedAnalyticalModel::Fit(0.5, 20, truth.MergedTime(20), 45,
                                     truth.MergedTime(45));
  EXPECT_NEAR(fit.merged_base_s, truth.merged_base_s, 1e-9);
  EXPECT_NEAR(fit.merged_slope_s, truth.merged_slope_s, 1e-9);
}

TEST_F(QedTest, AnalyticalModelPredictsSimulatedResponseRatios) {
  // Fit the model from two batch sizes, predict a third within ~12 %.
  auto run = [&](int n) {
    QedScheduler qed(db_.get(), QedOptions{n, false});
    return qed.RunComparison(workload_).value();
  };
  QedBatchReport r1 = run(20);
  QedBatchReport r2 = run(50);
  double t_q = r1.seq_response_s.front();
  auto model = QedAnalyticalModel::Fit(t_q, 20, r1.qed_total_s, 50,
                                       r2.qed_total_s);
  QedBatchReport r3 = run(35);
  EXPECT_NEAR(model.ResponseRatio(35) / r3.response_ratio, 1.0, 0.12);
}

}  // namespace
}  // namespace ecodb
