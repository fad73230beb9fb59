#include <gtest/gtest.h>

#include <algorithm>

#include "ecodb/optimizer/mqo.h"
#include "ecodb/tpch/queries.h"
#include "ecodb/tpch/workloads.h"
#include "test_util.h"

namespace ecodb {
namespace {

class MqoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = testing::MakeTestDb();
    ASSERT_NE(db_, nullptr);
  }

  std::vector<PlanNodePtr> MakeBatch(std::vector<int64_t> values) {
    std::vector<PlanNodePtr> out;
    for (int64_t v : values) {
      out.push_back(db_->PlanSql(tpch::SelectionSql(v)).value());
    }
    return out;
  }

  static std::vector<const PlanNode*> Ptrs(
      const std::vector<PlanNodePtr>& batch) {
    std::vector<const PlanNode*> out;
    for (const auto& p : batch) out.push_back(p.get());
    return out;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(MqoTest, MergesEqualitySelectionsIntoDisjunction) {
  auto batch = MakeBatch({3, 17, 42});
  auto merged = MergeSelections(Ptrs(batch));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value().member_predicates.size(), 3u);
  EXPECT_EQ(merged.value().split_values.size(), 3u);
  EXPECT_GE(merged.value().split_column, 0);
  // The merged filter is an OR over the members.
  const PlanNode& filter = *merged.value().plan->children[0];
  ASSERT_EQ(filter.kind, PlanKind::kFilter);
  EXPECT_EQ(filter.predicate->kind(), ExprKind::kLogical);
}

TEST_F(MqoTest, HashedVariantUsesInList) {
  auto batch = MakeBatch({3, 17, 42});
  auto merged = MergeSelections(Ptrs(batch), /*hashed_in_list=*/true);
  ASSERT_TRUE(merged.ok());
  const PlanNode& filter = *merged.value().plan->children[0];
  EXPECT_EQ(filter.predicate->kind(), ExprKind::kInList);
}

TEST_F(MqoTest, RejectsEmptyAndMalformedBatches) {
  EXPECT_FALSE(MergeSelections({}).ok());
  // A join query is not mergeable.
  auto q5 = db_->PlanSql(tpch::Q5Sql(tpch::Q5Params{}));
  ASSERT_TRUE(q5.ok());
  std::vector<const PlanNode*> bad{q5.value().get()};
  EXPECT_FALSE(MergeSelections(bad).ok());
}

TEST_F(MqoTest, RejectsMixedColumns) {
  // Build one plan filtering a different column by hand.
  auto a = db_->PlanSql(tpch::SelectionSql(5)).value();
  auto scan = MakeScan(*db_->catalog(), "lineitem").value();
  int ln = scan->output_schema.FindField("l_linenumber");
  ExprPtr pred = Eq(Col(ln, ValueType::kInt64, "l_linenumber"), LitInt(1));
  auto filter = MakeFilter(std::move(scan), pred);
  int ok = filter->output_schema.FindField("l_orderkey");
  auto b = MakeProject(std::move(filter),
                       {Col(ok, ValueType::kInt64, "l_orderkey")},
                       {"l_orderkey"});
  std::vector<const PlanNode*> mixed{a.get(), b.get()};
  EXPECT_FALSE(MergeSelections(mixed).ok());
}

class SplitCorrectnessTest : public ::testing::TestWithParam<int> {};

TEST_P(SplitCorrectnessTest, SplitResultsEqualSequentialResults) {
  // Property (any batch size): running the batch sequentially and running
  // the merged query + split produce identical per-query results — QED
  // must not change answers (Section 4).
  auto db = testing::MakeTestDb();
  ASSERT_NE(db, nullptr);
  int n = GetParam();
  auto wl = tpch::MakeSelectionWorkload(*db->catalog(), n, 99).value();

  std::vector<const PlanNode*> members;
  for (const auto& q : wl.queries) members.push_back(q.get());
  auto merged = MergeSelections(members);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  auto ctx = db->MakeExecContext();
  auto merged_result = ExecutePlanColumnar(*merged.value().plan, ctx.get());
  ASSERT_TRUE(merged_result.ok());
  auto split =
      SplitMergedResult(merged.value(), merged_result.value(), ctx.get());
  ASSERT_EQ(split.size(), static_cast<size_t>(n));

  size_t total = 0;
  for (int i = 0; i < n; ++i) {
    auto seq = db->ExecutePlanQuery(*wl.queries[static_cast<size_t>(i)]);
    ASSERT_TRUE(seq.ok());
    const auto& expect = seq.value().rows();
    const auto& got = split[static_cast<size_t>(i)];
    ASSERT_EQ(got.size(), expect.size()) << "query " << i;
    for (size_t r = 0; r < got.size(); ++r) {
      const Row row = merged_result.value().RowAt(got[r]);
      for (size_t c = 0; c < row.size(); ++c) {
        EXPECT_EQ(row[c].Compare(expect[r][c]), 0);
      }
    }
    total += got.size();
  }
  // No row lost or duplicated.
  EXPECT_EQ(total, merged_result.value().num_rows());
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, SplitCorrectnessTest,
                         ::testing::Values(1, 2, 5, 20, 35, 50));

class SharedAggTest : public ::testing::TestWithParam<int> {};

TEST_P(SharedAggTest, SharedScanEqualsSequentialAggregation) {
  // Property: a shared-scan batch of Q6-shaped aggregates produces the
  // same answers as running each query alone (the QED generalization).
  auto db = testing::MakeTestDb();
  ASSERT_NE(db, nullptr);
  int n = GetParam();
  std::vector<PlanNodePtr> plans;
  for (int i = 0; i < n; ++i) {
    tpch::Q6Params p;
    p.quantity = 10 + 5 * i;  // different predicates per member
    p.discount = 0.02 + 0.01 * i;
    plans.push_back(db->PlanSql(tpch::Q6Sql(p)).value());
  }
  std::vector<const PlanNode*> members;
  for (const auto& p : plans) members.push_back(p.get());
  auto batch = AnalyzeSharedAggBatch(members);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  auto ctx = db->MakeExecContext();
  auto shared = RunSharedScanAggregates(batch.value(), ctx.get());
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  ASSERT_EQ(shared.value().size(), static_cast<size_t>(n));

  for (int i = 0; i < n; ++i) {
    auto seq = db->ExecutePlanQuery(*plans[static_cast<size_t>(i)]);
    ASSERT_TRUE(seq.ok());
    const auto& got = shared.value()[static_cast<size_t>(i)];
    ASSERT_EQ(got.size(), seq.value().rows().size());
    for (size_t c = 0; c < got[0].size(); ++c) {
      EXPECT_EQ(got[0][c].Compare(seq.value().rows()[0][c]), 0) << "query " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, SharedAggTest,
                         ::testing::Values(1, 2, 4, 7));

TEST_F(MqoTest, SharedAggSavesEnergyVersusSequential) {
  std::vector<PlanNodePtr> plans;
  for (int i = 0; i < 5; ++i) {
    tpch::Q6Params p;
    p.quantity = 10 + 5 * i;
    plans.push_back(db_->PlanSql(tpch::Q6Sql(p)).value());
  }
  Machine* machine = db_->machine();
  machine->ResetMeters();
  for (const auto& p : plans) ASSERT_TRUE(db_->ExecutePlanQuery(*p).ok());
  double seq_j = machine->ledger().cpu_j;

  std::vector<const PlanNode*> members;
  for (const auto& p : plans) members.push_back(p.get());
  auto batch = AnalyzeSharedAggBatch(members);
  ASSERT_TRUE(batch.ok());
  machine->ResetMeters();
  auto ctx = db_->MakeExecContext();
  ASSERT_TRUE(RunSharedScanAggregates(batch.value(), ctx.get()).ok());
  double shared_j = machine->ledger().cpu_j;
  EXPECT_LT(shared_j, 0.6 * seq_j);  // one scan instead of five
}

TEST_F(MqoTest, SharedAggRejectsGroupByAndJoins) {
  auto q1 = db_->PlanSql(tpch::Q1Sql("1998-09-02")).value();
  // Q1 root is a Sort over a grouped aggregate -> rejected.
  std::vector<const PlanNode*> bad{q1.get()};
  EXPECT_FALSE(AnalyzeSharedAggBatch(bad).ok());
  // Mixed tables rejected: Q6 (lineitem) + a fabricated orders aggregate.
  auto q6 = db_->PlanSql(tpch::Q6Sql(tpch::Q6Params{})).value();
  auto orders_scan = MakeScan(*db_->catalog(), "orders").value();
  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  auto orders_agg = MakeAggregate(std::move(orders_scan), {}, {cnt});
  std::vector<const PlanNode*> mixed{q6.get(), orders_agg.get()};
  EXPECT_FALSE(AnalyzeSharedAggBatch(mixed).ok());
}

TEST_F(MqoTest, SplitChargesApplicationCost) {
  auto batch = MakeBatch({1, 2, 3, 4, 5});
  auto merged = MergeSelections(Ptrs(batch));
  ASSERT_TRUE(merged.ok());
  const MergedSelection& m = merged.value();
  auto ctx = db_->MakeExecContext();
  auto result = ExecutePlanColumnar(*m.plan, ctx.get());
  ASSERT_TRUE(result.ok());
  const ResultSet& rows = result.value();
  ASSERT_GT(rows.num_rows(), 0u);
  // Each row costs the 1-based position of the first member whose value
  // its split column equals (all members when none does).
  double compares = 0;
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    const Value v = rows.ValueAt(r, m.split_column);
    size_t q = 0;
    while (q < m.split_values.size() && v.Compare(m.split_values[q]) != 0) {
      ++q;
    }
    compares += static_cast<double>(std::min(q + 1, m.split_values.size()));
  }
  const EngineProfile& p = ctx->profile();
  const double want = static_cast<double>(rows.num_rows()) *
                          p.split_row_cycles +
                      compares * p.split_compare_cycles;
  ctx->Flush();
  const double cycles_before = ctx->stats().cycles_charged;
  const double t0 = db_->machine()->NowSeconds();
  SplitMergedResult(m, rows, ctx.get());
  EXPECT_GT(db_->machine()->NowSeconds(), t0);  // split is not free
  EXPECT_DOUBLE_EQ(ctx->stats().cycles_charged - cycles_before, want);
}

}  // namespace
}  // namespace ecodb
