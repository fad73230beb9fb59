#include <gtest/gtest.h>

#include "ecodb/core/database.h"
#include "ecodb/tpch/queries.h"
#include "test_util.h"

namespace ecodb {
namespace {

TEST(DatabaseTest, ExecutePlanMeasuresTimeAndEnergy) {
  auto db = testing::MakeTestDb();
  ASSERT_NE(db, nullptr);
  auto plan = db->PlanSql(tpch::SelectionSql(24));
  ASSERT_TRUE(plan.ok());
  auto r = db->ExecutePlanQuery(*plan.value());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().seconds, 0);
  EXPECT_GT(r.value().cpu_joules, 0);
  EXPECT_GT(r.value().wall_joules, r.value().cpu_joules);
  EXPECT_GT(r.value().exec_stats.tuples_scanned, 0u);
  // ~2 % of lineitem.
  double rows = db->catalog()->FindTable("lineitem")->num_rows();
  EXPECT_NEAR(r.value().rows().size() / (0.02 * rows), 1.0, 0.4);
}

TEST(DatabaseTest, MemoryEngineDoesNoDiskIo) {
  auto db = testing::MakeTestDb(EngineProfile::MySqlMemory());
  ASSERT_NE(db, nullptr);
  auto plan = db->PlanSql(tpch::SelectionSql(24));
  auto r = db->ExecutePlanQuery(*plan.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(db->buffer_pool()->stats().misses, 0u);
}

TEST(DatabaseTest, CommercialEngineChargesIoWhenCold) {
  auto db = testing::MakeTestDb(EngineProfile::Commercial());
  ASSERT_NE(db, nullptr);
  db->ColdRestart();
  auto plan = db->PlanSql(tpch::SelectionSql(24));
  auto cold = db->ExecutePlanQuery(*plan.value());
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(db->buffer_pool()->stats().misses, 0u);
  // Second run is warm: faster.
  auto warm = db->ExecutePlanQuery(*plan.value());
  ASSERT_TRUE(warm.ok());
  EXPECT_LT(warm.value().seconds, cold.value().seconds);
}

TEST(DatabaseTest, WarmUpPreloadsAllTables) {
  auto db = testing::MakeTestDb(EngineProfile::Commercial());
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->WarmUp().ok());
  uint64_t miss_after_warm = db->buffer_pool()->stats().misses;
  auto plan = db->PlanSql(tpch::Q5Sql(tpch::Q5Params{}));
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(db->ExecutePlanQuery(*plan.value()).ok());
  EXPECT_EQ(db->buffer_pool()->stats().misses, miss_after_warm);
}

TEST(DatabaseTest, SettingsApplyAndSlowDownQueries) {
  auto db = testing::MakeTestDb();
  ASSERT_NE(db, nullptr);
  auto plan = db->PlanSql(tpch::SelectionSql(24));
  auto stock = db->ExecutePlanQuery(*plan.value());
  ASSERT_TRUE(stock.ok());
  ASSERT_TRUE(db->ApplySettings({0.15, VoltageDowngrade::kMedium}).ok());
  EXPECT_EQ(db->settings().underclock, 0.15);
  auto eco = db->ExecutePlanQuery(*plan.value());
  ASSERT_TRUE(eco.ok());
  EXPECT_GT(eco.value().seconds, stock.value().seconds);
  EXPECT_LT(eco.value().cpu_joules, stock.value().cpu_joules);
}

TEST(DatabaseTest, RejectsUnstableSettings) {
  auto db = testing::MakeTestDb();
  ASSERT_NE(db, nullptr);
  EXPECT_TRUE(db->ApplySettings({0.05, VoltageDowngrade::kAggressive})
                  .IsUnstableSettings());
}

TEST(DatabaseTest, ExecuteSqlEndToEnd) {
  auto db = testing::MakeTestDb();
  ASSERT_NE(db, nullptr);
  auto r = db->ExecuteSql("SELECT COUNT(*) AS n FROM lineitem");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(static_cast<uint64_t>(r.value().rows()[0][0].AsInt()),
            db->catalog()->FindTable("lineitem")->num_rows());
}

TEST(DatabaseTest, PlanSqlReturnsExplainablePlan) {
  auto db = testing::MakeTestDb();
  ASSERT_NE(db, nullptr);
  auto plan = db->PlanSql(tpch::Q5Sql(tpch::Q5Params{}));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text = plan.value()->Explain();
  EXPECT_NE(text.find("HashJoin"), std::string::npos);
  EXPECT_NE(text.find("Aggregate"), std::string::npos);
}

// Planning reads no rows, so a table stays unsealed across PlanSql calls
// and may grow between them; the next plan must price it at its new size.
TEST(DatabaseTest, PlanSqlSeesRowsAppendedSinceThePreviousPlan) {
  Database db{DatabaseOptions{}};
  const auto fill = [&](const char* name, int from, int to) {
    Table* t = db.catalog()->FindTable(name);
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(t->AppendRow({Value::Int(i)}).ok());
    }
  };
  for (const char* name : {"a", "b"}) {
    auto created = db.catalog()->CreateTable(
        name, Schema({Field(std::string(name) + "_k", ValueType::kInt64)}));
    ASSERT_TRUE(created.ok());
  }
  fill("a", 0, 10);
  fill("b", 0, 100);
  const char* kSql = "SELECT COUNT(*) AS n FROM a, b WHERE a_k = b_k";
  const auto join_of = [](const PlanNode& root) -> const PlanNode& {
    const PlanNode* n = &root;
    while (n->kind != PlanKind::kHashJoin) n = n->children[0].get();
    return *n;
  };

  auto before = db.PlanSql(kSql);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const PlanNode& j1 = join_of(*before.value());
  EXPECT_EQ(j1.children[0]->table_name, "a");  // the smaller side builds
  EXPECT_EQ(j1.children[0]->est_rows, 10);

  fill("a", 10, 1000);
  auto after = db.PlanSql(kSql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  const PlanNode& j2 = join_of(*after.value());
  EXPECT_EQ(j2.children[0]->table_name, "b");
  EXPECT_EQ(j2.children[1]->table_name, "a");
  EXPECT_EQ(j2.children[1]->est_rows, 1000);
  EXPECT_EQ(db.cost_model().GetTableStats("a")->rows, 1000);

  auto r = db.ExecutePlanQuery(*after.value());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().rows()[0][0].AsInt(), 100);
}

TEST(ExecContextTest, ZeroSortComparesChargeIsFree) {
  // Regression guard for the n == 0 early-return: a no-op charge must
  // leave both the counter and the pending-cycle account untouched.
  Machine machine(MachineConfig::PaperTestbed());
  EngineProfile profile = EngineProfile::MySqlMemory();
  Catalog catalog;
  ExecContext ctx(&machine, &profile, &catalog, nullptr);
  ctx.ChargeSortCompares(0);
  ctx.Flush();
  EXPECT_EQ(ctx.stats().sort_compares, 0u);
  EXPECT_EQ(ctx.stats().cycles_charged, 0.0);
}

TEST(ExecContextTest, SpillRequestCountIsCeilDivOfPages) {
  // Regression: the spill request count used to be spilled/page + 1, so
  // an exact page multiple charged one phantom request per pass. The
  // machine's fault countdown counts requests, which makes the count
  // observable: spilling exactly 2 pages issues 2 write-back + 2
  // read-back requests, so a countdown of 5 survives (the buggy 3 + 3
  // tripped it) and the 5th request afterwards faults.
  Machine machine(MachineConfig::PaperTestbed());
  EngineProfile profile = EngineProfile::Commercial();
  ASSERT_TRUE(profile.disk_backed);
  profile.spill_fraction = 1.0;
  Catalog catalog;
  ExecContext ctx(&machine, &profile, &catalog, nullptr);
  machine.InjectDiskFaultAfterRequests(5);
  Status st = ctx.ChargeSpill(2 * kPageSizeBytes);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(ctx.stats().spill_bytes, 2ull * kPageSizeBytes);
  EXPECT_TRUE(machine.DiskRead(kPageSizeBytes, 1, false)
                  .IsHardwareFault());
}

TEST(DatabaseTest, DiskFaultSurfacesAsHardwareFault) {
  auto db = testing::MakeTestDb(EngineProfile::Commercial());
  ASSERT_NE(db, nullptr);
  db->ColdRestart();
  db->machine()->InjectDiskFaultAfterRequests(3);
  auto plan = db->PlanSql(tpch::SelectionSql(24));
  auto r = db->ExecutePlanQuery(*plan.value());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsHardwareFault());
  db->machine()->ClearFaults();
  EXPECT_TRUE(db->ExecutePlanQuery(*plan.value()).ok());
}

// Query results borrow table strings and dictionary entries, and a sorted
// dictionary insert would shift both. So once a query has read a table,
// appending to it fails and a kept result keeps its answer; appends before
// any query, and to tables no query read, still succeed.
TEST(DatabaseTest, AppendAfterAQueryReadTheTableFails) {
  Database db{DatabaseOptions{}};
  for (const char* name : {"t", "u"}) {
    auto created = db.catalog()->CreateTable(
        name, Schema({Field("s", ValueType::kString)}));
    ASSERT_TRUE(created.ok());
    for (const char* s : {"m", "n", "o"}) {
      ASSERT_TRUE(created.value()->AppendRow({Value::Str(s)}).ok());
    }
    ASSERT_TRUE(db.catalog()->FinalizeLoad(name).ok());
  }
  Table* t = db.catalog()->FindTable("t");
  ASSERT_TRUE(t->column(0).dict_encoded());
  auto r = db.ExecuteSql("SELECT s FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto answer = [&] {
    std::string out;
    for (size_t i = 0; i < r.value().num_rows(); ++i) {
      out += r.value().result.ValueAt(i, 0).AsString();
    }
    return out;
  };
  EXPECT_EQ(answer(), "mno");

  const Status st = t->AppendRow({Value::Str("a")});
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(answer(), "mno");

  EXPECT_TRUE(db.catalog()->FindTable("u")->AppendRow({Value::Str("a")}).ok());
}

}  // namespace
}  // namespace ecodb
