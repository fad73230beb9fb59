// Query governor: deadlines, budgets, cooperative cancellation, and the
// fault-injected retry path.
//
// The charged-cycle cancellation trigger trips inside the flush-quantum
// loop, whose boundaries live at fixed charged-cycle positions — so a
// query killed mid-stream freezes cycles_charged at a bit-exact value,
// pinned per operator family below, whether the work arrived per-row (a
// limited pipeline) or per-batch.
// One cancellation case per operator family (scan, join, aggregate,
// sort, limit) proves Close() is safe on a partially-consumed stack
// (the ASan configuration turns any leak into a failure).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>

#include "ecodb/ecodb.h"
#include "test_util.h"

namespace ecodb {
namespace {

// Large enough that every family's plan charges several flush quanta
// (the trigger only fires at quantum boundaries).
constexpr double kGovSf = 0.01;

struct GovernedRun {
  Status status;
  QueryExecStats stats;
  EnergyLedger ledger_delta;
};

class GovernorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = testing::MakeTestDb(EngineProfile::MySqlMemory(), kGovSf).release();
    ASSERT_NE(db_, nullptr);
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static PlanNodePtr Plan(const std::string& sql) {
    auto r = db_->PlanSql(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }

  /// Executes `plan` under `limits` on a fresh context, returning the
  /// status, the (possibly partial) exec stats and the machine-ledger
  /// delta of the run.
  static GovernedRun Run(const PlanNode& plan, const QueryLimits& limits) {
    auto ctx = db_->MakeExecContext();
    std::unique_ptr<QueryGovernor> gov;
    if (!limits.None()) {
      gov = std::make_unique<QueryGovernor>(limits,
                                            db_->machine()->NowSeconds());
      ctx->set_governor(gov.get());
    }
    EnergyLedger before = db_->machine()->ledger();
    auto res = ExecutePlanColumnar(plan, ctx.get());
    ctx->Flush();
    EnergyLedger after = db_->machine()->ledger();
    GovernedRun out;
    out.status = res.status();
    out.stats = ctx->stats();
    out.ledger_delta.cpu_j = after.cpu_j - before.cpu_j;
    out.ledger_delta.wall_j = after.wall_j - before.wall_j;
    out.ledger_delta.busy_s = after.busy_s - before.busy_s;
    out.ledger_delta.io_s = after.io_s - before.io_s;
    out.ledger_delta.idle_s = after.idle_s - before.idle_s;
    return out;
  }

  static void ExpectLedgerSane(const GovernedRun& r) {
    for (double v : {r.ledger_delta.cpu_j, r.ledger_delta.wall_j,
                     r.ledger_delta.busy_s, r.ledger_delta.io_s,
                     r.ledger_delta.idle_s}) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0);
    }
    EXPECT_GE(r.ledger_delta.wall_j, r.ledger_delta.cpu_j);
  }

  /// The per-family contract: cancelling at half the query's charged
  /// cycles yields kCancelled with *bit-exact* partial cycles_charged
  /// (frozen at the quantum boundary `frozen_cycles`, recorded from the
  /// engine), a sane ledger, and a Database that executes the next query
  /// normally.
  void CheckCancelMidStream(const std::string& sql, double frozen_cycles) {
    SCOPED_TRACE(sql);
    PlanNodePtr plan = Plan(sql);
    ASSERT_NE(plan, nullptr);

    GovernedRun full = Run(*plan, QueryLimits{});
    ASSERT_TRUE(full.status.ok()) << full.status.ToString();
    const double total = full.stats.cycles_charged;
    ASSERT_GT(total, 4.0e7) << "plan too small to cross flush quanta";

    QueryLimits limits;
    limits.cancel_at_charged_cycles = total / 2;
    GovernedRun killed = Run(*plan, limits);

    EXPECT_TRUE(killed.status.IsCancelled()) << killed.status.ToString();
    EXPECT_DOUBLE_EQ(killed.stats.cycles_charged, frozen_cycles);
    EXPECT_GE(killed.stats.cycles_charged, limits.cancel_at_charged_cycles);
    EXPECT_LT(killed.stats.cycles_charged, total);
    ExpectLedgerSane(killed);

    // The kill leaves no residue: the same Database answers the next
    // query (both a fresh governed success and an ungoverned run).
    auto ok = db_->ExecuteSql("SELECT COUNT(*) AS n FROM region");
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ok.value().rows()[0][0].AsInt(), 5);
  }

  static Database* db_;
};

Database* GovernorTest::db_ = nullptr;

TEST_F(GovernorTest, CancelMidScan) {
  CheckCancelMidStream("SELECT l_orderkey, l_extendedprice FROM lineitem",
                       60000000);
}

TEST_F(GovernorTest, CancelMidJoin) {
  CheckCancelMidStream(
      "SELECT o_orderkey, l_extendedprice FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey",
      93770000);
}

TEST_F(GovernorTest, CancelMidAggregate) {
  CheckCancelMidStream(
      "SELECT l_orderkey, SUM(l_extendedprice) AS s, COUNT(*) AS n "
      "FROM lineitem GROUP BY l_orderkey",
      60000000);
}

TEST_F(GovernorTest, CancelMidSort) {
  CheckCancelMidStream(
      "SELECT * FROM lineitem ORDER BY l_extendedprice, l_orderkey",
      134398648);
}

TEST_F(GovernorTest, CancelMidLimitedPipeline) {
  CheckCancelMidStream(
      "SELECT o_orderkey, l_extendedprice FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey LIMIT 1000000",
      93770000);
}

TEST_F(GovernorTest, DeadlineExceededMidQuery) {
  PlanNodePtr plan = Plan("SELECT * FROM lineitem ORDER BY l_extendedprice");
  GovernedRun full = Run(*plan, QueryLimits{});
  ASSERT_TRUE(full.status.ok());
  const double dur = full.ledger_delta.busy_s + full.ledger_delta.io_s +
                     full.ledger_delta.idle_s;
  ASSERT_GT(dur, 0.0);

  QueryLimits limits;
  limits.deadline_seconds = dur / 2;
  GovernedRun killed = Run(*plan, limits);
  EXPECT_TRUE(killed.status.IsDeadlineExceeded()) << killed.status.ToString();
  ExpectLedgerSane(killed);
  // The killed run charged less simulated time than the full one.
  const double killed_dur = killed.ledger_delta.busy_s +
                            killed.ledger_delta.io_s +
                            killed.ledger_delta.idle_s;
  EXPECT_LT(killed_dur, dur);
}

TEST_F(GovernorTest, MemoryBudgetExceeded) {
  // Sort of the full lineitem table peaks in the megabytes; a 256 KiB
  // budget must kill it.
  PlanNodePtr plan = Plan("SELECT * FROM lineitem ORDER BY l_extendedprice");
  QueryLimits limits;
  limits.memory_budget_bytes = 256 * 1024;
  GovernedRun killed = Run(*plan, limits);
  EXPECT_TRUE(killed.status.IsResourceExhausted())
      << killed.status.ToString();
  ExpectLedgerSane(killed);
  // A budget above the query's peak does not fire.
  QueryLimits roomy;
  roomy.memory_budget_bytes = 1ull << 30;
  EXPECT_TRUE(Run(*plan, roomy).status.ok());
}

TEST_F(GovernorTest, ExternalCancelFlagStopsTheQuery) {
  PlanNodePtr plan = Plan("SELECT COUNT(*) AS n FROM lineitem");
  QueryLimits limits;
  limits.cancel_flag = std::make_shared<std::atomic<bool>>(true);
  GovernedRun r = Run(*plan, limits);
  EXPECT_TRUE(r.status.IsCancelled()) << r.status.ToString();
  // Un-set flag: the same limits object no longer cancels.
  limits.cancel_flag->store(false);
  EXPECT_TRUE(Run(*plan, limits).status.ok());
}

TEST_F(GovernorTest, PeakMemoryIsReported) {
  PlanNodePtr plan = Plan(
      "SELECT l_orderkey, SUM(l_extendedprice) AS s FROM lineitem "
      "GROUP BY l_orderkey");
  GovernedRun r = Run(*plan, QueryLimits{});
  ASSERT_TRUE(r.status.ok());
  // Logical bytes, recorded from the engine: group pool plus result.
  EXPECT_EQ(r.stats.peak_memory_bytes, 1664288u);
}

TEST_F(GovernorTest, DatabaseLevelLimitsApplyAndLift) {
  QueryLimits limits;
  limits.memory_budget_bytes = 64 * 1024;
  db_->set_query_limits(limits);
  auto killed =
      db_->ExecuteSql("SELECT * FROM lineitem ORDER BY l_extendedprice");
  EXPECT_TRUE(killed.status().IsResourceExhausted())
      << killed.status().ToString();
  db_->set_query_limits(QueryLimits{});
  auto ok = db_->ExecuteSql("SELECT COUNT(*) AS n FROM lineitem");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_GT(ok.value().rows()[0][0].AsInt(), 0);
}

// --- Trips midway through a root sort's drain ---
//
// A root sort does its work at Open, then the drain gathers the result
// 1,024 rows per step, each step a governor checkpoint. A trip at one of
// those checkpoints must return the error with the query's memory
// tracker back at zero (sort pool and result bytes both released) and
// the operator stack closed, whether ExecuteOperatorColumnar or a
// QueryTask drives the drain.

constexpr const char* kRootSortSql =
    "SELECT * FROM lineitem ORDER BY l_extendedprice, l_orderkey";

/// Forwards to a materialized root and records its Close. With a flag,
/// sets it just before the `trip_at`-th emission step.
class DrainProbe : public Operator {
 public:
  DrainProbe(OperatorPtr inner, std::shared_ptr<std::atomic<bool>> flag,
             int trip_at)
      : inner_(std::move(inner)), flag_(std::move(flag)), trip_at_(trip_at) {}

  Status Open() override { return inner_->Open(); }
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override {
    return inner_->NextBatch(out, has_rows, max_rows);
  }
  bool MaterializedEmission() const override {
    return inner_->MaterializedEmission();
  }
  Status EmitInto(ResultSet* out, size_t max_rows, size_t* taken) override {
    if (flag_ != nullptr && ++steps_ == trip_at_) flag_->store(true);
    return inner_->EmitInto(out, max_rows, taken);
  }
  size_t PendingRows() const override { return inner_->PendingRows(); }
  void Close() override {
    closed_ = true;
    inner_->Close();
  }
  const Schema& schema() const override { return inner_->schema(); }
  std::string name() const override { return "DrainProbe"; }

  bool closed() const { return closed_; }

 private:
  OperatorPtr inner_;
  std::shared_ptr<std::atomic<bool>> flag_;
  int trip_at_;
  int steps_ = 0;
  bool closed_ = false;
};

/// Simulated seconds from query start to the end of Open, and to the
/// end of the drain, of an ungoverned QueryTask run of `plan`.
struct DrainTimes {
  double open_s = 0, done_s = 0;
  int steps = 0;
};

DrainTimes TimeDrain(Database* db, const PlanNode& plan) {
  DrainTimes t;
  QueryTask task(&plan, db->MakeExecContext());
  const double t0 = db->machine()->NowSeconds();
  EXPECT_EQ(task.Step(), QueryTask::State::kRunning);
  t.open_s = db->machine()->NowSeconds() - t0;
  while (task.Step() == QueryTask::State::kRunning) ++t.steps;
  EXPECT_EQ(task.state(), QueryTask::State::kDone);
  t.done_s = db->machine()->NowSeconds() - t0;
  return t;
}

TEST_F(GovernorTest, RootSortDrainTripsThroughExecuteOperatorColumnar) {
  PlanNodePtr plan = Plan(kRootSortSql);
  const DrainTimes times = TimeDrain(db_, *plan);
  ASSERT_GT(times.steps, 8) << "the drain should take many steps";
  ASSERT_GT(times.done_s, times.open_s);

  {  // Cancel flag set partway through the drain.
    auto ctx = db_->MakeExecContext();
    QueryLimits limits;
    limits.cancel_flag = std::make_shared<std::atomic<bool>>(false);
    QueryGovernor gov(limits, db_->machine()->NowSeconds());
    ctx->set_governor(&gov);
    auto op = InstantiatePlan(*plan, ctx.get());
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    DrainProbe probe(std::move(op).value(), limits.cancel_flag, 4);
    auto res = ExecuteOperatorColumnar(&probe, ctx.get());
    EXPECT_TRUE(res.status().IsCancelled()) << res.status().ToString();
    EXPECT_EQ(ctx->memory_tracker()->current_bytes(), 0u);
    EXPECT_TRUE(probe.closed());
    EXPECT_LT(ctx->stats().tuples_output,
              static_cast<uint64_t>(times.steps) * RowBatch::kDefaultBatchRows);
    EXPECT_GT(ctx->stats().tuples_output, 0u);
  }
  {  // Deadline falling between the end of Open and the end of the drain.
    auto ctx = db_->MakeExecContext();
    QueryLimits limits;
    limits.deadline_seconds = (times.open_s + times.done_s) / 2;
    QueryGovernor gov(limits, db_->machine()->NowSeconds());
    ctx->set_governor(&gov);
    auto op = InstantiatePlan(*plan, ctx.get());
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    DrainProbe probe(std::move(op).value(), nullptr, 0);
    auto res = ExecuteOperatorColumnar(&probe, ctx.get());
    EXPECT_TRUE(res.status().IsDeadlineExceeded()) << res.status().ToString();
    EXPECT_EQ(ctx->memory_tracker()->current_bytes(), 0u);
    EXPECT_TRUE(probe.closed());
    EXPECT_GT(ctx->stats().tuples_output, 0u);
  }
  // A clean drain leaves the tracker at zero too.
  auto ctx = db_->MakeExecContext();
  auto op = InstantiatePlan(*plan, ctx.get());
  ASSERT_TRUE(op.ok());
  DrainProbe probe(std::move(op).value(), nullptr, 0);
  ASSERT_TRUE(ExecuteOperatorColumnar(&probe, ctx.get()).ok());
  EXPECT_EQ(ctx->memory_tracker()->current_bytes(), 0u);
  EXPECT_TRUE(probe.closed());
}

TEST_F(GovernorTest, RootSortDrainTripsThroughQueryTask) {
  PlanNodePtr plan = Plan(kRootSortSql);
  const DrainTimes times = TimeDrain(db_, *plan);
  ASSERT_GT(times.steps, 8);

  {  // Cancel flag set after a few drain steps.
    QueryTask task(plan.get(), db_->MakeExecContext());
    QueryLimits limits;
    limits.cancel_flag = std::make_shared<std::atomic<bool>>(false);
    task.Govern(limits, db_->machine()->NowSeconds());
    ASSERT_EQ(task.Step(), QueryTask::State::kRunning);  // Open: the sort
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(task.Step(), QueryTask::State::kRunning);
    }
    EXPECT_GT(task.ctx()->memory_tracker()->current_bytes(), 0u);
    limits.cancel_flag->store(true);
    EXPECT_EQ(task.Step(), QueryTask::State::kFailed);
    EXPECT_TRUE(task.status().IsCancelled()) << task.status().ToString();
    // The sort's pool is released only by its Close.
    EXPECT_EQ(task.ctx()->memory_tracker()->current_bytes(), 0u);
    EXPECT_EQ(task.stats().tuples_output, 3u * RowBatch::kDefaultBatchRows);
    EXPECT_EQ(task.Step(), QueryTask::State::kFailed);  // inert
  }
  {  // Deadline falling between the end of Open and the end of the drain.
    QueryTask task(plan.get(), db_->MakeExecContext());
    QueryLimits limits;
    limits.deadline_seconds = (times.open_s + times.done_s) / 2;
    task.Govern(limits, db_->machine()->NowSeconds());
    ASSERT_EQ(task.Step(), QueryTask::State::kRunning);
    int drained = 0;
    while (task.Step() == QueryTask::State::kRunning) ++drained;
    EXPECT_EQ(task.state(), QueryTask::State::kFailed);
    EXPECT_TRUE(task.status().IsDeadlineExceeded())
        << task.status().ToString();
    EXPECT_GT(drained, 0);
    EXPECT_LT(drained, times.steps);
    EXPECT_EQ(task.ctx()->memory_tracker()->current_bytes(), 0u);
  }
  auto ok = db_->ExecuteSql("SELECT COUNT(*) AS n FROM region");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
}

// --- Fault injection ---

std::unique_ptr<Database> MakeFaultyDb(double transient, double persistent,
                                       uint64_t seed = 0xFA17) {
  DatabaseOptions opt;
  opt.profile = EngineProfile::Commercial();
  opt.fault_injection.seed = seed;
  opt.fault_injection.transient_fault_rate = transient;
  opt.fault_injection.persistent_fault_rate = persistent;
  auto db = std::make_unique<Database>(opt);
  tpch::DbGenOptions gen;
  gen.scale_factor = testing::kTestSf;
  if (!db->LoadTpch(gen).ok()) return nullptr;
  return db;
}

TEST(FaultInjectionTest, PersistentFaultPropagatesCleanly) {
  auto db = MakeFaultyDb(/*transient=*/0.0, /*persistent=*/1.0);
  ASSERT_NE(db, nullptr);
  auto res = db->ExecuteSql("SELECT COUNT(*) AS n FROM lineitem");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsHardwareFault()) << res.status().ToString();
  EXPECT_GE(db->buffer_pool()->stats().persistent_faults, 1u);
  EXPECT_EQ(db->buffer_pool()->stats().retries, 0u);
}

TEST(FaultInjectionTest, TransientFaultsExhaustRetryBudget) {
  auto db = MakeFaultyDb(/*transient=*/1.0, /*persistent=*/0.0);
  ASSERT_NE(db, nullptr);
  const EnergyLedger before = db->machine()->ledger();
  auto res = db->ExecuteSql("SELECT COUNT(*) AS n FROM lineitem");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsHardwareFault()) << res.status().ToString();
  const BufferPoolStats& st = db->buffer_pool()->stats();
  const int max_retries = db->options().fault_injection.max_retries;
  EXPECT_EQ(st.retries, static_cast<uint64_t>(max_retries));
  EXPECT_EQ(st.transient_faults, static_cast<uint64_t>(max_retries) + 1);
  // The faulted attempts and backoff waits charged real simulated time
  // and energy (reads run to completion before the fault is detected;
  // backoff idles the machine).
  const EnergyLedger& after = db->machine()->ledger();
  EXPECT_GT(after.io_s, before.io_s);
  EXPECT_GT(after.idle_s, before.idle_s);
  EXPECT_GT(after.wall_j, before.wall_j);
}

TEST(FaultInjectionTest, TransientRetriesSucceedAndChargeEnergy) {
  // Moderate transient rate: reads retry and eventually succeed; the
  // same query costs measurably more energy than on a fault-free pool,
  // monotonically in the fault rate.
  const char* kSql = "SELECT COUNT(*) AS n FROM lineitem";
  double prev_joules = -1.0;
  uint64_t prev_retries = 0;
  for (double rate : {0.0, 0.05, 0.2}) {
    SCOPED_TRACE(rate);
    auto db = MakeFaultyDb(rate, /*persistent=*/0.0);
    ASSERT_NE(db, nullptr);
    db->ColdRestart();
    auto res = db->ExecuteSql(kSql);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    const uint64_t retries =
        db->fault_injector() ? db->buffer_pool()->stats().retries : 0;
    EXPECT_GT(res.value().wall_joules, prev_joules);
    EXPECT_GE(retries, prev_retries);
    prev_joules = res.value().wall_joules;
    prev_retries = retries;
  }
}

TEST(FaultInjectionTest, DisabledInjectorLeavesReadPathUntouched) {
  auto plain = testing::MakeTestDb(EngineProfile::Commercial());
  auto zero = MakeFaultyDb(/*transient=*/0.0, /*persistent=*/0.0);
  ASSERT_NE(plain, nullptr);
  ASSERT_NE(zero, nullptr);
  EXPECT_EQ(zero->fault_injector(), nullptr);  // rates of zero => disabled
  plain->ColdRestart();
  zero->ColdRestart();
  auto a = plain->ExecuteSql("SELECT COUNT(*) AS n FROM lineitem");
  auto b = zero->ExecuteSql("SELECT COUNT(*) AS n FROM lineitem");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().wall_joules, b.value().wall_joules);
  EXPECT_EQ(a.value().seconds, b.value().seconds);
}

TEST(FaultInjectionTest, SameSeedSameSchedule) {
  FaultInjectorConfig cfg;
  cfg.seed = 123;
  cfg.transient_fault_rate = 0.1;
  cfg.persistent_fault_rate = 0.01;
  FaultInjector a(cfg);
  FaultInjector b(cfg);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextReadOutcome(), b.NextReadOutcome()) << i;
  }
  EXPECT_EQ(a.decisions(), 1000u);
  a.Reset();
  b.Reset();
  EXPECT_EQ(a.decisions(), 0u);
  EXPECT_EQ(a.NextReadOutcome(), b.NextReadOutcome());
}

}  // namespace
}  // namespace ecodb
