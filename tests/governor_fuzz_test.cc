// Robustness fuzz: random plans under random governor limits
// (charged-cycle cancellation, simulated-time deadlines, tiny memory
// budgets) and random disk-fault schedules must always yield a clean
// Status — never a crash, never a leak (the ASan configuration enforces
// that), never a nondeterministic verdict: a re-run of the same seed,
// and a second Database fed the same seeds, must report the SAME
// status.
//
// Knobs (env):
//   ECODB_GOVFUZZ_PLANS        governed seeds          (default 480)
//   ECODB_GOVFUZZ_FAULT_PLANS  fault-schedule seeds    (default 120)
//   ECODB_GOVFUZZ_SEED         base seed               (default 0x90BE12)

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <string>

#include "ecodb/ecodb.h"
#include "plan_fuzzer.h"
#include "test_util.h"

namespace ecodb {
namespace {

uint64_t EnvU64(const char* name, uint64_t def) {
  if (const char* s = std::getenv(name)) return std::strtoull(s, nullptr, 0);
  return def;
}

Status RunGoverned(Database* db, const PlanNode& plan,
                   const QueryLimits& limits) {
  auto ctx = db->MakeExecContext();
  std::unique_ptr<QueryGovernor> gov;
  if (!limits.None()) {
    gov = std::make_unique<QueryGovernor>(limits,
                                          db->machine()->NowSeconds());
    ctx->set_governor(gov.get());
  }
  auto res = ExecutePlanColumnar(plan, ctx.get());
  ctx->Flush();
  return res.status();
}

bool IsCleanGovernedStatus(const Status& st) {
  return st.ok() || st.IsCancelled() || st.IsDeadlineExceeded() ||
         st.IsResourceExhausted();
}

class GovernorFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatabaseOptions opt;
    opt.profile = EngineProfile::MySqlMemory();
    db_ = new Database(opt);
    tpch::DbGenOptions gen;
    gen.scale_factor = testing::kTestSf;
    ASSERT_TRUE(db_->LoadTpch(gen).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static Database* db_;
};

Database* GovernorFuzzTest::db_ = nullptr;

TEST_F(GovernorFuzzTest, GovernedPlansAlwaysYieldACleanDeterministicStatus) {
  const uint64_t base = EnvU64("ECODB_GOVFUZZ_SEED", 0x90BE12);
  const uint64_t n = EnvU64("ECODB_GOVFUZZ_PLANS", 480);
  uint64_t n_cancelled = 0, n_deadline = 0, n_exhausted = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t seed = base + i;
    SCOPED_TRACE("govfuzz seed " + std::to_string(seed) +
                 " (rerun with ECODB_GOVFUZZ_SEED=" + std::to_string(seed) +
                 " ECODB_GOVFUZZ_PLANS=1)");
    testing::PlanFuzzer fuzzer(seed, *db_->catalog());
    PlanNodePtr plan = fuzzer.Generate();
    ASSERT_NE(plan, nullptr);

    // Axis and trigger values are a deterministic function of the seed.
    std::mt19937_64 rng(~seed);
    QueryLimits limits;
    switch (i % 4) {
      case 0:
        break;  // ungoverned baseline: must succeed
      case 1:
        limits.cancel_at_charged_cycles = std::uniform_real_distribution<>(
            1e6, 8e7)(rng);
        break;
      case 2: {
        // Deadline at a fraction of the plan's own duration, measured
        // first: the fraction stays clear of 1.0, where the run-to-run
        // drift of simulated time with machine state could flip the
        // verdict. Fractions > 1 (no trip) are covered by the margin
        // added for sub-quantum plans, which never trip at all.
        const double frac = std::uniform_real_distribution<>(0.1, 0.9)(rng);
        EnergyLedger before = db_->machine()->ledger();
        Status full = RunGoverned(db_, *plan, QueryLimits{});
        ASSERT_TRUE(full.ok()) << full.ToString();
        EnergyLedger after = db_->machine()->ledger();
        const double dur = after.ElapsedS() - before.ElapsedS();
        limits.deadline_seconds = std::max(dur * frac, 1e-12);
        break;
      }
      default:
        limits.memory_budget_bytes =
            std::uniform_int_distribution<uint64_t>(1024, 4u << 20)(rng);
        break;
    }

    Status first = RunGoverned(db_, *plan, limits);
    EXPECT_TRUE(IsCleanGovernedStatus(first)) << first.ToString();
    if (i % 4 == 0) {
      ASSERT_TRUE(first.ok()) << first.ToString();
    }
    // Determinism: the same seed reproduces the same verdict, and so does
    // the plan under a LIMIT that never binds (one-row pulls for a
    // streaming root): limits trip at positions that do not depend on
    // the pull size.
    Status again = RunGoverned(db_, *plan, limits);
    ASSERT_EQ(first.code(), again.code())
        << "first: " << first.ToString() << " again: " << again.ToString();
    Status twin = RunGoverned(db_, *testing::LimitTwin(*plan), limits);
    ASSERT_EQ(first.code(), twin.code())
        << "first: " << first.ToString() << " twin: " << twin.ToString();
    n_cancelled += first.IsCancelled();
    n_deadline += first.IsDeadlineExceeded();
    n_exhausted += first.IsResourceExhausted();
    if (::testing::Test::HasFatalFailure()) return;
  }
  if (n >= 100) {
    // The harness only proves anything if the governor actually fires.
    EXPECT_GT(n_cancelled, 0u);
    EXPECT_GT(n_deadline, 0u);
    EXPECT_GT(n_exhausted, 0u);
  }
}

std::unique_ptr<Database> MakeFaultyDb(uint64_t seed) {
  DatabaseOptions opt;
  opt.profile = EngineProfile::Commercial();
  opt.fault_injection.seed = seed;
  opt.fault_injection.transient_fault_rate = 0.004;
  opt.fault_injection.persistent_fault_rate = 0.0004;
  auto db = std::make_unique<Database>(opt);
  tpch::DbGenOptions gen;
  gen.scale_factor = testing::kTestSf;
  if (!db->LoadTpch(gen).ok()) return nullptr;
  return db;
}

TEST(GovernorFaultFuzzTest, FaultSchedulesAreDeterministic) {
  const uint64_t base = EnvU64("ECODB_GOVFUZZ_SEED", 0x90BE12);
  const uint64_t n = EnvU64("ECODB_GOVFUZZ_FAULT_PLANS", 120);
  auto db = MakeFaultyDb(base);
  auto twin_db = MakeFaultyDb(base);
  ASSERT_NE(db, nullptr);
  ASSERT_NE(twin_db, nullptr);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t seed = base + i;
    SCOPED_TRACE("faultfuzz seed " + std::to_string(seed));
    testing::PlanFuzzer fuzzer(seed, *db->catalog());
    PlanNodePtr plan = fuzzer.Generate();
    ASSERT_NE(plan, nullptr);
    db->ColdRestart();
    twin_db->ColdRestart();
    auto res = db->ExecutePlanQuery(*plan);
    // The twin runs the plan under a LIMIT that never binds, pulling a
    // streaming root one row at a time: the page-read sequence must not
    // depend on the pull size.
    auto twin = twin_db->ExecutePlanQuery(*testing::LimitTwin(*plan));
    EXPECT_TRUE(res.ok() || res.status().IsHardwareFault())
        << res.status().ToString();
    ASSERT_EQ(res.status().code(), twin.status().code())
        << "plain: " << res.status().ToString()
        << " twin: " << twin.status().ToString();
    // Both issue the identical page-read sequence, so the two injectors
    // must stay in lockstep query after query — the strongest form of
    // per-seed determinism.
    ASSERT_EQ(db->fault_injector()->decisions(),
              twin_db->fault_injector()->decisions());
    if (res.ok()) {
      ASSERT_EQ(res.value().num_rows(), twin.value().num_rows());
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(GovernorFaultFuzzTest, SameSeedSameVerdictOnFreshDatabases) {
  const uint64_t base = EnvU64("ECODB_GOVFUZZ_SEED", 0x90BE12);
  std::string first, second;
  for (int round = 0; round < 2; ++round) {
    auto db = MakeFaultyDb(base + 7);
    ASSERT_NE(db, nullptr);
    std::string verdicts;
    for (uint64_t i = 0; i < 10; ++i) {
      testing::PlanFuzzer fuzzer(base + i, *db->catalog());
      PlanNodePtr plan = fuzzer.Generate();
      db->ColdRestart();
      auto res = db->ExecutePlanQuery(*plan);
      verdicts += StatusCodeName(res.status().code());
      verdicts += ';';
    }
    (round == 0 ? first : second) = verdicts;
  }
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace ecodb
