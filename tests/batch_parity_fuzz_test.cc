// Differential fuzz harness for the executor.
//
// Generates hundreds of random physical plans over the dbgen TPC-H tables
// — scans, typed predicates (compare / BETWEEN / IN-list / AND-OR-NOT
// chains, column-vs-column and column-vs-sampled-literal), projections
// with arithmetic (including NULL-producing division), FK hash-join
// chains, nested-loop joins, group-by aggregation, sort and limit, with
// limits below, at and far above the child cardinality, including 0 —
// and executes every plan on the sequential engine, on the
// morsel-parallel engine (ECODB_FUZZ_WORKERS workers, default 3) and in
// the tests-only reference evaluator (tests/reference_eval.h),
// asserting:
//
//   * result rows identical, in order, to the reference evaluator's;
//   * the parallel engine bit-exact to the sequential one in every
//     integer logical-work counter, with simulated time and energy
//     within 0.1%;
//   * for a streaming root, a LIMIT twin that never binds (so pulls one
//     row at a time) charging identical integer counters, with energy
//     within 0.1%.
//
// Each plan is derived from its own seed; on failure the seed is in every
// assertion message (SCOPED_TRACE), so a run reproduces with
// ECODB_FUZZ_SEED=<seed> (and ECODB_FUZZ_PLANS=1). ECODB_FUZZ_PLANS
// scales the number of plans (default 224).
//
// This is the acceptance gate named in docs/architecture.md: new
// operators and kernel fast paths land only if this harness stays green.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "ecodb/ecodb.h"
#include "plan_fuzzer.h"
#include "reference_eval.h"
#include "test_util.h"

namespace ecodb {
namespace {

constexpr double kChargeRelTol = 1e-9;
constexpr double kEnergyRelTol = 1e-3;

void ExpectNearRel(double a, double b, double tol, const char* what) {
  double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
  EXPECT_LE(std::fabs(a - b) / scale, tol) << what << ": " << a << " vs "
                                           << b;
}

/// True when `node`'s operator streams its output (scan, filter,
/// project, joins, or a limit over one of those) rather than emitting
/// state materialized at Open (sort, aggregation).
bool IsStreamingRoot(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kAggregate:
    case PlanKind::kSort:
      return false;
    case PlanKind::kLimit:
      return IsStreamingRoot(*node.children[0]);
    default:
      return true;
  }
}

/// Same rows in the same order, bit-exact integer counters, charged
/// cycles/lines to 1e-9, and simulated time and energy within 0.1%.
void ExpectSameWork(const QueryResult& a, const QueryResult& b) {
  ASSERT_EQ(a.rows().size(), b.rows().size());
  for (size_t i = 0; i < a.rows().size(); ++i) {
    ASSERT_EQ(RowToString(a.rows()[i]), RowToString(b.rows()[i]))
        << "row " << i;
  }
  const QueryExecStats& x = a.exec_stats;
  const QueryExecStats& y = b.exec_stats;
  EXPECT_EQ(x.tuples_scanned, y.tuples_scanned);
  EXPECT_EQ(x.tuples_output, y.tuples_output);
  EXPECT_EQ(x.comparisons, y.comparisons);
  EXPECT_EQ(x.arith_ops, y.arith_ops);
  EXPECT_EQ(x.hash_builds, y.hash_builds);
  EXPECT_EQ(x.hash_probes, y.hash_probes);
  EXPECT_EQ(x.agg_updates, y.agg_updates);
  EXPECT_EQ(x.sort_compares, y.sort_compares);
  EXPECT_EQ(x.spill_bytes, y.spill_bytes);
  EXPECT_EQ(x.peak_memory_bytes, y.peak_memory_bytes);
  ExpectNearRel(x.cycles_charged, y.cycles_charged, kChargeRelTol,
                "cycles_charged");
  ExpectNearRel(x.mem_lines_charged, y.mem_lines_charged, kChargeRelTol,
                "mem_lines_charged");
  ExpectNearRel(a.seconds, b.seconds, kEnergyRelTol, "seconds");
  ExpectNearRel(a.cpu_joules, b.cpu_joules, kEnergyRelTol, "cpu_joules");
  ExpectNearRel(a.disk_joules, b.disk_joules, kEnergyRelTol, "disk_joules");
  ExpectNearRel(a.wall_joules, b.wall_joules, kEnergyRelTol, "wall_joules");
}

class BatchParityFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatabaseOptions batch_opt;
    batch_opt.profile = EngineProfile::MySqlMemory();
    batch_db_ = new Database(batch_opt);
    // Second axis: the morsel-parallel engine. ECODB_FUZZ_WORKERS
    // overrides the worker count (default 3 — an odd count exercises
    // uneven static schedules).
    int workers = 3;
    if (const char* s = std::getenv("ECODB_FUZZ_WORKERS")) {
      workers = std::atoi(s);
    }
    DatabaseOptions par_opt;
    par_opt.profile = EngineProfile::MySqlMemory();
    par_opt.exec_workers = workers;
    parallel_db_ = new Database(par_opt);
    tpch::DbGenOptions gen;
    gen.scale_factor = testing::kTestSf;
    ASSERT_TRUE(batch_db_->LoadTpch(gen).ok());
    ASSERT_TRUE(parallel_db_->LoadTpch(gen).ok());
  }
  static void TearDownTestSuite() {
    delete batch_db_;
    delete parallel_db_;
    batch_db_ = nullptr;
    parallel_db_ = nullptr;
  }

  void CheckPlanParity(uint64_t seed, bool breaker_root = false) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed) +
                 " (rerun with ECODB_FUZZ_SEED=" + std::to_string(seed) +
                 " ECODB_FUZZ_PLANS=1)");
    testing::PlanFuzzer fuzzer(seed, *batch_db_->catalog());
    PlanNodePtr plan =
        breaker_root ? fuzzer.GenerateBreakerRoot() : fuzzer.Generate();
    ASSERT_NE(plan, nullptr);
    SCOPED_TRACE("plan:\n" + plan->Explain());

    auto batch_res = batch_db_->ExecutePlanQuery(*plan);
    auto par_res = parallel_db_->ExecutePlanQuery(*plan);
    ASSERT_TRUE(batch_res.ok()) << batch_res.status().ToString();
    ASSERT_TRUE(par_res.ok()) << par_res.status().ToString();

    // Answers: the sequential engine against the reference evaluator.
    const QueryResult& b = batch_res.value();
    const std::vector<Row> expect =
        testing::ReferenceEvaluate(*plan, *batch_db_->catalog());
    ASSERT_EQ(expect.size(), b.rows().size());
    for (size_t i = 0; i < expect.size(); ++i) {
      ASSERT_EQ(RowToString(expect[i]), RowToString(b.rows()[i]))
          << "row " << i;
    }

    // The parallel engine against the sequential one.
    {
      SCOPED_TRACE("parallel");
      ExpectSameWork(b, par_res.value());
    }

    // LIMIT twin: a limit that never binds over a streaming root drives
    // the same pipeline through the limit's one-row pulls, which must
    // charge exactly the work of a plain drain. This is what catches
    // charges whose amount depends on how many rows a pull carries.
    if (IsStreamingRoot(*plan)) {
      SCOPED_TRACE("limit twin");
      ++twins_run_;
      auto twin_res = batch_db_->ExecutePlanQuery(*testing::LimitTwin(*plan));
      ASSERT_TRUE(twin_res.ok()) << twin_res.status().ToString();
      ExpectSameWork(b, twin_res.value());
    }
  }

  static Database* batch_db_;
  static Database* parallel_db_;
  static size_t twins_run_;
};

Database* BatchParityFuzzTest::batch_db_ = nullptr;
Database* BatchParityFuzzTest::parallel_db_ = nullptr;
size_t BatchParityFuzzTest::twins_run_ = 0;

TEST_F(BatchParityFuzzTest, HundredsOfRandomPlansMatch) {
  uint64_t base_seed = 0xEC0DB0;
  size_t n_plans = 224;
  if (const char* s = std::getenv("ECODB_FUZZ_SEED")) {
    base_seed = std::strtoull(s, nullptr, 0);
  }
  if (const char* s = std::getenv("ECODB_FUZZ_PLANS")) {
    n_plans = std::strtoull(s, nullptr, 0);
  }
  for (size_t i = 0; i < n_plans; ++i) {
    CheckPlanParity(base_seed + i);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // About a third of the generated plans have a streaming root.
  if (n_plans >= 24) {
    EXPECT_GT(twins_run_, 0u);
  }
}

// Every plan ends in a pipeline breaker (aggregation root, sort root, or
// both, half the time over multi-join bases), pinning the parallel
// breakers' canonical charge accounting — partitioned hash build,
// partial-agg merge, sorted-run merge — against the sequential engine at
// whatever ECODB_FUZZ_WORKERS is set to (check.sh sweeps 2, 3 and 8).
TEST_F(BatchParityFuzzTest, BreakerRootPlansMatch) {
  uint64_t base_seed = 0xB4EA4E4;
  size_t n_plans = 96;
  if (const char* s = std::getenv("ECODB_FUZZ_SEED")) {
    base_seed = std::strtoull(s, nullptr, 0);
  }
  if (const char* s = std::getenv("ECODB_FUZZ_PLANS")) {
    n_plans = std::strtoull(s, nullptr, 0);
  }
  for (size_t i = 0; i < n_plans; ++i) {
    CheckPlanParity(base_seed + i, /*breaker_root=*/true);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ecodb
