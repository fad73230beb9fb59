// Morsel-driven parallel execution parity suite.
//
// The parallel engine's contract: at ANY worker count, results and
// integer logical-work counters are bit-exact against single-threaded
// execution, charged cycles agree to fp re-association (1e-9 relative),
// and simulated energy stays within the 0.1% acceptance bound. Same seed
// + same worker count must be bit-identical run to run (static morsel
// schedule, ordered replay). Per-core ledgers are the
// additive concurrency view and never perturb the shared parity ledger.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "ecodb/ecodb.h"
#include "ecodb/exec/morsel.h"
#include "test_util.h"

namespace ecodb {
namespace {

constexpr double kChargeRelTol = 1e-9;
constexpr double kEnergyRelTol = 1e-3;

void ExpectNearRel(double a, double b, double tol, const char* what) {
  double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
  EXPECT_LE(std::fabs(a - b) / scale, tol) << what << ": " << a << " vs " << b;
}

void ExpectCountersEqual(const QueryExecStats& seq,
                         const QueryExecStats& par) {
  EXPECT_EQ(seq.tuples_scanned, par.tuples_scanned);
  EXPECT_EQ(seq.tuples_output, par.tuples_output);
  EXPECT_EQ(seq.comparisons, par.comparisons);
  EXPECT_EQ(seq.arith_ops, par.arith_ops);
  EXPECT_EQ(seq.hash_builds, par.hash_builds);
  EXPECT_EQ(seq.hash_probes, par.hash_probes);
  EXPECT_EQ(seq.agg_updates, par.agg_updates);
  EXPECT_EQ(seq.sort_compares, par.sort_compares);
  EXPECT_EQ(seq.spill_bytes, par.spill_bytes);
  EXPECT_EQ(seq.peak_memory_bytes, par.peak_memory_bytes);
  ExpectNearRel(seq.cycles_charged, par.cycles_charged, kChargeRelTol,
                "cycles_charged");
  ExpectNearRel(seq.mem_lines_charged, par.mem_lines_charged, kChargeRelTol,
                "mem_lines_charged");
}

void ExpectRowsEqual(const std::vector<Row>& a, const std::vector<Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(RowToString(a[i]), RowToString(b[i])) << "row " << i;
  }
}

// --- Plan-level parity over hand-built tables ---

struct RunResult {
  std::vector<Row> rows;
  QueryExecStats stats;
  double cpu_j = 0;
  double wall_j = 0;
  double seconds = 0;
  std::vector<CoreLedger> cores;
};

class ParallelExecTest : public ::testing::Test {
 protected:
  ParallelExecTest() {
    // Several morsels' worth of rows (kMorselRows == 8192) so the
    // schedule actually fans out, plus a build-side-sized table.
    testing::MakeSimpleTable(&catalog_, "big", 40000, 7);
    testing::MakeSimpleTable(&catalog_, "small", 37, 5);
  }

  PlanNodePtr Scan(const std::string& name) {
    return MakeScan(catalog_, name).value();
  }
  ExprPtr K() { return Col(0, ValueType::kInt64, "k"); }
  ExprPtr V() { return Col(1, ValueType::kDouble, "v"); }
  ExprPtr S() { return Col(2, ValueType::kString, "s"); }

  AggSpec Agg(AggSpec::Kind kind, ExprPtr arg, const std::string& name) {
    AggSpec a;
    a.kind = kind;
    a.arg = std::move(arg);
    a.name = name;
    return a;
  }

  /// Runs `plan` on a fresh machine with `workers` morsel workers and
  /// returns everything the simulation reports about it.
  RunResult Run(const PlanNode& plan, int workers) {
    Machine machine(MachineConfig::PaperTestbed());
    EngineProfile profile = EngineProfile::MySqlMemory();
    BufferPool pool(&machine, 0);
    ExecContext ctx(&machine, &profile, &catalog_, &pool);
    ctx.set_exec_workers(workers);
    double t0 = machine.NowSeconds();
    auto rows = ExecutePlan(plan, &ctx);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    ctx.Flush();
    RunResult r;
    if (rows.ok()) r.rows = std::move(rows).value();
    r.stats = ctx.stats();
    r.cpu_j = machine.ledger().cpu_j;
    r.wall_j = machine.ledger().wall_j;
    r.seconds = machine.NowSeconds() - t0;
    r.cores = machine.core_ledgers();
    return r;
  }

  /// Parity across worker counts: rows identical, counters bit-exact,
  /// cycles to fp-association, energy within the 0.1% bound.
  void ExpectParallelParity(const PlanNode& plan) {
    RunResult seq = Run(plan, 1);
    for (int workers : {2, 3, 8}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      RunResult par = Run(plan, workers);
      ExpectRowsEqual(seq.rows, par.rows);
      ExpectCountersEqual(seq.stats, par.stats);
      ExpectNearRel(seq.cpu_j, par.cpu_j, kEnergyRelTol, "cpu_j");
      ExpectNearRel(seq.wall_j, par.wall_j, kEnergyRelTol, "wall_j");
      ExpectNearRel(seq.seconds, par.seconds, kEnergyRelTol, "seconds");
    }
  }

  Catalog catalog_;
};

TEST_F(ParallelExecTest, ScanOnly) { ExpectParallelParity(*Scan("big")); }

TEST_F(ParallelExecTest, FilterAtRoot) {
  ExpectParallelParity(
      *MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(11000))));
}

TEST_F(ParallelExecTest, FilterEmptyResult) {
  ExpectParallelParity(
      *MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(-1))));
}

TEST_F(ParallelExecTest, ProjectOverFilter) {
  ExpectParallelParity(*MakeProject(
      MakeFilter(Scan("big"), Cmp(CompareOp::kGe, K(), LitInt(100))),
      {Arith(ArithOp::kMul, K(), LitInt(3)),
       Arith(ArithOp::kAdd, V(), LitDbl(0.5)), S()},
      {"k3", "v5", "s"}));
}

TEST_F(ParallelExecTest, AggregateOverSpine) {
  ExpectParallelParity(*MakeAggregate(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(33000))), {S()},
      {Agg(AggSpec::Kind::kSum, V(), "sum_v"),
       Agg(AggSpec::Kind::kMax, K(), "max_k")}));
}

TEST_F(ParallelExecTest, HashJoinProbeSpine) {
  // small (build) x big (probe): the probe side is the morsel spine, the
  // build is executed once by the coordinator and shared.
  ExpectParallelParity(*MakeHashJoin(Scan("small"), Scan("big"), {0}, {0}));
}

TEST_F(ParallelExecTest, HashJoinMultiMatchProbeSpine) {
  // Duplicate string keys: many matches per probe row, so worker-side
  // output batches fill mid-chain and morsel-end partial batches differ
  // from the single-threaded grouping — counters must not care.
  ExpectParallelParity(*MakeHashJoin(Scan("small"), Scan("big"), {2}, {2}));
}

TEST_F(ParallelExecTest, NestedJoinSpineTwoBuilds) {
  // join(small2, join(small, big)): one spine, two coordinator builds,
  // probed concurrently by every worker.
  PlanNodePtr inner = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
  ExpectParallelParity(
      *MakeHashJoin(Scan("small"), std::move(inner), {0}, {0}));
}

TEST_F(ParallelExecTest, ParallelBuildSide) {
  // big (build) x small (probe): the *build* subtree is the heavy spine;
  // it parallelizes as a nested morsel stream feeding the coordinator's
  // sequential insert loop.
  ExpectParallelParity(*MakeHashJoin(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(2500))),
      Scan("small"), {0}, {0}));
}

TEST_F(ParallelExecTest, SortOverJoinSpine) {
  ExpectParallelParity(*MakeSort(
      MakeHashJoin(Scan("small"), Scan("big"), {0}, {0}),
      {SortKey{Col(4, ValueType::kDouble, "v"), false}}));
}

TEST_F(ParallelExecTest, LimitOverStreamingSpineStaysSequential) {
  // A streaming child of Limit may stop early — never wrapped. Parity
  // must hold trivially (both sides run the sequential tree).
  ExpectParallelParity(*MakeLimit(
      MakeFilter(Scan("big"), Cmp(CompareOp::kGe, K(), LitInt(5))), 100));
}

TEST_F(ParallelExecTest, LimitOverAggregateWrapsBelow) {
  // Materialized child of Limit: the aggregate's input is a full-drain
  // slot and parallelizes even though the limit truncates the output.
  ExpectParallelParity(*MakeLimit(
      MakeAggregate(Scan("big"), {S()},
                    {Agg(AggSpec::Kind::kCount, nullptr, "n")}),
      3));
}

TEST_F(ParallelExecTest, NestedLoopInnerSpine) {
  // The NLJ inner side is materialized at Open (full-drain slot); its
  // filter-over-big spine parallelizes under the sequential NLJ.
  ExpectParallelParity(*MakeNestedLoopJoin(
      Scan("small"),
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(40))),
      Cmp(CompareOp::kEq, Col(0, ValueType::kInt64, "k"),
          Col(3, ValueType::kInt64, "k2"))));
}

TEST_F(ParallelExecTest, SameWorkerCountBitIdentical) {
  // Static morsel schedule + ordered replay: two runs at the same worker
  // count are bit-identical in every double the simulation reports.
  PlanNodePtr plan = MakeAggregate(
      MakeHashJoin(Scan("small"), Scan("big"), {0}, {0}), {Col(2, ValueType::kString, "s")},
      {Agg(AggSpec::Kind::kSum, Col(4, ValueType::kDouble, "v"), "sum_v")});
  RunResult a = Run(*plan, 3);
  RunResult b = Run(*plan, 3);
  ExpectRowsEqual(a.rows, b.rows);
  EXPECT_EQ(a.stats.cycles_charged, b.stats.cycles_charged);
  EXPECT_EQ(a.stats.mem_lines_charged, b.stats.mem_lines_charged);
  EXPECT_EQ(a.cpu_j, b.cpu_j);
  EXPECT_EQ(a.wall_j, b.wall_j);
  EXPECT_EQ(a.seconds, b.seconds);
}

TEST_F(ParallelExecTest, CoreLedgersSeeWorkerWork) {
  PlanNodePtr plan =
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(11000)));
  RunResult par = Run(*plan, 2);
  // PaperTestbed models 2 cores; the static schedule gives both workers
  // morsels, so both core ledgers accrue cycles. The shared parity
  // ledger got the same work via replay (checked by the parity tests).
  ASSERT_EQ(par.cores.size(), 2u);
  EXPECT_GT(par.cores[0].cycles, 0.0);
  EXPECT_GT(par.cores[1].cycles, 0.0);
  EXPECT_GT(par.cores[0].busy_s, 0.0);
  // Workers recorded; the coordinator replayed: the concurrency view and
  // the parity account agree on total spine cycles (the filter spine is
  // the whole plan here, minus the coordinator-side output charges).
  EXPECT_LE(par.cores[0].cycles + par.cores[1].cycles,
            par.stats.cycles_charged * (1.0 + 1e-9));
  // Sequential runs never touch the core ledgers.
  RunResult seq = Run(*plan, 1);
  EXPECT_EQ(seq.cores[0].cycles, 0.0);
  EXPECT_EQ(seq.cores[1].cycles, 0.0);
}

// --- Parallel pipeline breakers ---

TEST_F(ParallelExecTest, ParallelBuildDuplicateChainOrder) {
  // big as the BUILD side on a duplicate string key: the partitioned
  // parallel build must stitch per-batch fragments so every duplicate
  // chain comes out insertion-order-equivalent to the sequential build —
  // probe matches emit in build-row order, and the probe-side chain
  // walks charge identical compare counts.
  ExpectParallelParity(*MakeHashJoin(Scan("big"), Scan("small"), {2}, {2}));
}

TEST_F(ParallelExecTest, ParallelBuildUnderFilterSpine) {
  // Filtered build spine: per-batch fragments arrive with gaps (selection
  // vectors), and the trailing grace-hash spill charge must equal the
  // sequential build's.
  ExpectParallelParity(*MakeHashJoin(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(2500))),
      Scan("small"), {0}, {0}));
}

TEST_F(ParallelExecTest, ParallelAggSumCountMinMax) {
  // Every accumulator kind through the worker-partial / coordinator-merge
  // split: SUM/AVG ride the shipped-double path, MIN/MAX the shipped
  // operand path, COUNT(*) ships nothing.
  ExpectParallelParity(*MakeAggregate(
      Scan("big"), {S()},
      {Agg(AggSpec::Kind::kSum, V(), "sum_v"),
       Agg(AggSpec::Kind::kAvg, V(), "avg_v"),
       Agg(AggSpec::Kind::kCount, nullptr, "n"),
       Agg(AggSpec::Kind::kMin, K(), "min_k"),
       Agg(AggSpec::Kind::kMax, S(), "max_s")}));
}

TEST_F(ParallelExecTest, ParallelAggStringExtremesAndNullableCount) {
  // String MIN/MAX fold dictionary codes sequentially and shipped string
  // columns in the coordinator's merge; the projected literal's strings
  // live in batch arenas, so a winner must be copied before its batch
  // goes. COUNT(ratio) skips the NULL that v / (k - 20000) yields at
  // k == 20000, in one morsel's batch only.
  PlanNodePtr proj = MakeProject(
      Scan("big"),
      {K(), S(), LitStr("lit"),
       Arith(ArithOp::kDiv, V(), Arith(ArithOp::kSub, K(), LitInt(20000)))},
      {"k", "s", "lit", "ratio"});
  const ExprPtr s = Col(1, ValueType::kString, "s");
  const ExprPtr ratio = Col(3, ValueType::kDouble, "ratio");
  ExpectParallelParity(*MakeAggregate(
      std::move(proj), {s},
      {Agg(AggSpec::Kind::kMin, s, "min_s"),
       Agg(AggSpec::Kind::kMax, s, "max_s"),
       Agg(AggSpec::Kind::kMax, Col(2, ValueType::kString, "lit"), "max_lit"),
       Agg(AggSpec::Kind::kCount, ratio, "n_ratio"),
       Agg(AggSpec::Kind::kMin, ratio, "min_ratio")}));
  // The same over the scan's own lanes, grouped by an integer key.
  ExpectParallelParity(*MakeAggregate(
      Scan("big"), {Arith(ArithOp::kDiv, K(), LitInt(5000))},
      {Agg(AggSpec::Kind::kMin, S(), "min_s"),
       Agg(AggSpec::Kind::kMax, S(), "max_s"),
       Agg(AggSpec::Kind::kCount,
           Arith(ArithOp::kDiv, V(), Arith(ArithOp::kSub, K(), LitInt(7))),
           "n")}));
}

TEST_F(ParallelExecTest, ParallelGlobalAggregate) {
  // No group keys: one global group, every worker ships ordinal 0, and
  // the vacuous key-compare walk must still count like sequential.
  ExpectParallelParity(*MakeAggregate(
      Scan("big"), {},
      {Agg(AggSpec::Kind::kSum, V(), "sum_v"),
       Agg(AggSpec::Kind::kCount, nullptr, "n")}));
}

TEST_F(ParallelExecTest, ParallelAggEmptyInput) {
  // Empty partitions everywhere: grouped agg yields zero rows, global
  // agg a synthetic zero-count row — identically to sequential.
  ExpectParallelParity(*MakeAggregate(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(-1))), {S()},
      {Agg(AggSpec::Kind::kSum, V(), "sum_v")}));
  ExpectParallelParity(*MakeAggregate(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(-1))), {},
      {Agg(AggSpec::Kind::kCount, nullptr, "n")}));
}

TEST_F(ParallelExecTest, ParallelSortAtRoot) {
  // Sort directly over the spine: per-worker run sorts merged by the
  // coordinator, which charges the sequential sort's formula. A
  // duplicate-heavy string key plus descending double exercises the
  // cross-run tiebreak.
  ExpectParallelParity(
      *MakeSort(Scan("big"), {SortKey{S(), true}, SortKey{V(), false}}));
}

// The sort charges SortCompareCharge of its input rows at every worker
// count: the coordinator merges the runs and charges the formula once.
TEST_F(ParallelExecTest, ParallelSortChargesTheFormulaAtEveryWorkerCount) {
  PlanNodePtr plan = MakeSort(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(30000))),
      {SortKey{S(), false}, SortKey{K(), true}});
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const RunResult r = Run(*plan, workers);
    EXPECT_EQ(r.rows.size(), 30000u);
    EXPECT_EQ(r.stats.sort_compares, SortCompareCharge(30000));
  }
}

TEST_F(ParallelExecTest, ParallelSortEmptyInput) {
  ExpectParallelParity(*MakeSort(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(-1))),
      {SortKey{K(), true}}));
}

TEST_F(ParallelExecTest, ParallelSortOverParallelBuildJoin) {
  // All three breakers' machinery in one plan: parallel build (big as
  // build side), morsel probe spine, sort root over the join.
  ExpectParallelParity(*MakeSort(
      MakeHashJoin(MakeFilter(Scan("big"),
                              Cmp(CompareOp::kLt, K(), LitInt(20000))),
                   Scan("big"), {0}, {0}),
      {SortKey{Col(4, ValueType::kDouble, "v"), false}}));
}

TEST_F(ParallelExecTest, BreakerMergeDeterminism) {
  // Same worker count, same seed => bit-identical doubles, with breaker
  // phases (parallel build + partial agg + sort) in the plan.
  PlanNodePtr plan = MakeSort(
      MakeAggregate(MakeHashJoin(Scan("big"), Scan("small"), {2}, {2}), {S()},
                    {Agg(AggSpec::Kind::kSum, V(), "sum_v")}),
      {SortKey{Col(1, ValueType::kDouble, "sum_v"), false}});
  RunResult a = Run(*plan, 8);
  RunResult b = Run(*plan, 8);
  ExpectRowsEqual(a.rows, b.rows);
  EXPECT_EQ(a.stats.cycles_charged, b.stats.cycles_charged);
  EXPECT_EQ(a.stats.mem_lines_charged, b.stats.mem_lines_charged);
  EXPECT_EQ(a.cpu_j, b.cpu_j);
  EXPECT_EQ(a.wall_j, b.wall_j);
  EXPECT_EQ(a.seconds, b.seconds);
}

TEST_F(ParallelExecTest, BreakerWorkLandsOnWorkerCores) {
  // The fix this PR pins: breaker accumulate work (partial agg here) is
  // attributed to the worker's core (w % num_cores), not bulk-charged to
  // core 0 by the coordinator. With 2 workers on the 2-core testbed both
  // ledgers must accrue, and the pool's phase mark must label agg work.
  PlanNodePtr plan = MakeAggregate(
      Scan("big"), {S()}, {Agg(AggSpec::Kind::kSum, V(), "sum_v")});
  Machine machine(MachineConfig::PaperTestbed());
  EngineProfile profile = EngineProfile::MySqlMemory();
  BufferPool pool(&machine, 0);
  ExecContext ctx(&machine, &profile, &catalog_, &pool);
  ctx.set_exec_workers(2);
  auto rows = ExecutePlan(*plan, &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  const std::vector<CoreLedger>& cores = machine.core_ledgers();
  ASSERT_EQ(cores.size(), 2u);
  EXPECT_GT(cores[0].cycles, 0.0);
  EXPECT_GT(cores[1].cycles, 0.0);
  bool saw_agg_phase = false;
  for (const CorePhase& p : machine.core_phases()) {
    if (p.label == "agg") saw_agg_phase = true;
  }
  EXPECT_TRUE(saw_agg_phase);
}

TEST_F(ParallelExecTest, EligibilityRules) {
  PlanNodePtr scan = Scan("big");
  EXPECT_TRUE(MorselEligibleSpine(*scan));
  PlanNodePtr filter =
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(10)));
  EXPECT_TRUE(MorselEligibleSpine(*filter));
  PlanNodePtr join = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
  EXPECT_TRUE(MorselEligibleSpine(*join));
  PlanNodePtr agg = MakeAggregate(
      Scan("big"), {S()}, {Agg(AggSpec::Kind::kCount, nullptr, "n")});
  EXPECT_FALSE(MorselEligibleSpine(*agg));
  // Build-side spines don't make the *join* a spine: eligibility follows
  // the probe child.
  PlanNodePtr sort_probe = MakeHashJoin(
      Scan("small"), MakeSort(Scan("big"), {SortKey{K(), true}}), {0}, {0});
  EXPECT_FALSE(MorselEligibleSpine(*sort_probe));
}

// --- Database-level parity over TPC-H benchmark queries ---

TEST(ParallelTpchTest, BenchmarkQueryParityAcrossWorkerCounts) {
  auto seq_db = testing::MakeTestDb();
  ASSERT_NE(seq_db, nullptr);

  for (int workers : {2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto par_db = testing::MakeTestDb();
    ASSERT_NE(par_db, nullptr);
    par_db->set_exec_workers(workers);

    for (const auto& [name, sql] : testing::BenchmarkSql()) {
      SCOPED_TRACE(name);
      auto seq_plan = seq_db->PlanSql(sql);
      auto par_plan = par_db->PlanSql(sql);
      ASSERT_TRUE(seq_plan.ok() && par_plan.ok());
      auto seq = seq_db->ExecutePlanQuery(*seq_plan.value());
      ASSERT_TRUE(seq.ok()) << seq.status().ToString();
      auto par = par_db->ExecutePlanQuery(*par_plan.value());
      ASSERT_TRUE(par.ok()) << par.status().ToString();
      ExpectRowsEqual(seq.value().rows(), par.value().rows());
      ExpectCountersEqual(seq.value().exec_stats, par.value().exec_stats);
      ExpectNearRel(seq.value().cpu_joules, par.value().cpu_joules,
                    kEnergyRelTol, "cpu_joules");
      ExpectNearRel(seq.value().wall_joules, par.value().wall_joules,
                    kEnergyRelTol, "wall_joules");
      ExpectNearRel(seq.value().seconds, par.value().seconds, kEnergyRelTol,
                    "seconds");
    }
  }
}

TEST(ParallelTpchTest, GovernedQueryClampsToSequential) {
  // A governor forces workers to 1; a governed parallel-configured run
  // must be bit-identical to a governed sequential run.
  auto a = testing::MakeTestDb();
  auto b = testing::MakeTestDb();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  QueryLimits limits;
  limits.deadline_seconds = 1e9;  // attached but never trips
  a->set_query_limits(limits);
  b->set_query_limits(limits);
  b->set_exec_workers(8);
  auto qa = a->PlanSql(tpch::Q1Sql("1998-09-02"));
  auto qb = b->PlanSql(tpch::Q1Sql("1998-09-02"));
  ASSERT_TRUE(qa.ok() && qb.ok());
  auto ra = a->ExecutePlanQuery(*qa.value());
  auto rb = b->ExecutePlanQuery(*qb.value());
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra.value().exec_stats.cycles_charged,
            rb.value().exec_stats.cycles_charged);
  EXPECT_EQ(ra.value().cpu_joules, rb.value().cpu_joules);
  ExpectRowsEqual(ra.value().rows(), rb.value().rows());
}

}  // namespace
}  // namespace ecodb
