// Answer and accounting suite for the executor.
//
// Every operator, and every TPC-H benchmark query on both the
// memory-resident and the disk-backed profile, is checked two ways:
//
//   * answers: identical result rows, in order, to the tests-only
//     reference evaluator (tests/reference_eval.h);
//   * accounting: the same plan under a LIMIT that never binds — which
//     pulls a streaming child one row at a time — must charge identical
//     integer logical-work counters (tuples, comparisons, arith ops, hash
//     builds/probes, agg updates, sort compares — these drive the paper's
//     Figure 6 cost shapes) and the same cycles/DRAM lines up to
//     floating-point re-association (energy within 0.1%). So no charge
//     may depend on how many rows a pull carries.
//
// LIMIT cases that stop a streaming pipeline early pin their counters
// to recorded values instead.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "ecodb/ecodb.h"
#include "reference_eval.h"
#include "test_util.h"

namespace ecodb {
namespace {

// Two tolerance classes. Charged cycles/lines differ between pull sizes
// only by fp re-association (n * x vs x + ... + x): held to 1e-9
// relative. Machine-level time/energy additionally sees the simulator
// integrate power over differently-grouped Flush steps, which perturbs
// totals a few parts in 1e5 — the acceptance bound is 0.1%.
constexpr double kChargeRelTol = 1e-9;
constexpr double kEnergyRelTol = 1e-3;

void ExpectNearRel(double a, double b, double tol, const char* what) {
  double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
  EXPECT_LE(std::fabs(a - b) / scale, tol) << what << ": " << a << " vs "
                                           << b;
}

void ExpectSameCharges(const QueryExecStats& a, const QueryExecStats& b) {
  EXPECT_EQ(a.tuples_scanned, b.tuples_scanned);
  EXPECT_EQ(a.tuples_output, b.tuples_output);
  EXPECT_EQ(a.comparisons, b.comparisons);
  EXPECT_EQ(a.arith_ops, b.arith_ops);
  EXPECT_EQ(a.hash_builds, b.hash_builds);
  EXPECT_EQ(a.hash_probes, b.hash_probes);
  EXPECT_EQ(a.agg_updates, b.agg_updates);
  EXPECT_EQ(a.sort_compares, b.sort_compares);
  EXPECT_EQ(a.spill_bytes, b.spill_bytes);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  ExpectNearRel(a.cycles_charged, b.cycles_charged, kChargeRelTol,
                "cycles_charged");
  ExpectNearRel(a.mem_lines_charged, b.mem_lines_charged, kChargeRelTol,
                "mem_lines_charged");
}

void ExpectRowsEqual(const std::vector<Row>& a, const std::vector<Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(RowToString(a[i]), RowToString(b[i])) << "row " << i;
  }
}

/// Integer counters plus charged cycles/lines of one plan run.
struct PinnedCounters {
  uint64_t tuples_scanned, tuples_output, comparisons, arith_ops,
      hash_builds, hash_probes, agg_updates, sort_compares, spill_bytes;
  double cycles_charged, mem_lines_charged;
};

// --- Operators over simple tables ---

class BatchParityTest : public ::testing::Test {
 protected:
  BatchParityTest()
      : machine_(MachineConfig::PaperTestbed()),
        profile_(EngineProfile::MySqlMemory()),
        pool_(&machine_, 0) {
    // > kDefaultBatchRows rows so pipelines cross batch boundaries.
    testing::MakeSimpleTable(&catalog_, "big", 2500, 7);
    testing::MakeSimpleTable(&catalog_, "small", 37, 5);
  }

  PlanNodePtr Scan(const std::string& name) {
    return MakeScan(catalog_, name).value();
  }

  ExprPtr K() { return Col(0, ValueType::kInt64, "k"); }
  ExprPtr V() { return Col(1, ValueType::kDouble, "v"); }
  ExprPtr S() { return Col(2, ValueType::kString, "s"); }

  /// Answers equal the reference evaluator's, and the LIMIT twin
  /// charges exactly what the plan does.
  void ExpectCorrect(const PlanNode& plan) {
    ExecContext ctx(&machine_, &profile_, &catalog_, &pool_);
    auto rows = ExecutePlan(plan, &ctx);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ExpectRowsEqual(testing::ReferenceEvaluate(plan, catalog_), rows.value());

    ExecContext twin_ctx(&machine_, &profile_, &catalog_, &pool_);
    auto twin_rows = ExecutePlan(*testing::LimitTwin(plan), &twin_ctx);
    ASSERT_TRUE(twin_rows.ok()) << twin_rows.status().ToString();
    ExpectRowsEqual(rows.value(), twin_rows.value());
    ExpectSameCharges(ctx.stats(), twin_ctx.stats());
  }

  /// Runs `plan` and checks its counters against values recorded from
  /// the engine: exact integer counters, charged cycles and lines to
  /// 1e-9. Used where a LIMIT stops a streaming pipeline early, so a
  /// change in how far the pipeline reads or charges ahead fails.
  void ExpectPinnedCounters(const PlanNode& plan, const PinnedCounters& pin) {
    ExecContext ctx(&machine_, &profile_, &catalog_, &pool_);
    auto rows = ExecutePlan(plan, &ctx);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    const QueryExecStats& s = ctx.stats();
    EXPECT_EQ(s.tuples_scanned, pin.tuples_scanned);
    EXPECT_EQ(s.tuples_output, pin.tuples_output);
    EXPECT_EQ(s.comparisons, pin.comparisons);
    EXPECT_EQ(s.arith_ops, pin.arith_ops);
    EXPECT_EQ(s.hash_builds, pin.hash_builds);
    EXPECT_EQ(s.hash_probes, pin.hash_probes);
    EXPECT_EQ(s.agg_updates, pin.agg_updates);
    EXPECT_EQ(s.sort_compares, pin.sort_compares);
    EXPECT_EQ(s.spill_bytes, pin.spill_bytes);
    ExpectNearRel(s.cycles_charged, pin.cycles_charged, kChargeRelTol,
                  "cycles_charged");
    ExpectNearRel(s.mem_lines_charged, pin.mem_lines_charged, kChargeRelTol,
                  "mem_lines_charged");
  }

  Machine machine_;
  EngineProfile profile_;
  Catalog catalog_;
  BufferPool pool_;
};

TEST_F(BatchParityTest, SeqScan) { ExpectCorrect(*Scan("big")); }

TEST_F(BatchParityTest, FilterCompare) {
  ExpectCorrect(*MakeFilter(Scan("big"),
                           Cmp(CompareOp::kLt, K(), LitInt(1100))));
}

TEST_F(BatchParityTest, FilterAndOrShortCircuit) {
  // Mixed AND/OR chain: the lazy comparison counts depend on per-row
  // short-circuiting, the exact semantics Figure 6 relies on.
  ExprPtr pred = Or({
      Cmp(CompareOp::kLt, K(), LitInt(100)),
      And({Cmp(CompareOp::kGe, K(), LitInt(1200)),
           Cmp(CompareOp::kLt, K(), LitInt(1300))}),
      Eq(S(), LitStr("s3")),
  });
  ExpectCorrect(*MakeFilter(Scan("big"), pred));
}

TEST_F(BatchParityTest, FilterBetween) {
  ExpectCorrect(*MakeFilter(Scan("big"),
                           Between(V(), LitDbl(100.5), LitDbl(2000.25))));
}

TEST_F(BatchParityTest, FilterInListLinear) {
  std::vector<Value> vals;
  for (int i = 0; i < 6; ++i) vals.push_back(Value::Str("s" + std::to_string(i)));
  ExpectCorrect(*MakeFilter(Scan("big"), InList(S(), vals, /*hashed=*/false)));
}

TEST_F(BatchParityTest, FilterInListHashed) {
  std::vector<Value> vals;
  for (int i = 0; i < 6; ++i) vals.push_back(Value::Str("s" + std::to_string(i)));
  ExpectCorrect(*MakeFilter(Scan("big"), InList(S(), vals, /*hashed=*/true)));
}

TEST_F(BatchParityTest, FilterNot) {
  ExpectCorrect(*MakeFilter(Scan("big"), Not(Eq(S(), LitStr("s1")))));
}

TEST_F(BatchParityTest, ProjectArith) {
  ExpectCorrect(*MakeProject(
      Scan("big"),
      {Arith(ArithOp::kMul, K(), LitInt(3)),
       Arith(ArithOp::kAdd, V(), Arith(ArithOp::kDiv, V(), LitDbl(2.0))), S()},
      {"k3", "v15", "s"}));
}

TEST_F(BatchParityTest, HashJoin) {
  // small x big on k: single-match per probe row for k < 37.
  ExpectCorrect(*MakeHashJoin(Scan("small"), Scan("big"), {0}, {0}));
}

TEST_F(BatchParityTest, HashJoinMultiMatch) {
  // Join on the (duplicated) string column: many matches per probe row,
  // so batches fill mid-bucket-chain and the resume path is exercised.
  ExpectCorrect(*MakeHashJoin(Scan("small"), Scan("big"), {2}, {2}));
}

TEST_F(BatchParityTest, HashJoinBuildResizeHeavy) {
  // Build side (2500 rows) far exceeds the flat table's initial slot
  // capacity, forcing several rehashes during build, with duplicate
  // string keys chained through the resizes.
  ExpectCorrect(*MakeHashJoin(Scan("big"), Scan("small"), {2}, {2}));
}

TEST_F(BatchParityTest, HashJoinMultiKeyTypedProbe) {
  // Multi-column (int64, string) key hashed straight off lazily-bound
  // scan batches on both sides: a typed hasher that disagreed with
  // HashRowKey between build and probe representations would drop
  // matches the reference evaluator finds.
  ExpectCorrect(*MakeHashJoin(Scan("small"), Scan("big"), {0, 2}, {0, 2}));
}

TEST_F(BatchParityTest, HashJoinFilteredProbe) {
  // Probe batches arrive with a narrowed selection: the up-front batch
  // hashing walks sparse positions of a lazily-bound batch.
  ExpectCorrect(*MakeHashJoin(
      Scan("small"),
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(700))),
      {0}, {0}));
}

TEST_F(BatchParityTest, HashJoinEmptyBuildSide) {
  ExpectCorrect(*MakeHashJoin(
      MakeFilter(Scan("small"), Cmp(CompareOp::kLt, K(), LitInt(-1))),
      Scan("big"), {0}, {0}));
}

TEST_F(BatchParityTest, HashJoinNullProducingBuildSide) {
  // Build side is a projection whose arithmetic divides by zero at k == 5,
  // injecting NULL cells into the typed build pool: the null masks must
  // round-trip through gather emission bit-exactly.
  PlanNodePtr build = MakeProject(
      Scan("small"),
      {K(), Arith(ArithOp::kDiv, V(), Arith(ArithOp::kSub, K(), LitInt(5))),
       S()},
      {"k", "vdiv", "s"});
  ExpectCorrect(*MakeHashJoin(std::move(build), Scan("big"), {0}, {0}));
}

TEST_F(BatchParityTest, HashJoinBuildSideIsJoinOutput) {
  // The inner join's typed-lane output feeds the outer build consumption
  // (views over lanes, strings copied into the pool).
  PlanNodePtr inner = MakeHashJoin(Scan("small"), Scan("small"), {0}, {0});
  ExpectCorrect(*MakeHashJoin(std::move(inner), Scan("big"), {0}, {0}));
}

TEST_F(BatchParityTest, HashJoinProbeSideIsJoinOutput) {
  // The inner join's lanes are the probe side of the outer join: numeric
  // lanes gather lane-to-lane, string-ref lanes gather zero-copy (the
  // output batch retains the probe batch's arenas, so the pointers
  // survive the probe batch's replacement), and the batch key hasher
  // reads lanes directly.
  PlanNodePtr inner = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
  ExpectCorrect(*MakeHashJoin(Scan("small"), std::move(inner), {2}, {2}));
}

TEST_F(BatchParityTest, FilterAndProjectOverJoinLanes) {
  // Filter compares typed-lane columns of a join output (view-based
  // generic path), then a projection passes lanes through and computes a
  // double lane on top of them.
  PlanNodePtr join = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
  PlanNodePtr filtered = MakeFilter(
      std::move(join),
      Cmp(CompareOp::kGe, Col(4, ValueType::kDouble, "bv"),
          Col(1, ValueType::kDouble, "sv")));
  ExpectCorrect(*MakeProject(
      std::move(filtered),
      {Col(3, ValueType::kInt64, "bk"), Col(5, ValueType::kString, "bs"),
       Arith(ArithOp::kMul, Col(4, ValueType::kDouble, "bv"), LitDbl(0.5))},
      {"bk", "bs", "half"}));
}

TEST_F(BatchParityTest, AggregateOverJoinLanes) {
  // Group keys and SUM/MIN/MAX arguments read the join's typed lanes
  // (string lane group keys hash unboxed; the SUM argument runs through
  // the raw-double path).
  AggSpec sum;
  sum.kind = AggSpec::Kind::kSum;
  sum.arg = Arith(ArithOp::kMul, Col(4, ValueType::kDouble, "bv"),
                  LitDbl(2.0));
  sum.name = "sum";
  AggSpec mn;
  mn.kind = AggSpec::Kind::kMin;
  mn.arg = Col(3, ValueType::kInt64, "bk");
  mn.name = "min";
  PlanNodePtr join = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
  ExpectCorrect(*MakeAggregate(std::move(join),
                              {Col(5, ValueType::kString, "bs")}, {sum, mn}));
}

TEST_F(BatchParityTest, NestedLoopJoinPredicate) {
  ExprPtr pred = Eq(Col(2, ValueType::kString, "ss"),
                    Col(5, ValueType::kString, "bs"));
  ExpectCorrect(*MakeNestedLoopJoin(Scan("small"), Scan("big"), pred));
}

TEST_F(BatchParityTest, CrossJoin) {
  ExpectCorrect(*MakeNestedLoopJoin(Scan("small"), Scan("small"), nullptr));
}

TEST_F(BatchParityTest, HashAggGroups) {
  auto agg = [&](AggSpec::Kind kind, const char* name) {
    AggSpec a;
    a.kind = kind;
    a.arg = K();
    a.name = name;
    return a;
  };
  AggSpec count_star;
  count_star.kind = AggSpec::Kind::kCount;
  count_star.arg = nullptr;
  count_star.name = "n";
  ExpectCorrect(*MakeAggregate(
      Scan("big"), {S()},
      {agg(AggSpec::Kind::kSum, "sum"), agg(AggSpec::Kind::kMin, "min"),
       agg(AggSpec::Kind::kMax, "max"), agg(AggSpec::Kind::kAvg, "avg"),
       count_star}));
}

TEST_F(BatchParityTest, GlobalAggregate) {
  AggSpec sum;
  sum.kind = AggSpec::Kind::kSum;
  sum.arg = V();
  sum.name = "sum_v";
  ExpectCorrect(*MakeAggregate(Scan("big"), {}, {sum}));
}

TEST_F(BatchParityTest, GlobalAggregateEmptyInput) {
  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  PlanNodePtr filtered =
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(-1)));
  ExpectCorrect(*MakeAggregate(std::move(filtered), {}, {cnt}));
}

TEST_F(BatchParityTest, SortMultiKey) {
  ExpectCorrect(*MakeSort(Scan("big"),
                         {SortKey{S(), true}, SortKey{K(), false}}));
}

TEST_F(BatchParityTest, SortOverJoinLanes) {
  // Columnar sort consumes the join's typed lanes (string bytes into the
  // sort columns' arenas) and emits sorted lanes.
  PlanNodePtr join = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
  ExpectCorrect(*MakeSort(std::move(join),
                         {SortKey{S(), false}, SortKey{V(), true}}));
}

TEST_F(BatchParityTest, SortNullProducingKey) {
  // A sort key whose arithmetic divides by zero at k == 5: NULL keys ride
  // the key column's null mask and must order exactly like boxed
  // Value::Null (less than everything) in the reference evaluator.
  ExprPtr key =
      Arith(ArithOp::kDiv, V(), Arith(ArithOp::kSub, K(), LitInt(5)));
  ExpectCorrect(*MakeSort(Scan("small"), {SortKey{key, true}}));
}

TEST_F(BatchParityTest, LimitOverSortOverJoinLanes) {
  // The LimitOp pulls a capped batch out of the columnar sort, whose
  // string lanes point into the join's build pool.
  PlanNodePtr join = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
  ExpectCorrect(
      *MakeLimit(MakeSort(std::move(join), {SortKey{S(), true}}), 9));
}

// --- Sorts over mixed inputs ---
//
// A sort holds the columns a scan lends as table rows and appends only
// owned lanes (join output, computed projections) to its pool; emission
// gathers each output column from wherever it is held. These cases mix
// the two in one input, empty it, and cut it at batch edges.

TEST_F(BatchParityTest, SortOverPassThroughAndComputedColumns) {
  // The projection passes s and k through from a filtered scan (table
  // rows, sparse after the filter) beside a computed column (owned).
  auto proj = [&] {
    return MakeProject(
        MakeFilter(Scan("big"), Cmp(CompareOp::kNe, S(), LitStr("s3"))),
        {S(), Arith(ArithOp::kMul, V(), LitDbl(2.0)), K()},
        {"s", "v2", "k"});
  };
  const ExprPtr s = Col(0, ValueType::kString, "s");
  const ExprPtr v2 = Col(1, ValueType::kDouble, "v2");
  const ExprPtr k = Col(2, ValueType::kInt64, "k");
  ExpectCorrect(*MakeSort(proj(), {SortKey{v2, false}}));
  ExpectCorrect(*MakeSort(proj(), {SortKey{s, true}, SortKey{k, false}}));
  // A sort under a projection emits batches rather than the result.
  ExpectCorrect(*MakeProject(MakeSort(proj(), {SortKey{s, false}}),
                             {k, v2}, {"k", "v2"}));
}

TEST_F(BatchParityTest, SortOverPlainStringTableColumn) {
  // 2,000 distinct strings: the column drops its dictionary, so the
  // sort holds per-row string pointers by table row, not codes.
  testing::MakeSimpleTable(&catalog_, "plain", 2500, 2000);
  ExpectCorrect(*MakeSort(Scan("plain"), {SortKey{S(), false}}));
  ExpectCorrect(*MakeSort(
      MakeFilter(Scan("plain"), Cmp(CompareOp::kLt, K(), LitInt(1800))),
      {SortKey{V(), false}}));
}

TEST_F(BatchParityTest, SortOverJoinOutputAndNullableOwnedLanes) {
  // Every input column is owned: a join's output, and a projection over
  // it whose division yields NULL at k == 5 (a nullable owned lane).
  auto proj = [&] {
    PlanNodePtr join = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
    return MakeProject(
        std::move(join),
        {Col(0, ValueType::kInt64, "k"),
         Arith(ArithOp::kDiv, Col(1, ValueType::kDouble, "v"),
               Arith(ArithOp::kSub, Col(0, ValueType::kInt64, "k"),
                     LitInt(5))),
         Col(5, ValueType::kString, "s")},
        {"k", "vdiv", "s"});
  };
  const ExprPtr k = Col(0, ValueType::kInt64, "k");
  const ExprPtr vdiv = Col(1, ValueType::kDouble, "vdiv");
  const ExprPtr s = Col(2, ValueType::kString, "s");
  ExpectCorrect(*MakeSort(proj(), {SortKey{s, true}, SortKey{k, false}}));
  ExpectCorrect(*MakeSort(proj(), {SortKey{vdiv, false}}));
  ExpectCorrect(*MakeLimit(MakeSort(proj(), {SortKey{k, false}}), 3));
}

TEST_F(BatchParityTest, SortOfEmptyInput) {
  auto empty = [&] {
    return MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(-1)));
  };
  ExpectCorrect(*MakeSort(empty(), {SortKey{K(), true}}));
  ExpectCorrect(*MakeLimit(MakeSort(empty(), {SortKey{S(), false}}), 5));
  ExpectCorrect(*MakeSort(
      MakeProject(empty(), {S(), Arith(ArithOp::kAdd, K(), LitInt(1))},
                  {"s", "k1"}),
      {SortKey{Col(1, ValueType::kInt64, "k1"), true}}));
}

TEST_F(BatchParityTest, LimitOverSortAtBatchEdges) {
  // Limits of none, one, exactly one batch and one row past it, over
  // table rows and over a mixed input.
  for (int64_t limit : {0, 1, 1024, 1025}) {
    SCOPED_TRACE(limit);
    ExpectCorrect(*MakeLimit(
        MakeSort(Scan("big"), {SortKey{S(), false}, SortKey{K(), true}}),
        limit));
    PlanNodePtr mixed = MakeProject(
        Scan("big"), {K(), Arith(ArithOp::kMul, V(), LitDbl(3.0)), S()},
        {"k", "v3", "s"});
    ExpectCorrect(*MakeLimit(
        MakeSort(std::move(mixed),
                 {SortKey{Col(1, ValueType::kDouble, "v3"), false}}),
        limit));
  }
}

TEST_F(BatchParityTest, LimitOverScan) {
  // Limit pulls a streaming child one row at a time, so even the
  // early-termination tuple counts are exact.
  ExpectCorrect(*MakeLimit(Scan("big"), 7));
  ExpectCorrect(*MakeLimit(Scan("big"), 0));
  ExpectCorrect(*MakeLimit(Scan("small"), 1000000));
  ExpectPinnedCounters(*MakeLimit(Scan("big"), 7),
                       {7, 7, 0, 0, 0, 0, 0, 0, 0, 12180, 434.109375});
  ExpectPinnedCounters(*MakeLimit(Scan("big"), 0),
                       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  ExpectPinnedCounters(*MakeLimit(Scan("small"), 1000000),
                       {37, 37, 0, 0, 0, 0, 0, 0, 0, 64380, 2294.578125});
}

TEST_F(BatchParityTest, LimitOverFilter) {
  // A selective filter under the limit: the scan must stop at the row
  // that completes the limit, across a batch boundary for 300.
  auto plan = [&](int64_t limit) {
    return MakeLimit(MakeFilter(Scan("big"), Eq(S(), LitStr("s3"))), limit);
  };
  ExpectCorrect(*plan(5));
  ExpectCorrect(*plan(300));
  ExpectCorrect(*plan(1000000));
  ExpectPinnedCounters(*plan(5),
                       {32, 5, 32, 0, 0, 0, 0, 0, 0, 24700, 310.5});
  ExpectPinnedCounters(
      *plan(300),
      {2097, 300, 2097, 0, 0, 0, 0, 0, 0, 1583775, 18632.765625});
  ExpectPinnedCounters(
      *plan(1000000),
      {2500, 357, 2500, 0, 0, 0, 0, 0, 0, 1887320, 22173.0625});
}

TEST_F(BatchParityTest, LimitOverJoin) {
  auto hash_join = [&](int64_t limit) {
    // Many matches per probe row: the limit lands mid-chain.
    return MakeLimit(MakeHashJoin(Scan("small"), Scan("big"), {2}, {2}),
                     limit);
  };
  auto nl_join = [&](int64_t limit) {
    ExprPtr pred = Eq(Col(2, ValueType::kString, "ss"),
                      Col(5, ValueType::kString, "bs"));
    return MakeLimit(MakeNestedLoopJoin(Scan("small"), Scan("big"), pred),
                     limit);
  };
  ExpectCorrect(*hash_join(3));
  ExpectCorrect(*hash_join(1500));
  ExpectCorrect(*nl_join(3));
  ExpectCorrect(*nl_join(1500));
  ExpectPinnedCounters(*hash_join(3),
                       {38, 3, 6, 0, 37, 1, 0, 0, 0, 35022, 205.59375});
  ExpectPinnedCounters(
      *hash_join(1500),
      {320, 1500, 3000, 0, 37, 283, 0, 0, 0, 2505300, 93165});
  ExpectPinnedCounters(
      *nl_join(3),
      {2501, 3, 15, 0, 0, 0, 0, 0, 0, 1205865, 225.078125});
  ExpectPinnedCounters(
      *nl_join(1500),
      {2505, 1500, 10495, 0, 0, 0, 0, 0, 0, 4179425, 93039.140625});
}

TEST_F(BatchParityTest, LimitOverSort) {
  ExpectCorrect(*MakeLimit(MakeSort(Scan("big"), {SortKey{K(), false}}), 10));
}

TEST_F(BatchParityTest, LimitOverAggregate) {
  // The truncating batched LimitOp path: the aggregate's materialized
  // emission is pulled in capped batches. Limits below, at, and far
  // above the group count (7 distinct strings), plus 0.
  auto plan = [&](int64_t limit) {
    AggSpec sum;
    sum.kind = AggSpec::Kind::kSum;
    sum.arg = V();
    sum.name = "sum";
    AggSpec cnt;
    cnt.kind = AggSpec::Kind::kCount;
    cnt.arg = nullptr;
    cnt.name = "n";
    return MakeLimit(MakeAggregate(Scan("big"), {S()}, {sum, cnt}), limit);
  };
  ExpectCorrect(*plan(3));
  ExpectCorrect(*plan(7));
  ExpectCorrect(*plan(0));
  ExpectCorrect(*plan(1000000));
}

TEST_F(BatchParityTest, LimitOverAggregateManyGroups) {
  // More groups than one batch (2500 int64 keys), limit mid-emission:
  // the capped gather crosses a batch boundary before truncating.
  AggSpec mx;
  mx.kind = AggSpec::Kind::kMax;
  mx.arg = S();
  mx.name = "max_s";
  ExpectCorrect(*MakeLimit(MakeAggregate(Scan("big"), {K()}, {mx}), 1500));
}

TEST_F(BatchParityTest, LimitOverLimitOverSort) {
  // Stacked limits over a materialized child: both LimitOps report
  // materialized emission and forward capped pulls.
  ExpectCorrect(*MakeLimit(
      MakeLimit(MakeSort(Scan("big"), {SortKey{S(), true}}), 100), 12));
}

TEST_F(BatchParityTest, MixedCapPullsResumeWhereTheyStopped) {
  // A parent may pull at any cap (a LIMIT pulls one row; a drain pulls a
  // full batch). Streaming operators must resume mid-batch and mid-chain
  // and materialized ones mid-result, with no skipped or repeated rows,
  // whatever sequence of caps the parent uses.
  auto check = [&](const PlanNodePtr& plan) {
    ExecContext ctx(&machine_, &profile_, &catalog_, &pool_);
    auto op = InstantiatePlan(*plan, &ctx);
    ASSERT_TRUE(op.ok()) << op.status().ToString();
    ASSERT_TRUE(op.value()->Open().ok());
    const size_t caps[] = {1, 7, RowBatch::kDefaultBatchRows, 1, 300};
    std::vector<Row> got;
    RowBatch batch;
    for (size_t i = 0;; ++i) {
      const size_t cap = caps[i % (sizeof(caps) / sizeof(caps[0]))];
      bool has = false;
      ASSERT_TRUE(op.value()->NextBatch(&batch, &has, cap).ok());
      if (!has) break;
      ASSERT_GE(batch.active(), 1u);
      ASSERT_LE(batch.active(), cap);
      for (uint32_t r : batch.sel()) {
        Row& row = got.emplace_back();
        for (int c = 0; c < batch.num_cols(); ++c) {
          row.push_back(BoxCellView(batch.ViewCell(c, r)));
        }
      }
    }
    op.value()->Close();
    ExpectRowsEqual(testing::ReferenceEvaluate(*plan, catalog_), got);
  };

  AggSpec sum;
  sum.kind = AggSpec::Kind::kSum;
  sum.arg = V();
  sum.name = "sum";
  // > 1024 groups.
  check(MakeAggregate(Scan("big"), {K()}, {sum}));
  // Sort with string payloads.
  check(MakeSort(Scan("big"), {SortKey{S(), false}, SortKey{K(), true}}));
  // Limit over sort.
  check(MakeLimit(MakeSort(Scan("big"), {SortKey{K(), false}}), 1500));
  // Filter and projection over a scan.
  check(MakeProject(
      MakeFilter(Scan("big"), Cmp(CompareOp::kGe, K(), LitInt(100))),
      {S(), Arith(ArithOp::kMul, V(), LitDbl(2.0))}, {"s", "v2"}));
  // Many matches per probe row: caps land mid-chain.
  check(MakeHashJoin(Scan("small"), Scan("big"), {2}, {2}));
  // Nested loop: caps land mid-inner-loop.
  check(MakeNestedLoopJoin(
      Scan("small"), Scan("big"),
      Eq(Col(2, ValueType::kString, "ss"), Col(5, ValueType::kString, "bs"))));
  // Limit over aggregate over a join: lanes all the way up.
  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  PlanNodePtr join = MakeHashJoin(Scan("small"), Scan("big"), {0}, {0});
  check(MakeLimit(
      MakeAggregate(std::move(join), {Col(5, ValueType::kString, "bs")},
                    {cnt}),
      2));
}

TEST_F(BatchParityTest, ArithmeticProjectionColumnsAsKeys) {
  // Int arithmetic (k * 3, k / 7) and a division that yields NULL at
  // k == 5 are evaluated into Values and packed into int / double lanes;
  // those lanes then serve as a hash-join probe key, group keys and sort
  // keys.
  auto proj = [&] {
    return MakeProject(
        Scan("big"),
        {Arith(ArithOp::kMul, K(), LitInt(3)),
         Arith(ArithOp::kDiv, K(), LitInt(7)),
         Arith(ArithOp::kDiv, V(), Arith(ArithOp::kSub, K(), LitInt(5))),
         S()},
        {"k3", "k7", "vdiv", "s"});
  };
  const ExprPtr k3 = Col(0, ValueType::kInt64, "k3");
  const ExprPtr k7 = Col(1, ValueType::kInt64, "k7");
  const ExprPtr vdiv = Col(2, ValueType::kDouble, "vdiv");
  ExpectCorrect(*MakeHashJoin(Scan("small"), proj(), {0}, {1}));
  ExpectCorrect(*MakeHashJoin(Scan("small"), proj(), {0}, {0}));
  AggSpec sum;
  sum.kind = AggSpec::Kind::kSum;
  sum.arg = vdiv;
  sum.name = "sum_vdiv";
  AggSpec mx;
  mx.kind = AggSpec::Kind::kMax;
  mx.arg = k3;
  mx.name = "max_k3";
  ExpectCorrect(*MakeAggregate(proj(), {k7}, {sum, mx}));
  ExpectCorrect(*MakeAggregate(
      MakeFilter(proj(), Cmp(CompareOp::kLt, k3, LitInt(60))), {vdiv},
      {mx}));
  ExpectCorrect(*MakeSort(proj(), {SortKey{k7, false}, SortKey{vdiv, true},
                                   SortKey{k3, true}}));
}

TEST_F(BatchParityTest, NullLiteralProjection) {
  // A NULL literal projects an all-null lane of type NULL, which must
  // pass through a sort (as payload and as key), a join build pool and
  // the result.
  auto proj = [&] {
    return MakeProject(Scan("small"), {K(), Lit(Value::Null()), S()},
                       {"k", "nothing", "s"});
  };
  const ExprPtr nothing = Col(1, ValueType::kNull, "nothing");
  ExpectCorrect(*proj());
  ExpectCorrect(*MakeSort(proj(), {SortKey{nothing, true},
                                   SortKey{Col(0, ValueType::kInt64, "k"),
                                           false}}));
  ExpectCorrect(*MakeSort(proj(), {SortKey{Lit(Value::Null()), false},
                                   SortKey{S(), true}}));
  ExpectCorrect(*MakeHashJoin(proj(), Scan("big"), {0}, {0}));
  ExpectCorrect(*MakeHashJoin(Scan("small"), proj(), {2}, {2}));
}

TEST_F(BatchParityTest, NestedLoopJoinStringsOutliveTheQuery) {
  // Strings on both sides of the join live in arenas — the outer side's
  // in the aggregate's result columns, the inner side's projected
  // literal in the projection's batch arena — and reach the result
  // through the join's inner pool and the sort. The retained arenas keep
  // them readable after the operators and the context are gone.
  auto plan = [&] {
    AggSpec cnt;
    cnt.kind = AggSpec::Kind::kCount;
    cnt.arg = nullptr;
    cnt.name = "n";
    PlanNodePtr outer = MakeAggregate(Scan("big"), {S()}, {cnt});
    PlanNodePtr inner = MakeProject(Scan("small"), {S(), LitStr("inner"), K()},
                                    {"s", "tag", "k"});
    PlanNodePtr join = MakeNestedLoopJoin(
        std::move(outer), std::move(inner),
        Cmp(CompareOp::kNe, Col(0, ValueType::kString, "os"),
            Col(2, ValueType::kString, "is")));
    return MakeSort(std::move(join),
                    {SortKey{Col(0, ValueType::kString, "os"), true},
                     SortKey{Col(4, ValueType::kInt64, "k"), false}});
  };
  ExpectCorrect(*plan());
  ResultSet set;
  {
    ExecContext ctx(&machine_, &profile_, &catalog_, &pool_);
    PlanNodePtr p = plan();
    auto res = ExecutePlanColumnar(*p, &ctx);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    set = std::move(res).value();
  }
  const std::vector<Row> want = testing::ReferenceEvaluate(*plan(), catalog_);
  ASSERT_EQ(set.num_rows(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(RowToString(set.RowAt(r)), RowToString(want[r])) << "row " << r;
  }
}

TEST_F(BatchParityTest, ScanFilterAggPipeline) {
  AggSpec sum;
  sum.kind = AggSpec::Kind::kSum;
  sum.arg = Arith(ArithOp::kMul, V(), LitDbl(0.5));
  sum.name = "rev";
  ExpectCorrect(*MakeAggregate(
      MakeFilter(Scan("big"), Cmp(CompareOp::kLt, K(), LitInt(2000))), {S()},
      {sum}));
}

// --- Aggregate group state ---

AggSpec MakeAgg(AggSpec::Kind kind, ExprPtr arg, const std::string& name) {
  AggSpec a;
  a.kind = kind;
  a.arg = std::move(arg);
  a.name = name;
  return a;
}

TEST_F(BatchParityTest, AggregateArgumentNullableInSomeBatchesOnly) {
  // v / (k - 2000) is NULL at k == 2000 only, so the argument's lane has
  // a null mask in the batch holding that row and none in the others;
  // every batch folds into the same SUM/AVG/COUNT state.
  const auto ratio = [&] {
    return Arith(ArithOp::kDiv, V(), Arith(ArithOp::kSub, K(), LitInt(2000)));
  };
  const auto aggs = [](const std::function<ExprPtr()>& arg) {
    return std::vector<AggSpec>{MakeAgg(AggSpec::Kind::kSum, arg(), "sum"),
                                MakeAgg(AggSpec::Kind::kAvg, arg(), "avg"),
                                MakeAgg(AggSpec::Kind::kCount, arg(), "n")};
  };
  // A computed argument, evaluated per batch.
  ExpectCorrect(*MakeAggregate(Scan("big"), {S()}, aggs(ratio)));
  ExpectCorrect(*MakeAggregate(Scan("big"), {}, aggs(ratio)));
  // The same cells as a projection's output column.
  const auto proj = [&] {
    return MakeProject(Scan("big"), {ratio(), S()}, {"ratio", "s"});
  };
  const auto col = [] { return Col(0, ValueType::kDouble, "ratio"); };
  ExpectCorrect(*MakeAggregate(proj(), {Col(1, ValueType::kString, "s")},
                               aggs(col)));
}

TEST_F(BatchParityTest, StringExtremesOutliveTheirBatches) {
  // MIN/MAX winners held in storage that goes away before the aggregate
  // emits: build-side strings gathered out of a hash join's build pool,
  // a string literal the build-side projection interned into its batch
  // arena, and one interned into each batch of a projection feeding the
  // aggregate directly (cleared when the next batch reuses the arena).
  PlanNodePtr build = MakeProject(Scan("small"), {K(), S(), LitStr("tag")},
                                  {"sk", "ss", "tag"});
  PlanNodePtr join = MakeHashJoin(std::move(build), Scan("big"), {0}, {0});
  const ExprPtr ss = Col(1, ValueType::kString, "ss");
  const ExprPtr tag = Col(2, ValueType::kString, "tag");
  ExpectCorrect(*MakeAggregate(
      std::move(join), {Col(5, ValueType::kString, "s")},
      {MakeAgg(AggSpec::Kind::kMin, ss, "min_ss"),
       MakeAgg(AggSpec::Kind::kMax, ss, "max_ss"),
       MakeAgg(AggSpec::Kind::kMin, tag, "min_tag")}));

  PlanNodePtr proj = MakeProject(Scan("big"), {K(), LitStr("lit"), S()},
                                 {"k", "lit", "s"});
  ExpectCorrect(*MakeAggregate(
      std::move(proj), {Col(2, ValueType::kString, "s")},
      {MakeAgg(AggSpec::Kind::kMax, Col(1, ValueType::kString, "lit"),
               "max_lit"),
       MakeAgg(AggSpec::Kind::kMin, Col(2, ValueType::kString, "s"),
               "min_s")}));
}

TEST_F(BatchParityTest, SignedZeroExtremesKeepTheFirstSeen) {
  // -0.0 and +0.0 compare equal, so MIN and MAX keep whichever a group
  // saw first, as CompareCellViews orders them. (k - 3) * 0.0 is -0.0
  // for k < 3 and +0.0 after; (3 - k) * 0.0 is -0.0 only for k > 3.
  const ExprPtr down = Arith(ArithOp::kMul,
                             Arith(ArithOp::kSub, K(), LitInt(3)), LitDbl(0.0));
  const ExprPtr up = Arith(ArithOp::kMul,
                           Arith(ArithOp::kSub, LitInt(3), K()), LitDbl(0.0));
  // Group k - (k / 5) * 5, i.e. k mod 5: groups 0..2 first see k = 0..2.
  const ExprPtr mod5 = Arith(
      ArithOp::kSub, K(),
      Arith(ArithOp::kMul, Arith(ArithOp::kDiv, K(), LitInt(5)), LitInt(5)));
  auto plan = [&] {
    return MakeAggregate(Scan("small"), {mod5},
                         {MakeAgg(AggSpec::Kind::kMin, down, "min_down"),
                          MakeAgg(AggSpec::Kind::kMax, down, "max_down"),
                          MakeAgg(AggSpec::Kind::kMin, up, "min_up"),
                          MakeAgg(AggSpec::Kind::kMax, up, "max_up")});
  };
  ExpectCorrect(*plan());
  ExecContext ctx(&machine_, &profile_, &catalog_, &pool_);
  auto rows = ExecutePlan(*plan(), &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().size(), 5u);
  for (const Row& r : rows.value()) {
    const int64_t g = r[0].AsInt();
    SCOPED_TRACE("group " + std::to_string(g));
    for (int c = 1; c <= 4; ++c) EXPECT_EQ(r[c].AsDouble(), 0.0);
    EXPECT_EQ(std::signbit(r[1].AsDouble()), g < 3);
    EXPECT_EQ(std::signbit(r[2].AsDouble()), g < 3);
    EXPECT_EQ(std::signbit(r[3].AsDouble()), g == 4);
    EXPECT_EQ(std::signbit(r[4].AsDouble()), g == 4);
  }
}

/// Emits every batch of `first`, then every batch of `second` (same
/// schema), so one aggregate sees a column in two representations.
class ConcatOp : public Operator {
 public:
  ConcatOp(OperatorPtr first, OperatorPtr second)
      : first_(std::move(first)), second_(std::move(second)) {}
  Status Open() override {
    ECODB_RETURN_NOT_OK(first_->Open());
    return second_->Open();
  }
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override {
    if (!first_done_) {
      ECODB_RETURN_NOT_OK(first_->NextBatch(out, has_rows, max_rows));
      if (*has_rows) return Status::OK();
      first_done_ = true;
    }
    return second_->NextBatch(out, has_rows, max_rows);
  }
  void Close() override {
    first_->Close();
    second_->Close();
  }
  const Schema& schema() const override { return first_->schema(); }
  std::string name() const override { return "Concat"; }

 private:
  OperatorPtr first_, second_;
  bool first_done_ = false;
};

TEST_F(BatchParityTest, StringExtremesOverCodesAndAbandonedDictionary) {
  // The same strings in a dictionary-encoded column ("coded": 50
  // distinct) and in a column that abandoned its dictionary ("plain":
  // 1,100 distinct fillers first, with k = -1, then the coded rows
  // again, then one "a" and one "z" per group that only "plain" holds).
  // MIN/MAX fold the coded batches (entries ordered by address) and the
  // plain ones (ordered by bytes) into one state, in either order, and
  // must give the extremes of the strings themselves: neither a winner
  // outside the dictionary nor one inside it may be beaten by address.
  const Schema schema({Field("k", ValueType::kInt64),
                       Field("s", ValueType::kString, 8)});
  Table* coded = catalog_.CreateTable("coded", schema).value();
  Table* plain = catalog_.CreateTable("plain", schema).value();
  const auto word = [](int i) { return StrFormat("w%03d", (i * 7) % 50); };
  for (int i = 0; i < 1100; ++i) {
    ASSERT_TRUE(plain->AppendCells({-1, StrFormat("x%05d", i)}).ok());
  }
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(coded->AppendCells({i, word(i)}).ok());
    ASSERT_TRUE(plain->AppendCells({i, word(i)}).ok());
  }
  for (int g = 0; g < 3; ++g) {
    ASSERT_TRUE(plain->AppendCells({g, "a"}).ok());
    ASSERT_TRUE(plain->AppendCells({g, "z"}).ok());
  }
  ASSERT_TRUE(catalog_.FinalizeLoad("coded").ok());
  ASSERT_TRUE(catalog_.FinalizeLoad("plain").ok());
  ASSERT_TRUE(coded->column(1).dict_encoded());
  ASSERT_FALSE(plain->column(1).dict_encoded());

  // Group k mod 3 (the fillers' k = -1 is filtered out).
  const ExprPtr k = Col(0, ValueType::kInt64, "k");
  const ExprPtr s = Col(1, ValueType::kString, "s");
  const ExprPtr mod3 = Arith(
      ArithOp::kSub, k,
      Arith(ArithOp::kMul, Arith(ArithOp::kDiv, k, LitInt(3)), LitInt(3)));
  for (const bool coded_first : {true, false}) {
    SCOPED_TRACE(coded_first ? "codes first" : "strings first");
    ExecContext ctx(&machine_, &profile_, &catalog_, &pool_);
    OperatorPtr codes = std::make_unique<SeqScanOp>(&ctx, "coded");
    OperatorPtr strings = std::make_unique<FilterOp>(
        &ctx, std::make_unique<SeqScanOp>(&ctx, "plain"),
        Cmp(CompareOp::kGe, k, LitInt(0)));
    OperatorPtr concat =
        coded_first
            ? std::make_unique<ConcatOp>(std::move(codes), std::move(strings))
            : std::make_unique<ConcatOp>(std::move(strings), std::move(codes));
    HashAggOp agg(&ctx, std::move(concat), {mod3},
                  {MakeAgg(AggSpec::Kind::kMin, s, "min_s"),
                   MakeAgg(AggSpec::Kind::kMax, s, "max_s"),
                   MakeAgg(AggSpec::Kind::kCount, s, "n")});
    auto rows = ExecuteOperator(&agg, &ctx);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows.value().size(), 3u);
    for (const Row& r : rows.value()) {
      const size_t g = static_cast<size_t>(r[0].AsInt());
      EXPECT_EQ(r[1].AsString(), "a") << "group " << g;
      EXPECT_EQ(r[2].AsString(), "z") << "group " << g;
      EXPECT_EQ(r[3].AsInt(), 1002) << "group " << g;
    }
  }
}

// --- TPC-H queries, both engine profiles, full energy accounting ---

class TpchBatchParityTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  static std::unique_ptr<Database> MakeDb(const std::string& profile) {
    DatabaseOptions opt;
    opt.profile = profile == "commercial" ? EngineProfile::Commercial()
                                          : EngineProfile::MySqlMemory();
    auto db = std::make_unique<Database>(opt);
    tpch::DbGenOptions gen;
    gen.scale_factor = testing::kTestSf;
    EXPECT_TRUE(db->LoadTpch(gen).ok());
    return db;
  }
};

TEST_P(TpchBatchParityTest, AllBenchmarkQueriesMatch) {
  // Each query runs on one Database and its LIMIT twin on another that
  // sees the same query sequence, so buffer-pool and machine state match.
  const std::string profile = GetParam();
  auto db = MakeDb(profile);
  auto twin_db = MakeDb(profile);
  for (const auto& [name, sql] : testing::BenchmarkSql()) {
    SCOPED_TRACE(name);
    auto plan = db->PlanSql(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto res = db->ExecutePlanQuery(*plan.value());
    auto twin = twin_db->ExecutePlanQuery(*testing::LimitTwin(*plan.value()));
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_TRUE(twin.ok()) << twin.status().ToString();

    ExpectRowsEqual(testing::ReferenceEvaluate(*plan.value(), *db->catalog()),
                    res.value().rows());
    ExpectRowsEqual(res.value().rows(), twin.value().rows());
    ExpectSameCharges(res.value().exec_stats, twin.value().exec_stats);
    // Simulated time and energy: the paper-facing outputs.
    ExpectNearRel(res.value().seconds, twin.value().seconds, kEnergyRelTol,
                  "seconds");
    ExpectNearRel(res.value().cpu_joules, twin.value().cpu_joules,
                  kEnergyRelTol, "cpu_joules");
    ExpectNearRel(res.value().disk_joules, twin.value().disk_joules,
                  kEnergyRelTol, "disk_joules");
    ExpectNearRel(res.value().wall_joules, twin.value().wall_joules,
                  kEnergyRelTol, "wall_joules");
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, TpchBatchParityTest,
                         ::testing::Values("mysql_memory", "commercial"));

}  // namespace
}  // namespace ecodb
