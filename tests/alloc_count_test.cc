// Heap-allocation regression test for the vectorized hot path.
//
// The scratch-buffer work (ExprScratch, operator-owned probe/match
// vectors, typed lanes with retained capacity) exists so that steady-state
// batch execution allocates O(operators), not O(batches x expression
// nodes). This test pins that property the only way that can't regress
// silently: it counts global operator-new calls during query execution at
// two data sizes ~8x apart and asserts the difference stays far below one
// allocation per batch-node. Structures that legitimately grow with data
// (hash-table slots, result rows, first-batch capacity) are covered by
// the generous-but-sublinear slack. It also counts the bytes allocated,
// to pin how many times a sort moves its cells.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "ecodb/ecodb.h"
#include "test_util.h"

namespace {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Not inlined: GCC's -Wmismatched-new-delete would otherwise see the
// free() of a pointer operator new returned at every inlined delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ecodb {
namespace {

/// scan(lineitem) -> filter -> group-by aggregate with an arithmetic SUM:
/// the ROADMAP's hot pipeline, touching the filter fast path, typed
/// double subtrees, group-key views and the agg hash table.
Result<PlanNodePtr> BuildScanFilterAgg(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr scan, MakeScan(catalog, "lineitem"));
  const Schema& s = scan->output_schema;
  auto col = [&](const char* name) {
    int idx = s.FindField(name);
    EXPECT_GE(idx, 0) << name;
    return Col(idx, s.field(idx).type, name);
  };
  ExprPtr qty = col("l_quantity");
  ExprPtr price = col("l_extendedprice");
  ExprPtr disc = col("l_discount");
  ExprPtr flag = col("l_returnflag");
  PlanNodePtr filtered =
      MakeFilter(std::move(scan), Cmp(CompareOp::kLt, qty, LitInt(25)));
  AggSpec revenue;
  revenue.kind = AggSpec::Kind::kSum;
  revenue.arg =
      Arith(ArithOp::kMul, price, Arith(ArithOp::kSub, LitDbl(1.0), disc));
  revenue.name = "revenue";
  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  return MakeAggregate(std::move(filtered), {flag}, {revenue, cnt});
}

uint64_t CountQueryAllocations(Database* db, const PlanNode& plan) {
  // Warm once (first-touch capacity growth, buffer-pool state), then
  // measure a steady-state execution.
  EXPECT_TRUE(db->ExecutePlanQuery(plan).ok());
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  auto res = db->ExecutePlanQuery(plan);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_TRUE(res.ok());
  return after - before;
}

/// scan(lineitem) -> project(l_orderkey, revenue): a result-heavy plan
/// (every input row reaches the ResultSet) over numeric columns, pinning
/// the columnar result-append path: AppendBatch must not allocate per
/// batch or per row beyond geometric column growth — no boxed Row (one
/// heap vector per tuple) is ever built.
Result<PlanNodePtr> BuildProjectAll(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr scan, MakeScan(catalog, "lineitem"));
  const Schema& s = scan->output_schema;
  auto col = [&](const char* name) {
    int idx = s.FindField(name);
    EXPECT_GE(idx, 0) << name;
    return Col(idx, s.field(idx).type, name);
  };
  std::vector<ExprPtr> exprs;
  exprs.push_back(col("l_orderkey"));
  exprs.push_back(Arith(ArithOp::kMul, col("l_extendedprice"),
                        Arith(ArithOp::kSub, LitDbl(1.0), col("l_discount"))));
  return MakeProject(std::move(scan), std::move(exprs),
                     {"l_orderkey", "revenue"});
}

/// Shared small-vs-large scaffold: runs `builder`'s plan at two data
/// sizes ~8x apart and asserts the allocation count is flat up to
/// geometric column growth — no per-batch, per-row or per-string
/// allocation in steady state (and nowhere near the one-Row-per-tuple
/// of the boxed drain).
void ExpectSublinearAllocs(const char* what,
                           Result<PlanNodePtr> (*builder)(const Catalog&)) {
  auto small_db = testing::MakeTestDb(EngineProfile::MySqlMemory(), 0.002);
  auto large_db = testing::MakeTestDb(EngineProfile::MySqlMemory(), 0.016);
  ASSERT_NE(small_db, nullptr);
  ASSERT_NE(large_db, nullptr);

  auto small_plan = builder(*small_db->catalog());
  auto large_plan = builder(*large_db->catalog());
  ASSERT_TRUE(small_plan.ok());
  ASSERT_TRUE(large_plan.ok());

  const uint64_t small_allocs =
      CountQueryAllocations(small_db.get(), *small_plan.value());
  const uint64_t large_allocs =
      CountQueryAllocations(large_db.get(), *large_plan.value());

  const uint64_t small_rows =
      small_db->catalog()->FindEntry("lineitem")->table->num_rows();
  const uint64_t large_rows =
      large_db->catalog()->FindEntry("lineitem")->table->num_rows();
  const uint64_t extra_batches =
      (large_rows - small_rows) / RowBatch::kDefaultBatchRows;
  ASSERT_GE(extra_batches, 40u) << "test tables too close in size";

  std::printf("%s allocations: small=%llu large=%llu (+%llu batches)\n",
              what, static_cast<unsigned long long>(small_allocs),
              static_cast<unsigned long long>(large_allocs),
              static_cast<unsigned long long>(extra_batches));

  EXPECT_LE(large_allocs, small_allocs + extra_batches / 2)
      << "small=" << small_allocs << " large=" << large_allocs
      << " extra_batches=" << extra_batches;
  EXPECT_LE(large_allocs, 600u) << "large=" << large_allocs;
}

TEST(AllocCountTest, ResultSetAppendAllocatesOnlyForColumnGrowth) {
  ExpectSublinearAllocs("result-append", &BuildProjectAll);
}

/// scan(lineitem) -> project(l_orderkey, l_shipinstruct, l_shipmode):
/// a result-heavy plan whose string columns reach the ResultSet through
/// the arena-handoff / table-borrow path. Before PR 5 every string was
/// copied into the result's arena (one heap string + deque growth per
/// row); now the result stores pointers into table storage, so ~8x the
/// rows may only add geometric pointer-array growth.
Result<PlanNodePtr> BuildProjectStrings(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr scan, MakeScan(catalog, "lineitem"));
  const Schema& s = scan->output_schema;
  auto col = [&](const char* name) {
    int idx = s.FindField(name);
    EXPECT_GE(idx, 0) << name;
    return Col(idx, s.field(idx).type, name);
  };
  std::vector<ExprPtr> exprs;
  exprs.push_back(col("l_orderkey"));
  exprs.push_back(col("l_shipinstruct"));
  exprs.push_back(col("l_shipmode"));
  return MakeProject(std::move(scan), std::move(exprs),
                     {"l_orderkey", "l_shipinstruct", "l_shipmode"});
}

/// scan(lineitem) -> group by (l_shipmode, l_returnflag) -> SUM/COUNT:
/// low-cardinality string group keys. Pins the columnar HashAgg emission
/// (typed result columns, no boxed result Rows) plus the ResultSet
/// adopting the aggregate's emitted lanes by arena handoff.
Result<PlanNodePtr> BuildGroupByStrings(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr scan, MakeScan(catalog, "lineitem"));
  const Schema& s = scan->output_schema;
  auto col = [&](const char* name) {
    int idx = s.FindField(name);
    EXPECT_GE(idx, 0) << name;
    return Col(idx, s.field(idx).type, name);
  };
  AggSpec sum;
  sum.kind = AggSpec::Kind::kSum;
  sum.arg = col("l_quantity");
  sum.name = "qty";
  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  return MakeAggregate(std::move(scan),
                       {col("l_shipmode"), col("l_returnflag")}, {sum, cnt});
}

TEST(AllocCountTest, ResultSetStringHandoffAllocatesOnlyForColumnGrowth) {
  ExpectSublinearAllocs("string-handoff", &BuildProjectStrings);
}

TEST(AllocCountTest, HashAggTypedEmissionAllocatesOnlyForColumnGrowth) {
  ExpectSublinearAllocs("agg-emission", &BuildGroupByStrings);
}

TEST(AllocCountTest, ScanFilterAggAllocationsScaleWithOperatorsNotBatches) {
  auto small_db = testing::MakeTestDb(EngineProfile::MySqlMemory(), 0.002);
  auto large_db = testing::MakeTestDb(EngineProfile::MySqlMemory(), 0.016);
  ASSERT_NE(small_db, nullptr);
  ASSERT_NE(large_db, nullptr);

  auto small_plan = BuildScanFilterAgg(*small_db->catalog());
  auto large_plan = BuildScanFilterAgg(*large_db->catalog());
  ASSERT_TRUE(small_plan.ok());
  ASSERT_TRUE(large_plan.ok());

  const uint64_t small_allocs =
      CountQueryAllocations(small_db.get(), *small_plan.value());
  const uint64_t large_allocs =
      CountQueryAllocations(large_db.get(), *large_plan.value());

  const uint64_t small_rows =
      small_db->catalog()->FindEntry("lineitem")->table->num_rows();
  const uint64_t large_rows =
      large_db->catalog()->FindEntry("lineitem")->table->num_rows();
  const uint64_t extra_batches =
      (large_rows - small_rows) / RowBatch::kDefaultBatchRows;
  ASSERT_GE(extra_batches, 40u) << "test tables too close in size";

  RecordProperty("small_allocs", static_cast<int>(small_allocs));
  RecordProperty("large_allocs", static_cast<int>(large_allocs));
  std::printf("steady-state allocations: small=%llu large=%llu (+%llu batches)\n",
              static_cast<unsigned long long>(small_allocs),
              static_cast<unsigned long long>(large_allocs),
              static_cast<unsigned long long>(extra_batches));

  // O(operators): ~8x the data (and ~8x the batches) must not add even
  // one allocation per extra batch. Before the scratch-buffer work this
  // pipeline allocated ~8 vectors per batch (EvalDoubleSubtree
  // temporaries, operand storage, pending sets), i.e. hundreds more.
  EXPECT_LE(large_allocs, small_allocs + extra_batches / 2)
      << "small=" << small_allocs << " large=" << large_allocs
      << " extra_batches=" << extra_batches;

  // Absolute sanity: a steady-state execution of a 4-operator pipeline
  // should sit in the low hundreds of allocations total (plan
  // instantiation, per-query operator state, a handful of result rows).
  EXPECT_LE(large_allocs, 600u) << "large=" << large_allocs;
}


/// scan(lineitem) -> group by l_orderkey -> SUM, COUNT(*), MIN(l_shipdate):
/// one group per order, so the group count grows with the data.
Result<PlanNodePtr> BuildGroupPerOrder(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr scan, MakeScan(catalog, "lineitem"));
  const Schema& s = scan->output_schema;
  auto col = [&](const char* name) {
    int idx = s.FindField(name);
    EXPECT_GE(idx, 0) << name;
    return Col(idx, s.field(idx).type, name);
  };
  AggSpec sum;
  sum.kind = AggSpec::Kind::kSum;
  sum.arg = col("l_extendedprice");
  sum.name = "price";
  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  AggSpec first;
  first.kind = AggSpec::Kind::kMin;
  first.arg = col("l_shipdate");
  first.name = "first_ship";
  return MakeAggregate(std::move(scan), {col("l_orderkey")},
                       {sum, cnt, first});
}

/// Group state lives in one column per key and per aggregate state, so
/// creating G groups allocates O(columns · log G) blocks, never one or
/// more per group (a boxed key row, a vector of accumulators). Checked
/// sequentially and with two morsel workers, whose shipped partials
/// allocate per batch but not per group.
void ExpectGroupsAllocateColumnsNotRows(int workers, uint64_t per_group_div) {
  auto small_db = testing::MakeTestDb(EngineProfile::MySqlMemory(), 0.002);
  auto large_db = testing::MakeTestDb(EngineProfile::MySqlMemory(), 0.016);
  ASSERT_NE(small_db, nullptr);
  ASSERT_NE(large_db, nullptr);
  small_db->set_exec_workers(workers);
  large_db->set_exec_workers(workers);
  auto small_plan = BuildGroupPerOrder(*small_db->catalog());
  auto large_plan = BuildGroupPerOrder(*large_db->catalog());
  ASSERT_TRUE(small_plan.ok());
  ASSERT_TRUE(large_plan.ok());
  const uint64_t small_allocs =
      CountQueryAllocations(small_db.get(), *small_plan.value());
  const uint64_t large_allocs =
      CountQueryAllocations(large_db.get(), *large_plan.value());
  const uint64_t small_groups =
      small_db->catalog()->FindEntry("orders")->table->num_rows();
  const uint64_t large_groups =
      large_db->catalog()->FindEntry("orders")->table->num_rows();
  const uint64_t extra_groups = large_groups - small_groups;
  std::printf("groups (W=%d) allocations: small=%llu large=%llu "
              "(+%llu groups)\n",
              workers, static_cast<unsigned long long>(small_allocs),
              static_cast<unsigned long long>(large_allocs),
              static_cast<unsigned long long>(extra_groups));
  EXPECT_LE(large_allocs, small_allocs + extra_groups / per_group_div)
      << "small=" << small_allocs << " large=" << large_allocs
      << " extra_groups=" << extra_groups;
}

TEST(AllocCountTest, GroupsAllocateColumnsNotRows) {
  ExpectGroupsAllocateColumnsNotRows(/*workers=*/1, /*per_group_div=*/100);
}

TEST(AllocCountTest, ParallelGroupsAllocateColumnsNotRows) {
  // Each batch's shipped partial allocates a couple of dozen blocks (its
  // ordinals, new-key and argument columns); a group per order is about
  // 250 new groups per batch, so one block per group would be 10x that.
  ExpectGroupsAllocateColumnsNotRows(/*workers=*/2, /*per_group_div=*/4);
}

/// scan(nation) join scan(customer) -> MAX(c_name). The join gathers the
/// names out of the probe side in customer-key order, so every row is a
/// new winner held in batch storage, which the aggregate must copy before
/// the batch goes away.
Result<PlanNodePtr> BuildMaxNameOverJoin(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr nation, MakeScan(catalog, "nation"));
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr customer, MakeScan(catalog, "customer"));
  const int n_key = nation->output_schema.FindField("n_nationkey");
  const int c_key = customer->output_schema.FindField("c_nationkey");
  const int c_name = customer->output_schema.FindField("c_name");
  EXPECT_GE(n_key, 0);
  EXPECT_GE(c_key, 0);
  EXPECT_GE(c_name, 0);
  const int name_col = nation->output_schema.num_fields() + c_name;
  PlanNodePtr join =
      MakeHashJoin(std::move(nation), std::move(customer), {n_key}, {c_key});
  AggSpec max;
  max.kind = AggSpec::Kind::kMax;
  max.arg = Col(name_col, ValueType::kString, "c_name");
  max.name = "max_name";
  return MakeAggregate(std::move(join), {}, {max});
}

/// A MIN/MAX group keeps one copy of a winner from batch storage and
/// reassigns it in place: an ascending run of such winners allocates per
/// group, not per row (a copy per new winner would be one heap block per
/// customer here, the names being longer than the short-string buffer).
TEST(AllocCountTest, AscendingStringExtremesReuseTheirGroupsCopy) {
  auto small_db = testing::MakeTestDb(EngineProfile::MySqlMemory(), 0.002);
  auto large_db = testing::MakeTestDb(EngineProfile::MySqlMemory(), 0.016);
  ASSERT_NE(small_db, nullptr);
  ASSERT_NE(large_db, nullptr);
  auto small_plan = BuildMaxNameOverJoin(*small_db->catalog());
  auto large_plan = BuildMaxNameOverJoin(*large_db->catalog());
  ASSERT_TRUE(small_plan.ok());
  ASSERT_TRUE(large_plan.ok());
  const uint64_t small_allocs =
      CountQueryAllocations(small_db.get(), *small_plan.value());
  const uint64_t large_allocs =
      CountQueryAllocations(large_db.get(), *large_plan.value());
  const uint64_t extra_rows =
      large_db->catalog()->FindEntry("customer")->table->num_rows() -
      small_db->catalog()->FindEntry("customer")->table->num_rows();
  ASSERT_GE(extra_rows, 1000u) << "test tables too close in size";
  std::printf("ascending string MAX allocations: small=%llu large=%llu "
              "(+%llu rows)\n",
              static_cast<unsigned long long>(small_allocs),
              static_cast<unsigned long long>(large_allocs),
              static_cast<unsigned long long>(extra_rows));
  EXPECT_LE(large_allocs, small_allocs + extra_rows / 20)
      << "small=" << small_allocs << " large=" << large_allocs
      << " extra_rows=" << extra_rows;
}

/// A root ORDER BY over all 16 lineitem columns: the sort holds the
/// scan's columns by table row and gathers each output column once,
/// straight into a result sized in advance. Everything it allocates past
/// the result itself (row positions, key columns and words, the
/// permutation) must stay under half the result's cell bytes; copying
/// the input columns, or emitting through an intermediate batch into a
/// growing result, allocates several times the result.
TEST(AllocCountTest, RootSortAllocatesLittleBeyondItsResult) {
  auto db = testing::MakeTestDb(EngineProfile::MySqlMemory(), 0.01);
  ASSERT_NE(db, nullptr);
  auto plan = db->PlanSql(
      "SELECT * FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' "
      "ORDER BY l_shipdate DESC, l_orderkey");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(db->ExecutePlanQuery(*plan.value()).ok());  // warm
  const uint64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  auto res = db->ExecutePlanQuery(*plan.value());
  const uint64_t bytes = g_alloc_bytes.load(std::memory_order_relaxed) - before;
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const ResultSet& set = res.value().result;
  ASSERT_EQ(set.num_cols(), 16);
  ASSERT_GT(set.num_rows(), 50000u);
  // 8 bytes per cell plus its null-mask byte.
  const uint64_t cell_bytes = static_cast<uint64_t>(set.num_rows()) *
                              static_cast<uint64_t>(set.num_cols()) * 9;
  std::printf("root sort: %llu bytes allocated for %llu result cell bytes "
              "(%.2fx)\n",
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(cell_bytes),
              static_cast<double>(bytes) / static_cast<double>(cell_bytes));
  EXPECT_LT(static_cast<double>(bytes), 1.5 * static_cast<double>(cell_bytes));
}

}  // namespace
}  // namespace ecodb
