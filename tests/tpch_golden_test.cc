// Golden-result tests for the SQL plans of TPC-H Q1 / Q3 / Q5 / Q6, QED's
// 2% selection and a string GROUP BY (with the lineitem ORDER BY below,
// every query shape the benchmark runs), plus two string ORDER BY / LIMIT
// shapes.
//
// The reference evaluator checks answers, but it charges nothing, so it
// cannot notice the executor's work drifting. These tests pin the exact
// result rows (every column, via RowToString) AND what each plan costs —
// every integer counter, charged cycles, simulated time and energy — at
// a fixed dbgen scale factor and seed, so a kernel rewrite that changes
// answers or charges fails loudly.
//
// The expected rows were produced by this engine at sf=0.002,
// seed=19940101 and are stable by construction: dbgen is deterministic,
// aggregation groups emit in first-occurrence order, sorts are stable,
// and join chains iterate in insertion order — none of which depends on
// the platform's std::hash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "ecodb/ecodb.h"
#include "test_util.h"

namespace ecodb {
namespace {

constexpr double kGoldenSf = 0.002;
constexpr uint64_t kGoldenSeed = 19940101;

const char* const kQ1Expected[] = {
    "(A, F, 101338, 152240481.95, 144599812.7273, 150356754.7171, 25.265, "
    "37955.7422, 0.0499, 4011)",
    "(A, O, 10250, 15025861.41, 14249433.449, 14817322.0412, 26.0152, "
    "38136.7041, 0.052, 394)",
    "(N, F, 102368, 152087002.1, 144567266.8252, 150283764.2239, 25.4774, "
    "37851.4191, 0.0494, 4018)",
    "(N, O, 9414, 14020703.37, 13302575.8416, 13839400.1365, 26.2228, "
    "39054.884, 0.0516, 359)",
    "(R, F, 70805, 106522627.45, 101127201.991, 105212840.7395, 25.6169, "
    "38539.3008, 0.0505, 2764)",
    "(R, O, 6956, 10340655.83, 9863667.1947, 10249375.3973, 25.8587, "
    "38441.0997, 0.0471, 269)",
};

const char* const kQ3Expected[] = {
    "(1530, 1995-03-07, 0, 323344.4835)",
    "(2598, 1995-01-25, 0, 285399.0179)",
    "(2213, 1995-01-17, 0, 175412.3168)",
    "(2935, 1995-03-06, 0, 171206.991)",
    "(241, 1995-02-22, 0, 170960.071)",
    "(1368, 1995-02-16, 0, 157910.6809)",
    "(699, 1995-03-07, 0, 130545.8002)",
    "(2299, 1995-02-22, 0, 114485.9624)",
    "(9, 1994-12-21, 0, 109430.2846)",
    "(901, 1994-12-02, 0, 90782.2902)",
};

const char* const kQ5Expected[] = {
    "(JAPAN, 485087.7315)",
    "(CHINA, 231257.5606)",
};

const char* const kQ6Expected[] = {
    "(245657.4596)",
};

// The group_by_strings shape of the benchmark's analytic_w1 mix, copied
// verbatim from kGroupByStringsSql in ecobench/driver.cc: three
// dictionary-string group keys and a MIN over a string column. Groups
// emit in first-occurrence order.
constexpr const char* kGroupByStringsSql =
    "SELECT l_shipmode, l_returnflag, l_linestatus, SUM(l_quantity) AS qty, "
    "COUNT(*) AS n, MIN(l_shipinstruct) AS min_instruct FROM lineitem "
    "GROUP BY l_shipmode, l_returnflag, l_linestatus";

const char* const kGroupByStringsExpected[] = {
    "(RAIL, A, F, 15699, 616, COLLECT COD)",
    "(MAIL, N, F, 14982, 585, COLLECT COD)",
    "(TRUCK, A, F, 15326, 600, COLLECT COD)",
    "(MAIL, A, F, 15299, 588, COLLECT COD)",
    "(AIR, N, F, 14359, 572, COLLECT COD)",
    "(SHIP, R, F, 9712, 373, COLLECT COD)",
    "(SHIP, N, F, 14826, 577, COLLECT COD)",
    "(FOB, R, F, 9730, 381, COLLECT COD)",
    "(TRUCK, N, F, 15607, 595, COLLECT COD)",
    "(TRUCK, R, F, 10412, 425, COLLECT COD)",
    "(REG AIR, N, F, 13356, 540, COLLECT COD)",
    "(SHIP, A, F, 14649, 578, COLLECT COD)",
    "(FOB, N, F, 14260, 577, COLLECT COD)",
    "(REG AIR, R, F, 10637, 408, COLLECT COD)",
    "(AIR, A, F, 13189, 524, COLLECT COD)",
    "(RAIL, N, F, 14978, 572, COLLECT COD)",
    "(REG AIR, A, F, 13212, 543, COLLECT COD)",
    "(FOB, A, F, 13964, 562, COLLECT COD)",
    "(MAIL, N, O, 1374, 55, COLLECT COD)",
    "(FOB, N, O, 1316, 51, COLLECT COD)",
    "(AIR, A, O, 1644, 58, COLLECT COD)",
    "(TRUCK, N, O, 1409, 50, COLLECT COD)",
    "(AIR, R, F, 9984, 397, COLLECT COD)",
    "(MAIL, R, F, 10970, 406, COLLECT COD)",
    "(REG AIR, R, O, 1416, 52, COLLECT COD)",
    "(RAIL, N, O, 1390, 53, COLLECT COD)",
    "(SHIP, R, O, 1048, 40, COLLECT COD)",
    "(RAIL, R, F, 9360, 374, COLLECT COD)",
    "(REG AIR, N, O, 1826, 67, COLLECT COD)",
    "(TRUCK, A, O, 1538, 60, COLLECT COD)",
    "(FOB, A, O, 1691, 65, COLLECT COD)",
    "(REG AIR, A, O, 1752, 59, COLLECT COD)",
    "(RAIL, R, O, 1203, 46, COLLECT COD)",
    "(MAIL, R, O, 1339, 58, COLLECT COD)",
    "(SHIP, N, O, 1984, 74, COLLECT COD)",
    "(MAIL, A, O, 1724, 65, COLLECT COD)",
    "(TRUCK, R, O, 904, 34, COLLECT COD)",
    "(SHIP, A, O, 1689, 71, COLLECT COD)",
    "(AIR, N, O, 1507, 64, COLLECT COD)",
    "(AIR, R, O, 1084, 39, COLLECT COD)",
    "(RAIL, A, O, 1685, 67, COLLECT COD)",
    "(FOB, R, O, 846, 33, COLLECT COD)",
};

// QED's 2% selection, SelectionSql(24): 245 rows, too many to list, so
// the answer is pinned by its row count and an FNV-1a hash of the rows'
// text in order (OrderedChecksum below).
constexpr size_t kSelectionRows = 245;
constexpr uint64_t kSelectionChecksum = 1477270661311918130ull;

// String-returning ORDER BY: region |x| nation (string payloads cross a
// join), projected to (n_name, r_name), sorted descending on n_name,
// LIMIT 10 — the LimitOp pulls capped batches from the columnar sort, so
// this golden pins string-ref lifetime across that truncation path.
// Nation and region contents are fixed by the TPC-H spec, so these rows
// are stable at any scale factor. Pins sort order and string payload
// bytes end to end.
const char* const kStringOrderByExpected[] = {
    "(VIETNAM, ASIA)",        "(UNITED STATES, AMERICA)",
    "(UNITED KINGDOM, EUROPE)", "(SAUDI ARABIA, MIDDLE EAST)",
    "(RUSSIA, EUROPE)",       "(ROMANIA, EUROPE)",
    "(PERU, AMERICA)",        "(MOZAMBIQUE, AFRICA)",
    "(MOROCCO, AFRICA)",      "(KENYA, AFRICA)",
};

// LIMIT directly over a string-bearing join (no sort between): the
// LimitOp pulls the streaming projection one row at a time, and each
// one-row batch carries string payloads out of the join's build pool
// that must arrive intact. Nation/region contents are fixed by the TPC-H
// spec; the join is probe-driven, so output follows nation insertion
// order.
const char* const kLimitOverJoinStringsExpected[] = {
    "(AFRICA, ALGERIA)",      "(AMERICA, ARGENTINA)",
    "(AMERICA, BRAZIL)",      "(AMERICA, CANADA)",
    "(MIDDLE EAST, EGYPT)",   "(AFRICA, ETHIOPIA)",
    "(EUROPE, FRANCE)",
};

Result<PlanNodePtr> BuildLimitOverJoinStringsPlan(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr region, MakeScan(catalog, "region"));
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr nation, MakeScan(catalog, "nation"));
  const int rk = region->output_schema.FindField("r_regionkey");
  const int nk = nation->output_schema.FindField("n_regionkey");
  PlanNodePtr joined =
      MakeHashJoin(std::move(region), std::move(nation), {rk}, {nk});
  const int r_name = joined->output_schema.FindField("r_name");
  const int n_name = joined->output_schema.FindField("n_name");
  std::vector<ExprPtr> exprs{Col(r_name, ValueType::kString, "r_name"),
                             Col(n_name, ValueType::kString, "n_name")};
  PlanNodePtr projected = MakeProject(std::move(joined), std::move(exprs),
                                      {"r_name", "n_name"});
  return MakeLimit(std::move(projected), 7);
}

Result<PlanNodePtr> BuildStringOrderByPlan(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr region, MakeScan(catalog, "region"));
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr nation, MakeScan(catalog, "nation"));
  const int rk = region->output_schema.FindField("r_regionkey");
  const int nk = nation->output_schema.FindField("n_regionkey");
  PlanNodePtr joined =
      MakeHashJoin(std::move(region), std::move(nation), {rk}, {nk});
  const int n_name = joined->output_schema.FindField("n_name");
  const int r_name = joined->output_schema.FindField("r_name");
  std::vector<ExprPtr> exprs{Col(n_name, ValueType::kString, "n_name"),
                             Col(r_name, ValueType::kString, "r_name")};
  PlanNodePtr projected = MakeProject(std::move(joined), std::move(exprs),
                                      {"n_name", "r_name"});
  std::vector<SortKey> keys;
  keys.push_back(
      SortKey{Col(0, ValueType::kString, "n_name"), /*ascending=*/false});
  PlanNodePtr sorted = MakeSort(std::move(projected), std::move(keys));
  return MakeLimit(std::move(sorted), 10);
}

// What each golden plan costs: every integer QueryExecStats counter
// (exact) and the simulated charges, time and energy (relative 1e-9).
// Recorded from the engine at the same sf/seed on a fresh Database, so a
// refactor that keeps the answers but shifts the work the executor
// charges fails here. A plan's sort compares are SortCompareCharge of its
// Sort's input rows (Q1 sorts 6 groups, Q3 and the string ORDER BY 25
// rows, Q5 2), not a count of some library's comparator calls.
struct GoldenCost {
  uint64_t tuples_scanned, tuples_output, comparisons, arith_ops,
      hash_builds, hash_probes, agg_updates, sort_compares, spill_bytes,
      peak_memory_bytes;
  double cycles_charged, mem_lines_charged, seconds, cpu_joules, wall_joules;
};

constexpr GoldenCost kQ1Cost = {
    11954, 6, 23763, 70890, 6, 11815, 11815, 18, 0, 3952,
    29097933, 7291.1187499999951, 0.0096451374430354172,
    0.29499880572728987, 0.92573304660280853};
// Q3 and Q5 join inputs carry only the columns the query reads.
constexpr GoldenCost kQ3Cost = {
    15254, 10, 15992, 118, 376, 7863, 59, 125, 0, 24008,
    12301262, 5927.1812499999878, 0.0042560024269603014,
    0.12746175499805074, 0.40561762420209291};
constexpr GoldenCost kQ5Cost = {
    15304, 2, 5453, 46, 145, 12775, 23, 2, 0, 13892,
    12604169, 7772.8374999999851, 0.004466994574254762,
    0.1322364739079874, 0.42410234516408929};
constexpr GoldenCost kQ6Cost = {
    11954, 1, 23981, 229, 1, 229, 229, 0, 0, 1084,
    9168057, 1185.6187500000033, 0.0029693601149182259,
    0.091874840668502336, 0.28611167466086868};
constexpr GoldenCost kSelectionCost = {
    11954, 245, 11954, 0, 0, 0, 0, 0, 0, 7840,
    8239102, 16198.618750000049, 0.0036184577938144905,
    0.097201697279958033, 0.33300404387672983};
constexpr GoldenCost kGroupByStringsCost = {
    11954, 42, 11912, 0, 42, 11954, 11954, 0, 0, 11254,
    16529076, 9610.6187499999851, 0.0058231949888120742,
    0.17287825967143056, 0.55333684828441054};
constexpr GoldenCost kStringOrderByCost = {
    30, 10, 50, 0, 5, 25, 0, 125, 0, 2392,
    53530, 635.53125, 5.7184923314893753e-05,
    0.0011503626408926116, 0.0048427949050398921};
// The limit pulls its streaming child in one-row batches whose strings
// the result borrows from the join's build pool.
constexpr GoldenCost kLimitOverJoinStringsCost = {
    12, 7, 14, 0, 5, 7, 0, 0, 0, 1492,
    19802, 440.19375000000002, 3.4131982607102607e-05,
    0.00062549617377827553, 0.0028252413024988723};

void ExpectNearRel(double got, double want, const char* what) {
  const double scale = std::max({std::fabs(got), std::fabs(want), 1e-12});
  EXPECT_LE(std::fabs(got - want) / scale, 1e-9)
      << what << ": " << got << " vs pinned " << want;
}

/// FNV-1a hash of the rows' text in order, for answers too long to list.
uint64_t OrderedChecksum(const ResultSet& set) {
  uint64_t h = 1469598103934665603ull;
  for (size_t r = 0; r < set.num_rows(); ++r) {
    for (char ch : RowToString(set.RowAt(r)) + "\n") {
      h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
    }
  }
  return h;
}

class TpchGoldenTest : public ::testing::Test {
 protected:
  static std::unique_ptr<Database> MakeDb() {
    DatabaseOptions opt;
    opt.profile = EngineProfile::MySqlMemory();
    auto db = std::make_unique<Database>(opt);
    tpch::DbGenOptions gen;
    gen.scale_factor = kGoldenSf;
    gen.seed = kGoldenSeed;
    EXPECT_TRUE(db->LoadTpch(gen).ok());
    return db;
  }

  // Runs `plan` on `db` and checks its answer with `expect_rows`, then
  // its cost against `cost`.
  template <typename ExpectRows>
  void ExpectGoldenRun(Database* db, const Result<PlanNodePtr>& plan,
                       const ExpectRows& expect_rows, const GoldenCost& cost) {
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto res = db->ExecutePlanQuery(*plan.value());
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    const QueryResult& q = res.value();
    expect_rows(q.result);
    const QueryExecStats& s = q.exec_stats;
    EXPECT_EQ(s.tuples_scanned, cost.tuples_scanned);
    EXPECT_EQ(s.tuples_output, cost.tuples_output);
    EXPECT_EQ(s.comparisons, cost.comparisons);
    EXPECT_EQ(s.arith_ops, cost.arith_ops);
    EXPECT_EQ(s.hash_builds, cost.hash_builds);
    EXPECT_EQ(s.hash_probes, cost.hash_probes);
    EXPECT_EQ(s.agg_updates, cost.agg_updates);
    EXPECT_EQ(s.sort_compares, cost.sort_compares);
    EXPECT_EQ(s.spill_bytes, cost.spill_bytes);
    EXPECT_EQ(s.peak_memory_bytes, cost.peak_memory_bytes);
    ExpectNearRel(s.cycles_charged, cost.cycles_charged, "cycles_charged");
    ExpectNearRel(s.mem_lines_charged, cost.mem_lines_charged,
                  "mem_lines_charged");
    ExpectNearRel(q.seconds, cost.seconds, "seconds");
    ExpectNearRel(q.cpu_joules, cost.cpu_joules, "cpu_joules");
    ExpectNearRel(q.wall_joules, cost.wall_joules, "wall_joules");
  }

  template <size_t N>
  void ExpectGolden(Database* db, const Result<PlanNodePtr>& plan,
                    const char* const (&expected)[N],
                    const GoldenCost& cost) {
    ExpectGoldenRun(
        db, plan,
        [&](const ResultSet& set) {
          ASSERT_EQ(set.num_rows(), N);
          for (size_t i = 0; i < N; ++i) {
            EXPECT_EQ(RowToString(set.RowAt(i)), expected[i]) << "row " << i;
          }
        },
        cost);
  }
};

TEST_F(TpchGoldenTest, Q1) {
  auto db = MakeDb();
  ExpectGolden(db.get(), db->PlanSql(tpch::Q1Sql("1998-09-02")),
               kQ1Expected, kQ1Cost);
}

TEST_F(TpchGoldenTest, Q3) {
  auto db = MakeDb();
  ExpectGolden(db.get(), db->PlanSql(tpch::Q3Sql(tpch::Q3Params{})),
               kQ3Expected, kQ3Cost);
}

TEST_F(TpchGoldenTest, Q5) {
  auto db = MakeDb();
  ExpectGolden(db.get(), db->PlanSql(tpch::Q5Sql(tpch::Q5Params{})),
               kQ5Expected, kQ5Cost);
}

TEST_F(TpchGoldenTest, StringOrderBy) {
  auto db = MakeDb();
  ExpectGolden(db.get(), BuildStringOrderByPlan(*db->catalog()),
               kStringOrderByExpected, kStringOrderByCost);
}

TEST_F(TpchGoldenTest, LimitOverJoinStrings) {
  auto db = MakeDb();
  ExpectGolden(db.get(), BuildLimitOverJoinStringsPlan(*db->catalog()),
               kLimitOverJoinStringsExpected,
               kLimitOverJoinStringsCost);
}

TEST_F(TpchGoldenTest, Q6) {
  auto db = MakeDb();
  ExpectGolden(db.get(), db->PlanSql(tpch::Q6Sql(tpch::Q6Params{})),
               kQ6Expected, kQ6Cost);
}

TEST_F(TpchGoldenTest, Selection) {
  auto db = MakeDb();
  ExpectGoldenRun(
      db.get(), db->PlanSql(tpch::SelectionSql(24)),
      [](const ResultSet& set) {
        EXPECT_EQ(set.num_rows(), kSelectionRows);
        EXPECT_EQ(OrderedChecksum(set), kSelectionChecksum);
      },
      kSelectionCost);
}

TEST_F(TpchGoldenTest, GroupByStrings) {
  auto db = MakeDb();
  ExpectGolden(db.get(), db->PlanSql(kGroupByStringsSql),
               kGroupByStringsExpected, kGroupByStringsCost);
}

// A root ORDER BY over the whole lineitem width at SF 0.01: the sort's
// input is a filtered scan, so every column reaches the sort as table
// cells the scan lends, and every row reaches the result. Too many rows
// to list, so the answer is pinned by its row count and OrderedChecksum.
constexpr double kOrderByLineitemSf = 0.01;
constexpr const char* kOrderByLineitemSql =
    "SELECT * FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' "
    "ORDER BY l_shipdate DESC, l_orderkey";

struct LineitemOrderByGolden {
  uint64_t rows, checksum, sort_compares, peak_memory_bytes;
  double cycles_charged, mem_lines_charged, cpu_joules, wall_joules;
};

constexpr LineitemOrderByGolden kOrderByLineitem = {
    59758, 370777838446881559ull, 956128, 16076913,
    224355978, 3710105.8343749996, 5.8435337301586037, 25.57837488666209};

TEST(TpchGoldenLineitemTest, OrderByLineitem) {
  DatabaseOptions opt;
  opt.profile = EngineProfile::MySqlMemory();
  Database db(opt);
  tpch::DbGenOptions gen;
  gen.scale_factor = kOrderByLineitemSf;
  gen.seed = kGoldenSeed;
  ASSERT_TRUE(db.LoadTpch(gen).ok());
  auto res = db.ExecuteSql(kOrderByLineitemSql);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const QueryResult& q = res.value();
  const QueryExecStats& s = q.exec_stats;
  EXPECT_EQ(q.result.num_rows(), kOrderByLineitem.rows);
  EXPECT_EQ(OrderedChecksum(q.result), kOrderByLineitem.checksum);
  EXPECT_EQ(s.sort_compares, kOrderByLineitem.sort_compares);
  EXPECT_EQ(s.peak_memory_bytes, kOrderByLineitem.peak_memory_bytes);
  ExpectNearRel(s.cycles_charged, kOrderByLineitem.cycles_charged,
                "cycles_charged");
  ExpectNearRel(s.mem_lines_charged, kOrderByLineitem.mem_lines_charged,
                "mem_lines_charged");
  ExpectNearRel(q.cpu_joules, kOrderByLineitem.cpu_joules, "cpu_joules");
  ExpectNearRel(q.wall_joules, kOrderByLineitem.wall_joules, "wall_joules");
}

}  // namespace
}  // namespace ecodb
