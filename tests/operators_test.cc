#include <gtest/gtest.h>

#include "ecodb/exec/operators.h"
#include "ecodb/exec/plan.h"
#include "reference_eval.h"
#include "test_util.h"

namespace ecodb {
namespace {

class OperatorsTest : public ::testing::Test {
 protected:
  OperatorsTest()
      : machine_(MachineConfig::PaperTestbed()),
        profile_(EngineProfile::MySqlMemory()),
        pool_(&machine_, 0),
        ctx_(&machine_, &profile_, &catalog_, &pool_) {
    testing::MakeSimpleTable(&catalog_, "t", 100);
    testing::MakeSimpleTable(&catalog_, "u", 10);
  }

  PlanNodePtr Scan(const std::string& name) {
    return MakeScan(catalog_, name).value();
  }

  std::vector<Row> Run(const PlanNode& plan) {
    auto rows = ExecutePlan(plan, &ctx_);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? std::move(rows).value() : std::vector<Row>{};
  }

  Machine machine_;
  EngineProfile profile_;
  Catalog catalog_;
  BufferPool pool_;
  ExecContext ctx_;
};

TEST_F(OperatorsTest, SeqScanReturnsAllRowsInOrder) {
  auto rows = Run(*Scan("t"));
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_EQ(rows[0][0].AsInt(), 0);
  EXPECT_EQ(rows[99][0].AsInt(), 99);
  EXPECT_EQ(rows[7][2].AsString(), "s2");
}

TEST_F(OperatorsTest, SeqScanChargesCpuWork) {
  Run(*Scan("t"));
  EXPECT_EQ(ctx_.stats().tuples_scanned, 100u);
  EXPECT_GT(ctx_.stats().cycles_charged, 0);
  EXPECT_GT(machine_.NowSeconds(), 0);
}

TEST_F(OperatorsTest, ScanOfMissingTableFails) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kScan;
  node->table_name = "missing";
  SeqScanOp op(&ctx_, "missing");
  EXPECT_TRUE(op.Open().IsNotFound());
}

TEST_F(OperatorsTest, FilterKeepsMatchingRows) {
  PlanNodePtr scan = Scan("t");
  ExprPtr pred = Cmp(CompareOp::kLt, Col(0, ValueType::kInt64, "k"),
                     LitInt(10));
  auto rows = Run(*MakeFilter(std::move(scan), pred));
  EXPECT_EQ(rows.size(), 10u);
}

TEST_F(OperatorsTest, ProjectComputesExpressions) {
  PlanNodePtr scan = Scan("t");
  ExprPtr doubled = Arith(ArithOp::kMul, Col(0, ValueType::kInt64, "k"),
                          LitInt(2));
  auto rows = Run(*MakeProject(std::move(scan), {doubled}, {"k2"}));
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_EQ(rows[21][0].AsInt(), 42);
}

TEST_F(OperatorsTest, HashJoinMatchesKeyPairs) {
  // t.k in [0,100), u.k in [0,10): join on k%? -> join t.k = u.k directly.
  PlanNodePtr t = Scan("t");
  PlanNodePtr u = Scan("u");
  auto rows = Run(*MakeHashJoin(std::move(u), std::move(t), {0}, {0}));
  EXPECT_EQ(rows.size(), 10u);  // keys 0..9 match once each
  for (const Row& r : rows) {
    EXPECT_EQ(r[0].AsInt(), r[3].AsInt());  // u.k == t.k
  }
}

TEST_F(OperatorsTest, HashJoinEqualsNestedLoopJoin) {
  // Property: the two join algorithms produce the same multiset on an
  // equi-join (s column has duplicates -> multi-match case covered).
  PlanNodePtr hj = MakeHashJoin(Scan("u"), Scan("t"), {2}, {2});
  auto hash_rows = Run(*hj);

  ExprPtr pred = Eq(Col(2, ValueType::kString, "us"),
                    Col(5, ValueType::kString, "ts"));
  PlanNodePtr nl = MakeNestedLoopJoin(Scan("u"), Scan("t"), pred);
  auto nl_rows = Run(*nl);

  ASSERT_EQ(hash_rows.size(), nl_rows.size());
  auto key = [](const Row& r) {
    std::string s;
    for (const Value& v : r) s += v.ToString() + "|";
    return s;
  };
  std::vector<std::string> a, b;
  for (const Row& r : hash_rows) a.push_back(key(r));
  for (const Row& r : nl_rows) b.push_back(key(r));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST_F(OperatorsTest, MultiKeyHashJoin) {
  PlanNodePtr j = MakeHashJoin(Scan("u"), Scan("t"), {0, 2}, {0, 2});
  auto rows = Run(*j);
  EXPECT_EQ(rows.size(), 10u);  // (k, s) pairs align for k<10
}

TEST_F(OperatorsTest, CrossJoinProducesCartesianProduct) {
  PlanNodePtr j = MakeNestedLoopJoin(Scan("u"), Scan("u"), nullptr);
  auto rows = Run(*j);
  EXPECT_EQ(rows.size(), 100u);
}

TEST_F(OperatorsTest, HashJoinRejectsHashCollidingKeys) {
  // Join and group-by hash tables chain rows by HashRowKey alone, so two
  // *different* keys that collide on the full 64-bit hash land in the
  // same chain; correctness then depends on the full-key compare
  // (HashJoinOp::KeysEqual). Assert the join emits only the true match.
  Row key1, key2;
  if (!testing::MakeCollidingKeyPair(&key1, &key2)) {
    GTEST_SKIP() << "std::hash<int64_t> is not invertible here; cannot "
                    "construct a deterministic collision";
  }
  ASSERT_EQ(HashRowKey(key1, {0, 1}), HashRowKey(key2, {0, 1}));
  ASSERT_NE(RowToString(key1), RowToString(key2));

  Schema schema({Field("x", ValueType::kInt64), Field("y", ValueType::kInt64),
                 Field("tag", ValueType::kInt64)});
  Table* build = catalog_.CreateTable("collide_build", schema).value();
  ASSERT_TRUE(
      build->AppendRow({key1[0], key1[1], Value::Int(100)}).ok());
  ASSERT_TRUE(
      build->AppendRow({key2[0], key2[1], Value::Int(200)}).ok());
  ASSERT_TRUE(catalog_.FinalizeLoad("collide_build").ok());
  Table* probe = catalog_.CreateTable("collide_probe", schema).value();
  ASSERT_TRUE(
      probe->AppendRow({key1[0], key1[1], Value::Int(999)}).ok());
  ASSERT_TRUE(catalog_.FinalizeLoad("collide_probe").ok());

  PlanNodePtr join = MakeHashJoin(Scan("collide_build"),
                                  Scan("collide_probe"), {0, 1}, {0, 1});
  auto rows = ExecutePlan(*join, &ctx_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][2].AsInt(), 100);  // true match only
}

TEST_F(OperatorsTest, HashAggSeparatesHashCollidingGroups) {
  // Same collision, via the aggregation hash table: the two keys must
  // form two groups, not be merged by their shared hash.
  Row key1, key2;
  if (!testing::MakeCollidingKeyPair(&key1, &key2)) {
    GTEST_SKIP() << "std::hash<int64_t> is not invertible here";
  }
  Schema schema({Field("x", ValueType::kInt64), Field("y", ValueType::kInt64)});
  Table* t = catalog_.CreateTable("collide_agg", schema).value();
  for (int rep = 0; rep < 3; ++rep) {
    ASSERT_TRUE(t->AppendRow({key1[0], key1[1]}).ok());
  }
  ASSERT_TRUE(t->AppendRow({key2[0], key2[1]}).ok());
  ASSERT_TRUE(catalog_.FinalizeLoad("collide_agg").ok());

  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  PlanNodePtr agg = MakeAggregate(
      Scan("collide_agg"),
      {Col(0, ValueType::kInt64, "x"), Col(1, ValueType::kInt64, "y")},
      {cnt});
  auto rows = ExecutePlan(*agg, &ctx_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  int64_t total = rows.value()[0][2].AsInt() + rows.value()[1][2].AsInt();
  EXPECT_EQ(total, 4);
  EXPECT_NE(rows.value()[0][2].AsInt(), rows.value()[1][2].AsInt());
}

TEST_F(OperatorsTest, FlatHashIndexChainsDuplicateHashesInInsertionOrder) {
  FlatHashIndex idx;
  idx.Reset(4);
  const size_t h = 0x12345;
  idx.Insert(h, 0);
  idx.Insert(h, 1);
  idx.Insert(h, 2);
  EXPECT_EQ(idx.distinct_hashes(), 1u);
  EXPECT_EQ(idx.size(), 3u);
  uint32_t e = idx.Find(h);
  EXPECT_EQ(e, 0u);
  e = idx.Next(e);
  EXPECT_EQ(e, 1u);
  e = idx.Next(e);
  EXPECT_EQ(e, 2u);
  EXPECT_EQ(idx.Next(e), FlatHashIndex::kInvalid);
  EXPECT_EQ(idx.Find(h + 1), FlatHashIndex::kInvalid);
}

TEST_F(OperatorsTest, FlatHashIndexResolvesSlotCollisionsByLinearProbe) {
  // Hashes congruent modulo the capacity land on the same slot and must
  // be kept apart by the probe sequence (distinct hashes, no chaining).
  FlatHashIndex idx;
  idx.Reset(4);
  const size_t cap = idx.capacity();
  ASSERT_GE(cap, 4u);
  ASSERT_EQ(cap & (cap - 1), 0u) << "capacity must be a power of two";
  const size_t h = 7;
  idx.Insert(h, 0);
  idx.Insert(h + cap, 1);
  idx.Insert(h + 2 * cap, 2);
  EXPECT_EQ(idx.distinct_hashes(), 3u);
  EXPECT_EQ(idx.Find(h), 0u);
  EXPECT_EQ(idx.Find(h + cap), 1u);
  EXPECT_EQ(idx.Find(h + 2 * cap), 2u);
  EXPECT_EQ(idx.Next(idx.Find(h)), FlatHashIndex::kInvalid);
  // An absent hash whose probe path crosses the occupied run still
  // terminates at the first empty slot.
  EXPECT_EQ(idx.Find(h + 3 * cap), FlatHashIndex::kInvalid);
}

TEST_F(OperatorsTest, FlatHashIndexKeepsChainsAcrossResize) {
  // Insert far more distinct hashes than the initial capacity while
  // interleaving duplicates: every grow must preserve both the chains and
  // the probe-reachability of every hash.
  FlatHashIndex idx;
  idx.Reset();
  const size_t kKeys = 1000;
  uint32_t payload = 0;
  for (size_t k = 0; k < kKeys; ++k) {
    size_t h = k * 0x9E3779B97F4A7C15ULL;  // spread hashes
    idx.Insert(h, payload++);
    idx.Insert(h, payload++);  // duplicate: chains through next-links
  }
  EXPECT_EQ(idx.distinct_hashes(), kKeys);
  EXPECT_EQ(idx.size(), 2 * kKeys);
  EXPECT_GT(idx.capacity(), kKeys);  // grew past several doublings
  for (size_t k = 0; k < kKeys; ++k) {
    size_t h = k * 0x9E3779B97F4A7C15ULL;
    uint32_t e = idx.Find(h);
    ASSERT_EQ(e, static_cast<uint32_t>(2 * k));
    e = idx.Next(e);
    ASSERT_EQ(e, static_cast<uint32_t>(2 * k + 1));
    ASSERT_EQ(idx.Next(e), FlatHashIndex::kInvalid);
  }
}

TEST_F(OperatorsTest, HashJoinDuplicateKeyChainsSurviveResizeDuringBuild) {
  // 3000 build rows with only 10 distinct keys: the flat table grows
  // several times during build while every key carries a 300-entry
  // duplicate chain. Each probe row must see all 300 matches, in the
  // reference evaluator's order.
  Schema schema({Field("k", ValueType::kInt64), Field("tag", ValueType::kInt64)});
  Table* build = catalog_.CreateTable("dup_build", schema).value();
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        build->AppendRow({Value::Int(i % 10), Value::Int(i)}).ok());
  }
  ASSERT_TRUE(catalog_.FinalizeLoad("dup_build").ok());
  Table* probe = catalog_.CreateTable("dup_probe", schema).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(probe->AppendRow({Value::Int(i), Value::Int(-i)}).ok());
  }
  ASSERT_TRUE(catalog_.FinalizeLoad("dup_probe").ok());

  PlanNodePtr join =
      MakeHashJoin(Scan("dup_build"), Scan("dup_probe"), {0}, {0});
  auto rows = ExecutePlan(*join, &ctx_);
  ASSERT_TRUE(rows.ok());
  const std::vector<Row>& got = rows.value();
  ASSERT_EQ(got.size(), 3000u);
  for (const Row& r : got) {
    EXPECT_EQ(r[0].AsInt(), r[2].AsInt());  // key equality
  }
  // Emission order (probe order x chain insertion order) matches exactly.
  const std::vector<Row> expect = testing::ReferenceEvaluate(*join, catalog_);
  ASSERT_EQ(expect.size(), got.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(RowToString(expect[i]), RowToString(got[i])) << "row " << i;
  }
  // Chains iterate in build insertion order: tags ascend within a key.
  for (size_t i = 1; i < got.size(); ++i) {
    if (got[i][0].AsInt() == got[i - 1][0].AsInt()) {
      EXPECT_GT(got[i][1].AsInt(), got[i - 1][1].AsInt());
    }
  }
}

TEST_F(OperatorsTest, HashJoinEmptyBuildSide) {
  // An empty build side must leave the flat table empty (never grown) and
  // produce zero rows while still draining the probe side.
  PlanNodePtr empty_build = MakeFilter(
      Scan("u"),
      Cmp(CompareOp::kLt, Col(0, ValueType::kInt64, "k"), LitInt(-1)));
  PlanNodePtr join = MakeHashJoin(std::move(empty_build), Scan("t"), {0}, {0});
  auto rows = ExecutePlan(*join, &ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows.value().empty());
}

TEST_F(OperatorsTest, HashAggGroupsSurviveResizeDuringBuild) {
  // More groups than the flat table's initial capacity: grouped counts
  // must stay exact across the resizes.
  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  testing::MakeSimpleTable(&catalog_, "many_groups", 400, 200);
  PlanNodePtr agg = MakeAggregate(Scan("many_groups"),
                                  {Col(2, ValueType::kString, "s")}, {cnt});
  auto rows = ExecutePlan(*agg, &ctx_);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 200u);
  for (const Row& r : rows.value()) EXPECT_EQ(r[1].AsInt(), 2);
}

TEST_F(OperatorsTest, HashAggComputesAllAggregateKinds) {
  // Group t by s (5 groups of 20), aggregate k.
  PlanNodePtr scan = Scan("t");
  ExprPtr k = Col(0, ValueType::kInt64, "k");
  ExprPtr s = Col(2, ValueType::kString, "s");
  auto mk = [&](AggSpec::Kind kind, const char* name) {
    AggSpec a;
    a.kind = kind;
    a.arg = k;
    a.name = name;
    return a;
  };
  AggSpec count_star;
  count_star.kind = AggSpec::Kind::kCount;
  count_star.arg = nullptr;
  count_star.name = "n";
  auto rows = Run(*MakeAggregate(
      std::move(scan), {s},
      {mk(AggSpec::Kind::kSum, "sum"), mk(AggSpec::Kind::kMin, "min"),
       mk(AggSpec::Kind::kMax, "max"), mk(AggSpec::Kind::kAvg, "avg"),
       count_star}));
  ASSERT_EQ(rows.size(), 5u);
  for (const Row& r : rows) {
    const std::string& group = r[0].AsString();
    int64_t g = group[1] - '0';
    // Members: g, g+5, ..., g+95 -> 20 values.
    EXPECT_EQ(r[5].AsInt(), 20);                       // count(*)
    EXPECT_DOUBLE_EQ(r[1].AsDouble(), 20 * g + 950.0); // sum
    EXPECT_EQ(r[2].AsInt(), g);                        // min
    EXPECT_EQ(r[3].AsInt(), g + 95);                   // max
    EXPECT_DOUBLE_EQ(r[4].AsDouble(), (20 * g + 950.0) / 20.0);  // avg
  }
}

TEST_F(OperatorsTest, GlobalAggregateOnEmptyInputYieldsOneRow) {
  PlanNodePtr scan = Scan("t");
  PlanNodePtr filtered =
      MakeFilter(std::move(scan),
                 Cmp(CompareOp::kLt, Col(0, ValueType::kInt64, "k"),
                     LitInt(-1)));
  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  auto rows = Run(*MakeAggregate(std::move(filtered), {}, {cnt}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt(), 0);
}

TEST_F(OperatorsTest, SortAscendingAndDescending) {
  PlanNodePtr scan = Scan("u");
  ExprPtr k = Col(0, ValueType::kInt64, "k");
  auto rows = Run(*MakeSort(std::move(scan), {SortKey{k, false}}));
  ASSERT_EQ(rows.size(), 10u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i - 1][0].AsInt(), rows[i][0].AsInt());
  }
}

TEST_F(OperatorsTest, SortIsStableViaTiebreak) {
  PlanNodePtr scan = Scan("t");
  ExprPtr s = Col(2, ValueType::kString, "s");
  auto rows = Run(*MakeSort(std::move(scan), {SortKey{s, true}}));
  ASSERT_EQ(rows.size(), 100u);
  // Within equal s groups, original k order preserved.
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i - 1][2].AsString() == rows[i][2].AsString()) {
      EXPECT_LT(rows[i - 1][0].AsInt(), rows[i][0].AsInt());
    }
  }
}

TEST_F(OperatorsTest, LimitTruncates) {
  auto rows = Run(*MakeLimit(Scan("t"), 7));
  EXPECT_EQ(rows.size(), 7u);
  rows = Run(*MakeLimit(Scan("u"), 100));
  EXPECT_EQ(rows.size(), 10u);
  rows = Run(*MakeLimit(Scan("u"), 0));
  EXPECT_EQ(rows.size(), 0u);
}

TEST_F(OperatorsTest, PlanExplainShowsTree) {
  PlanNodePtr plan = MakeLimit(
      MakeFilter(Scan("t"), Eq(Col(0, ValueType::kInt64, "k"), LitInt(1))),
      5);
  std::string text = plan->Explain();
  EXPECT_NE(text.find("Limit"), std::string::npos);
  EXPECT_NE(text.find("Filter"), std::string::npos);
  EXPECT_NE(text.find("Scan(t)"), std::string::npos);
}

TEST(TypedColumnTest, StableAppendBorrowsPointerAndHandsArenaOff) {
  // Producer batch with an arena-backed string lane.
  RowBatch batch;
  batch.Reset(1);
  auto* lane = batch.StartLane(0, ValueType::kString);
  ASSERT_NE(lane, nullptr);
  const std::string* s0 = batch.arena()->Intern("payload-zero");
  const std::string* s1 = batch.arena()->Intern("payload-one");
  lane->str = {s0, s1};
  batch.set_num_rows(2);
  batch.ExtendIdentitySel(0);

  TypedColumn col;
  col.Reset(ValueType::kString);
  col.RetainStorageOf(batch);
  col.AppendStable(batch.ViewCell(0, 0));
  col.AppendStable(batch.ViewCell(0, 1));
  // Borrowed, not copied: same addresses, nothing interned by the column.
  EXPECT_EQ(col.View(0).s, s0);
  EXPECT_EQ(col.View(1).s, s1);
  EXPECT_TRUE(col.strings()->empty());

  // The handoff keeps the bytes alive after the producer batch resets
  // (its sole-owner arena reuse must see the column's retained handle).
  batch.Reset(1);
  EXPECT_EQ(*col.View(0).s, "payload-zero");
  EXPECT_EQ(*col.View(1).s, "payload-one");

  // GatherInto forwards the retained handles to the emitted batch.
  RowBatch out;
  out.Reset(1);
  const uint32_t idx[] = {1, 0};
  col.GatherInto(&out, 0, idx, 2);
  out.set_num_rows(2);
  out.ExtendIdentitySel(0);
  col.Reset(ValueType::kString);  // column teardown
  EXPECT_EQ(*out.ViewCell(0, 0).s, "payload-one");
  EXPECT_EQ(*out.ViewCell(0, 1).s, "payload-zero");
}

TEST_F(OperatorsTest, ClonePlanIsDeepAndEquivalent) {
  PlanNodePtr plan = MakeFilter(
      Scan("t"), Cmp(CompareOp::kLt, Col(0, ValueType::kInt64, "k"),
                     LitInt(50)));
  PlanNodePtr copy = ClonePlan(*plan);
  auto a = Run(*plan);
  auto b = Run(*copy);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_NE(plan.get(), copy.get());
  EXPECT_NE(plan->children[0].get(), copy->children[0].get());
}

}  // namespace
}  // namespace ecodb
