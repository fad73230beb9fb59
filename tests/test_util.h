// Shared test fixtures.

#ifndef ECODB_TESTS_TEST_UTIL_H_
#define ECODB_TESTS_TEST_UTIL_H_

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ecodb/ecodb.h"

namespace ecodb::testing {

/// Tiny TPC-H database (fast to generate; ~6k lineitem rows).
inline constexpr double kTestSf = 0.002;

inline std::unique_ptr<Database> MakeTestDb(
    EngineProfile profile = EngineProfile::MySqlMemory(),
    double sf = kTestSf) {
  DatabaseOptions opt;
  opt.profile = std::move(profile);
  auto db = std::make_unique<Database>(opt);
  tpch::DbGenOptions gen;
  gen.scale_factor = sf;
  Status st = db->LoadTpch(gen);
  if (!st.ok()) return nullptr;
  return db;
}

/// The TPC-H benchmark queries with default parameters, as (name, SQL):
/// the corpus the parity suites plan and sweep.
inline std::vector<std::pair<std::string, std::string>> BenchmarkSql() {
  return {{"q1", tpch::Q1Sql("1998-09-02")},
          {"q3", tpch::Q3Sql(tpch::Q3Params{})},
          {"q5", tpch::Q5Sql(tpch::Q5Params{})},
          {"q6", tpch::Q6Sql(tpch::Q6Params{})},
          {"selection", tpch::SelectionSql(24)}};
}

/// `plan` under a LIMIT that never binds. For a streaming root the limit
/// pulls the whole pipeline one row at a time, so the twin must charge
/// exactly what `plan` does.
inline PlanNodePtr LimitTwin(const PlanNode& plan) {
  return MakeLimit(ClonePlan(plan), std::numeric_limits<int64_t>::max());
}

/// A small standalone table: t(k INT, v DOUBLE, s STRING) with rows
/// (i, i*1.5, "s<i%mod>") for i in [0, n).
inline Table* MakeSimpleTable(Catalog* catalog, const std::string& name,
                              int n, int mod = 5) {
  Schema schema({Field("k", ValueType::kInt64), Field("v", ValueType::kDouble),
                 Field("s", ValueType::kString, 8)});
  auto result = catalog->CreateTable(name, schema);
  if (!result.ok()) return nullptr;
  Table* t = result.value();
  for (int i = 0; i < n; ++i) {
    Status st = t->AppendRow({Value::Int(i), Value::Dbl(i * 1.5),
                              Value::Str("s" + std::to_string(i % mod))});
    if (!st.ok()) return nullptr;
  }
  (void)catalog->FinalizeLoad(name);
  return t;
}

/// Constructs two *different* two-column int64 keys with an identical
/// full 64-bit HashRowKey, by inverting the hash combine for the second
/// column. Returns false when std::hash<int64_t> is not invertible here
/// (callers should GTEST_SKIP). Used by the hash-collision regression
/// tests for join and group-by tables.
inline bool MakeCollidingKeyPair(Row* key1, Row* key2) {
  const int64_t a1 = 1, b1 = 2, a2 = 3;
  const size_t target = HashCombineKey(
      HashCombineKey(kRowKeyHashSeed, Value::Int(a1).Hash()),
      Value::Int(b1).Hash());
  const size_t h1 = HashCombineKey(kRowKeyHashSeed, Value::Int(a2).Hash());
  // Solve HashCombineKey(h1, hb) == target for the second column's hash.
  const size_t needed_hash =
      (target ^ h1) - 0x9E3779B9 - (h1 << 6) - (h1 >> 2);
  const int64_t b2 = static_cast<int64_t>(needed_hash);
  if (Value::Int(b2).Hash() != needed_hash) return false;
  *key1 = Row{Value::Int(a1), Value::Int(b1)};
  *key2 = Row{Value::Int(a2), Value::Int(b2)};
  return true;
}

}  // namespace ecodb::testing

#endif  // ECODB_TESTS_TEST_UTIL_H_
