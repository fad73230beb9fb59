// Property test of the normalized sort keys (exec/sort_keys.h): for
// every pair of rows, the encoded order must equal SortOp's reference
// order — CompareCellViews over each key, DESC reversed, the input
// position as the last tiebreak — in both forms, the packed records and
// the row-major words, and NormalizedKeys::Sort must produce, through
// the radix sort and through the wide-key index sort alike, exactly the
// permutation of an index sort under that reference order. A sort is
// charged SortCompareCharge(n) sort compares, whatever path it takes.
//
// Key columns cover every encoder path: int64 extremes, dates, bools,
// doubles with +-0.0 and +-inf, nulls, strings of one dictionary (code
// path), of two dictionaries, copied and mixed with dictionary entries
// (rank path), and all-null columns of type NULL (a NULL literal).
// The seed comes from ECODB_FUZZ_SEED when set (the fuzz harnesses'
// variable), so a second seed can run the same properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "ecodb/ecodb.h"
#include "ecodb/exec/sort_keys.h"
#include "test_util.h"

namespace ecodb {
namespace {

uint64_t Seed() {
  if (const char* s = std::getenv("ECODB_FUZZ_SEED")) {
    return std::strtoull(s, nullptr, 0);
  }
  return 0x5eed5012;
}

enum class Kind {
  kInt,
  kIntNulls,
  kDate,
  kBool,
  kDouble,
  kDoubleNulls,
  kOneDict,
  kOneDictNulls,
  kTwoDicts,
  kCopiedStrings,
  kDictAndCopies,
  kAllNull,
};
constexpr Kind kAllKinds[] = {
    Kind::kInt,         Kind::kIntNulls,       Kind::kDate,
    Kind::kBool,        Kind::kDouble,         Kind::kDoubleNulls,
    Kind::kOneDict,     Kind::kOneDictNulls,   Kind::kTwoDicts,
    Kind::kCopiedStrings, Kind::kDictAndCopies, Kind::kAllNull,
};

const std::vector<std::string>& DictWords(int which) {
  static const std::vector<std::string> a = {
      "AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"};
  static const std::vector<std::string> b = {"", "AIR", "FOB", "MAI",
                                             "MAIL", "SHIP", "ZZZ"};
  return which == 0 ? a : b;
}

class KeyColumnFactory {
 public:
  explicit KeyColumnFactory(uint64_t seed) : rng_(seed) {
    for (int d = 0; d < 2; ++d) {
      dicts_[d] = std::make_unique<Column>(ValueType::kString);
      for (const std::string& w : DictWords(d)) dicts_[d]->AppendString(w);
    }
  }

  /// From this many rows on, a string column surely holds the storage
  /// its kind names (a few rows may all come from one dictionary).
  static constexpr size_t kDictCheckRows = 32;

  TypedColumn Make(Kind kind, size_t n) {
    TypedColumn col;
    switch (kind) {
      case Kind::kInt:
      case Kind::kIntNulls: {
        static const int64_t kPool[] = {
            std::numeric_limits<int64_t>::min(),
            std::numeric_limits<int64_t>::min() + 1,
            -(int64_t{1} << 53),
            -1,
            0,
            1,
            int64_t{1} << 53,
            std::numeric_limits<int64_t>::max() - 1,
            std::numeric_limits<int64_t>::max()};
        col.Reset(ValueType::kInt64);
        for (size_t i = 0; i < n; ++i) {
          if (kind == Kind::kIntNulls && Coin(0.15)) {
            col.Append(CellView::Null());
          } else {
            col.Append(CellView::Int64(Coin(0.7) ? Pick(kPool)
                                                 : Uniform(-3, 3)));
          }
        }
        return col;
      }
      case Kind::kDate:
        col.Reset(ValueType::kDate);
        for (size_t i = 0; i < n; ++i) {
          col.Append(
              CellView::Int64(Uniform(-400, 400) * 37, ValueType::kDate));
        }
        return col;
      case Kind::kBool:
        col.Reset(ValueType::kBool);
        for (size_t i = 0; i < n; ++i) {
          col.Append(CellView::Int64(Uniform(0, 1), ValueType::kBool));
        }
        return col;
      case Kind::kDouble:
      case Kind::kDoubleNulls: {
        const double inf = std::numeric_limits<double>::infinity();
        const double denorm = std::numeric_limits<double>::denorm_min();
        const double kPool[] = {-inf,   -DBL_MAX, -1.5,    -DBL_MIN,
                                -denorm, -0.0,    0.0,     denorm,
                                DBL_MIN, 1.5,     DBL_MAX, inf};
        col.Reset(ValueType::kDouble);
        for (size_t i = 0; i < n; ++i) {
          if (kind == Kind::kDoubleNulls && Coin(0.15)) {
            col.Append(CellView::Null());
          } else {
            col.Append(CellView::Double(
                Coin(0.7) ? Pick(kPool) : static_cast<double>(Uniform(-4, 4)) /
                                              4.0));
          }
        }
        return col;
      }
      case Kind::kOneDict:
      case Kind::kOneDictNulls:
        col.Reset(ValueType::kString);
        AppendCodes(&col, 0, n, kind == Kind::kOneDictNulls ? 0.2 : 0.0);
        if (n >= kDictCheckRows) {
          EXPECT_EQ(col.string_dict(), dicts_[0].get());
        }
        return col;
      case Kind::kTwoDicts:
        col.Reset(ValueType::kString);
        AppendCodes(&col, 0, n / 2, 0.1);
        AppendCodes(&col, 1, n - n / 2, 0.1);
        if (n >= kDictCheckRows) {
          EXPECT_EQ(col.string_dict(), nullptr);
        }
        return col;
      case Kind::kCopiedStrings:
      case Kind::kDictAndCopies: {
        col.Reset(ValueType::kString);
        static const std::vector<std::string> kWords = {
            "", "a", "ab", "abc", "abd", "b", "AIR", "MAIL", "SHIP"};
        const bool dict = kind == Kind::kDictAndCopies;
        size_t i = 0;
        while (i < n) {
          if (dict && Coin(0.5)) {
            const size_t m = std::min<size_t>(n - i, 1 + Uniform(0, 5));
            AppendCodes(&col, 0, m, 0.1);
            i += m;
          } else if (Coin(0.1)) {
            col.Append(CellView::Null());
            ++i;
          } else {
            // Append copies the bytes: equal strings at new addresses.
            const std::string& w = dict ? DictWords(0)[Uniform(0, 6)]
                                        : kWords[Uniform(0, 8)];
            col.Append(CellView::String(&w));
            ++i;
          }
        }
        if (n >= kDictCheckRows) {
          EXPECT_EQ(col.string_dict(), nullptr);
        }
        return col;
      }
      case Kind::kAllNull:
        col.Reset(ValueType::kNull);
        for (size_t i = 0; i < n; ++i) col.Append(CellView::Null());
        return col;
    }
    return col;
  }

  bool Coin(double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng_) < p;
  }
  int64_t Uniform(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng_);
  }
  template <typename T, size_t N>
  T Pick(const T (&pool)[N]) {
    return pool[static_cast<size_t>(Uniform(0, N - 1))];
  }

 private:
  /// Appends `m` cells of dictionary `d` through a code lane, the way a
  /// scan of a dict-encoded column hands them to a sort.
  void AppendCodes(TypedColumn* col, int d, size_t m, double p_null) {
    const Column* dict = dicts_[d].get();
    RowBatch batch;
    batch.Reset(1);
    RowBatch::TypedLane* lane = batch.StartCodeLane(0, dict);
    for (size_t i = 0; i < m; ++i) {
      const bool null = Coin(p_null);
      lane->codes.push_back(
          null ? 0 : static_cast<int32_t>(Uniform(0, dict->dict_size() - 1)));
      lane->nulls.push_back(null ? 1 : 0);
      lane->has_nulls |= null;
    }
    batch.set_num_rows(m);
    batch.ExtendIdentitySel(0);
    col->AppendLane(batch, batch.lane(0));
  }

  std::mt19937_64 rng_;
  std::unique_ptr<Column> dicts_[2];
};

/// SortOp's comparator: CompareCellViews per key, DESC reversed, the
/// position as the last tiebreak.
bool ReferenceLess(const std::vector<TypedColumn>& cols,
                   const std::vector<SortKey>& keys, uint32_t a, uint32_t b) {
  for (size_t i = 0; i < keys.size(); ++i) {
    const int c = CompareCellViews(cols[i].View(a), cols[i].View(b));
    if (c != 0) return keys[i].ascending ? c < 0 : c > 0;
  }
  return a < b;
}

/// An index sort of [0, n) under ReferenceLess.
std::vector<uint32_t> ReferenceIndexSort(const std::vector<TypedColumn>& cols,
                                         const std::vector<SortKey>& keys,
                                         size_t n) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return ReferenceLess(cols, keys, a, b);
  });
  return order;
}

std::string Describe(const std::vector<Kind>& kinds,
                     const std::vector<SortKey>& keys, size_t n) {
  std::string out = "n=" + std::to_string(n) + " ";
  for (size_t i = 0; i < kinds.size(); ++i) {
    out += "kind" + std::to_string(static_cast<int>(kinds[i])) +
           (keys[i].ascending ? "/asc " : "/desc ");
  }
  return out;
}

/// Holds `cols`' encoded keys against the reference: Less on every pair
/// (when `all_pairs`) and the sorted permutation. Returns whether the
/// keys packed.
bool CheckKeys(const std::vector<TypedColumn>& cols,
               const std::vector<SortKey>& keys, size_t n,
               const std::string& what, bool all_pairs = true) {
  SCOPED_TRACE(what);
  NormalizedKeys enc(cols, keys, n);
  EXPECT_EQ(enc.num_rows(), n);
  const bool packed = enc.packed();
  for (uint32_t a = 0; all_pairs && a < n; ++a) {
    for (uint32_t b = 0; b < n; ++b) {
      // Less both ways gives the sign of the three-way comparison.
      if (enc.Less(a, b) != ReferenceLess(cols, keys, a, b)) {
        ADD_FAILURE() << "rows " << a << ", " << b;
        return packed;
      }
    }
  }
  std::vector<uint32_t> got;
  std::move(enc).Sort(&got);
  EXPECT_EQ(got, ReferenceIndexSort(cols, keys, n));
  return packed;
}

/// An int64 column alternating INT64_MIN and INT64_MAX: as the last key
/// its 64-bit range never packs, so the keys before it are held as words
/// and index-sorted.
TypedColumn WideTail(size_t n) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  TypedColumn col;
  col.Reset(ValueType::kInt64);
  for (size_t i = 0; i < n; ++i) {
    col.Append(CellView::Int64(i % 2 == 0 ? kMin : kMax));
  }
  return col;
}

/// CheckKeys on `cols` as they are, then with WideTail appended: the
/// same key kinds through the packed records and the radix sort (when
/// they fit) and through the words and the index sort. Returns whether
/// `cols` alone packed.
bool CheckBothForms(std::vector<TypedColumn> cols, std::vector<SortKey> keys,
                    size_t n, const std::string& what,
                    bool all_pairs = true) {
  const bool packed = CheckKeys(cols, keys, n, what, all_pairs);
  cols.push_back(WideTail(n));
  keys.push_back(SortKey{nullptr, true});
  const bool tail_packed =
      CheckKeys(cols, keys, n, what + "+ wide tail", all_pairs);
  if (n >= 2) {
    EXPECT_FALSE(tail_packed) << what;
  }
  return packed;
}

/// Checks one key configuration of `n` fresh rows in both forms; returns
/// whether its keys packed.
bool CheckConfig(KeyColumnFactory* f, const std::vector<Kind>& kinds,
                 const std::vector<bool>& ascending, size_t n) {
  std::vector<TypedColumn> cols;
  std::vector<SortKey> keys;
  for (size_t i = 0; i < kinds.size(); ++i) {
    cols.push_back(f->Make(kinds[i], n));
    keys.push_back(SortKey{nullptr, ascending[i]});
  }
  const std::string what = Describe(kinds, keys, n);
  return CheckBothForms(std::move(cols), std::move(keys), n, what);
}

TEST(SortKeysTest, EveryKindMatchesReferenceOrderBothDirections) {
  KeyColumnFactory f(Seed());
  for (Kind kind : kAllKinds) {
    for (bool asc : {true, false}) {
      for (size_t n : {0, 1, 2, 3, 64}) CheckConfig(&f, {kind}, {asc}, n);
    }
  }
}

// Keys whose value ranges are narrow pack into one record per row and
// take the radix sort; int64 extremes and the double pool do not.
TEST(SortKeysTest, NarrowKeysPackAndWideKeysDoNot) {
  KeyColumnFactory f(Seed() + 4);
  for (Kind kind : {Kind::kDate, Kind::kBool, Kind::kOneDict,
                    Kind::kOneDictNulls, Kind::kTwoDicts, Kind::kCopiedStrings,
                    Kind::kDictAndCopies, Kind::kAllNull}) {
    EXPECT_TRUE(CheckConfig(&f, {kind}, {false}, 200))
        << "kind" << static_cast<int>(kind);
  }
  EXPECT_FALSE(CheckConfig(&f, {Kind::kInt}, {true}, 200));
  EXPECT_FALSE(CheckConfig(&f, {Kind::kDouble}, {true}, 200));
}

TEST(SortKeysTest, MultiKeyMixesMatchReferenceOrder) {
  KeyColumnFactory f(Seed() + 1);
  constexpr size_t kNumKinds = sizeof(kAllKinds) / sizeof(kAllKinds[0]);
  for (int config = 0; config < 60; ++config) {
    const size_t n_keys = static_cast<size_t>(f.Uniform(2, 3));
    std::vector<Kind> kinds;
    std::vector<bool> asc;
    for (size_t k = 0; k < n_keys; ++k) {
      kinds.push_back(kAllKinds[f.Uniform(0, kNumKinds - 1)]);
      asc.push_back(f.Coin(0.5));
    }
    CheckConfig(&f, kinds, asc, 48);
  }
}

/// An int64 key column holding `values`.
TypedColumn IntColumn(const std::vector<int64_t>& values) {
  TypedColumn col;
  col.Reset(ValueType::kInt64);
  for (int64_t v : values) col.Append(CellView::Int64(v));
  return col;
}

// The packed record holds key bits plus position bits: exactly 64 of them
// still pack, 65 fall back to the words.
TEST(SortKeysTest, KeysFillingExactly64BitsStillPack) {
  struct Case {
    std::vector<int64_t> values;
    bool packs;
  };
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const std::vector<Case> cases = {
      {{kMax, 0}, true},                           // 63 + 1 bits
      {{0, (int64_t{1} << 62) - 1, 5, -0}, true},  // 62 + 2 bits
      {{kMax, kMin}, false},                       // 64 + 1 bits
      {{0, int64_t{1} << 62, 7}, false},           // 63 + 2 bits
      {{kMin + 1, kMin, kMin + 1}, true},          // 1 + 2 bits
  };
  for (const Case& c : cases) {
    for (bool asc : {true, false}) {
      std::vector<TypedColumn> cols;
      cols.push_back(IntColumn(c.values));
      const std::vector<SortKey> keys = {SortKey{nullptr, asc}};
      const std::string what = "n=" + std::to_string(c.values.size()) +
                               (asc ? " asc " : " desc ");
      EXPECT_EQ(CheckKeys(cols, keys, c.values.size(), what), c.packs)
          << what;
    }
  }
}

// Larger sorts, where the radix sort runs several digit passes (some of
// them constant and skipped) and the index sort leaves std::sort's
// insertion-sort regime.
TEST(SortKeysTest, RadixAndIndexSortsMatchTheReferenceAtScale) {
  KeyColumnFactory f(Seed() + 3);
  constexpr size_t kRows = 5000;
  for (const auto& [kinds, asc] :
       std::vector<std::pair<std::vector<Kind>, std::vector<bool>>>{
           {{Kind::kDate, Kind::kInt}, {false, true}},
           {{Kind::kDate, Kind::kOneDict}, {false, true}},
           {{Kind::kOneDict, Kind::kDoubleNulls}, {true, false}},
           {{Kind::kDictAndCopies}, {false}},
           {{Kind::kBool, Kind::kDate, Kind::kOneDictNulls},
            {true, true, false}},
           {{Kind::kAllNull, Kind::kCopiedStrings}, {true, false}}}) {
    std::vector<TypedColumn> cols;
    std::vector<SortKey> keys;
    for (size_t i = 0; i < kinds.size(); ++i) {
      cols.push_back(f.Make(kinds[i], kRows));
      keys.push_back(SortKey{nullptr, asc[i]});
    }
    const std::string what = Describe(kinds, keys, kRows);
    CheckBothForms(std::move(cols), std::move(keys), kRows, what,
                   /*all_pairs=*/false);
  }
  // Multiples of 2^16: the low digit is the same in every row.
  std::vector<int64_t> values;
  for (size_t i = 0; i < kRows; ++i) {
    values.push_back(f.Uniform(-40, 40) * (int64_t{1} << 16));
  }
  std::vector<TypedColumn> cols;
  cols.push_back(IntColumn(values));
  EXPECT_TRUE(CheckKeys(cols, {SortKey{nullptr, false}}, kRows,
                        "constant low digit ", /*all_pairs=*/false));
}

TEST(SortKeysTest, SortCompareChargeIsNTimesCeilLog2N) {
  EXPECT_EQ(SortCompareCharge(0), 0u);
  EXPECT_EQ(SortCompareCharge(1), 0u);
  EXPECT_EQ(SortCompareCharge(2), 2u);
  EXPECT_EQ(SortCompareCharge(3), 6u);
  EXPECT_EQ(SortCompareCharge(4), 8u);
  EXPECT_EQ(SortCompareCharge(5), 15u);
  EXPECT_EQ(SortCompareCharge(1024), 10240u);
  EXPECT_EQ(SortCompareCharge(1025), 1025u * 11);
  EXPECT_EQ(SortCompareCharge(uint64_t{1} << 32), uint64_t{32} << 32);
}

// SortOp charges the formula of its input rows, whichever form its keys
// take: packed ints, wide doubles, ranked strings.
TEST(SortKeysTest, SortOpChargesTheFormula) {
  Catalog catalog;
  testing::MakeSimpleTable(&catalog, "t", 2500, 7);
  const ExprPtr k = Col(0, ValueType::kInt64, "k");
  const ExprPtr v = Col(1, ValueType::kDouble, "v");
  const ExprPtr s = Col(2, ValueType::kString, "s");
  for (int64_t limit : {0, 1, 2, 3, 1000, 2500}) {
    for (const std::vector<SortKey>& keys : std::vector<std::vector<SortKey>>{
             {SortKey{k, false}},
             {SortKey{v, true}},
             {SortKey{s, true}, SortKey{k, false}}}) {
      PlanNodePtr plan = MakeSort(
          MakeFilter(MakeScan(catalog, "t").value(),
                     Cmp(CompareOp::kLt, k, LitInt(limit))),
          keys);
      Machine machine(MachineConfig::PaperTestbed());
      EngineProfile profile = EngineProfile::MySqlMemory();
      BufferPool pool(&machine, 0);
      ExecContext ctx(&machine, &profile, &catalog, &pool);
      auto rows = ExecutePlan(*plan, &ctx);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      ASSERT_EQ(rows.value().size(), static_cast<size_t>(limit));
      EXPECT_EQ(ctx.stats().sort_compares,
                SortCompareCharge(static_cast<uint64_t>(limit)))
          << plan->Explain();
    }
  }
}

}  // namespace
}  // namespace ecodb
