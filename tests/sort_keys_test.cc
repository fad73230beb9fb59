// Property test of the normalized sort-key encoding (exec/sort_keys.h):
// for every pair of rows, the encoded order must equal SortOp's
// reference order — CompareCellViews over each key, DESC reversed, the
// input position as the last tiebreak — and NormalizedKeys::Sort must
// make exactly the comparator calls, and produce exactly the
// permutation, of an index sort under that reference order.
//
// Key columns cover every encoder path: int64 extremes, dates, bools,
// doubles with +-0.0 and +-inf, nulls, strings of one dictionary (code
// path), of two dictionaries, copied and mixed with dictionary entries
// (rank path), and all-null columns of type NULL (a NULL literal). Key
// sets with narrow value ranges take the packed one-word record sort,
// the others (int64 extremes, doubles) the index sort.
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

#include "ecodb/exec/sort_keys.h"
#include "ecodb/storage/table.h"

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
        EXPECT_EQ(col.string_dict(), dicts_[0].get());
        return col;
      case Kind::kTwoDicts:
        col.Reset(ValueType::kString);
        AppendCodes(&col, 0, n / 2, 0.1);
        AppendCodes(&col, 1, n - n / 2, 0.1);
        EXPECT_EQ(col.string_dict(), nullptr);
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
        EXPECT_EQ(col.string_dict(), nullptr);
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

/// SortOp's comparator before normalized keys: CompareCellViews per key,
/// DESC reversed, the position as the last tiebreak.
bool ReferenceLess(const std::vector<TypedColumn>& cols,
                   const std::vector<SortKey>& keys, uint32_t a, uint32_t b) {
  for (size_t i = 0; i < keys.size(); ++i) {
    const int c = CompareCellViews(cols[i].View(a), cols[i].View(b));
    if (c != 0) return keys[i].ascending ? c < 0 : c > 0;
  }
  return a < b;
}

/// The index sort SortOp ran before normalized keys; returns its
/// comparator calls.
uint64_t ReferenceIndexSort(const std::vector<TypedColumn>& cols,
                            const std::vector<SortKey>& keys, size_t n,
                            std::vector<uint32_t>* order) {
  order->resize(n);
  for (size_t i = 0; i < n; ++i) (*order)[i] = static_cast<uint32_t>(i);
  uint64_t compares = 0;
  std::sort(order->begin(), order->end(), [&](uint32_t a, uint32_t b) {
    ++compares;
    return ReferenceLess(cols, keys, a, b);
  });
  return compares;
}

std::string Describe(const std::vector<Kind>& kinds,
                     const std::vector<SortKey>& keys) {
  std::string out;
  for (size_t i = 0; i < kinds.size(); ++i) {
    out += "kind" + std::to_string(static_cast<int>(kinds[i])) +
           (keys[i].ascending ? "/asc " : "/desc ");
  }
  return out;
}

/// Checks every pair of rows and the sort of one key configuration.
void CheckConfig(KeyColumnFactory* f, const std::vector<Kind>& kinds,
                 const std::vector<bool>& ascending, size_t n) {
  std::vector<TypedColumn> cols;
  std::vector<SortKey> keys;
  for (size_t i = 0; i < kinds.size(); ++i) {
    cols.push_back(f->Make(kinds[i], n));
    keys.push_back(SortKey{nullptr, ascending[i]});
  }
  const std::string what = Describe(kinds, keys);
  const NormalizedKeys enc(cols, keys, n);
  ASSERT_EQ(enc.num_rows(), n);
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = 0; b < n; ++b) {
      // Less both ways gives the sign of the three-way comparison.
      ASSERT_EQ(enc.Less(a, b), ReferenceLess(cols, keys, a, b))
          << what << " rows " << a << ", " << b;
    }
  }
  std::vector<uint32_t> want, got;
  const uint64_t want_compares = ReferenceIndexSort(cols, keys, n, &want);
  EXPECT_EQ(enc.Sort(&got), want_compares) << what;
  EXPECT_EQ(got, want) << what;
}

TEST(SortKeysTest, EveryKindMatchesReferenceOrderBothDirections) {
  KeyColumnFactory f(Seed());
  for (Kind kind : kAllKinds) {
    for (bool asc : {true, false}) {
      CheckConfig(&f, {kind}, {asc}, 64);
    }
  }
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

// Five words per row (two keys with null flags, one bool) whose ranges
// do not pack into one word: the index-sort path.
TEST(SortKeysTest, WideKeysUseTheSameOrder) {
  KeyColumnFactory f(Seed() + 2);
  CheckConfig(&f, {Kind::kIntNulls, Kind::kDoubleNulls, Kind::kBool},
              {true, false, true}, 48);
}

// Larger sorts, where std::sort's introsort leaves the insertion-sort
// regime: the comparator call count must still match exactly.
TEST(SortKeysTest, SortComparesMatchTheIndexSortAtScale) {
  KeyColumnFactory f(Seed() + 3);
  for (const auto& [kinds, asc] :
       std::vector<std::pair<std::vector<Kind>, std::vector<bool>>>{
           {{Kind::kDate, Kind::kInt}, {false, true}},
           {{Kind::kOneDict, Kind::kDoubleNulls}, {true, false}},
           {{Kind::kDictAndCopies}, {false}},
           {{Kind::kAllNull, Kind::kCopiedStrings}, {true, false}}}) {
    std::vector<TypedColumn> cols;
    std::vector<SortKey> keys;
    for (size_t i = 0; i < kinds.size(); ++i) {
      cols.push_back(f.Make(kinds[i], 5000));
      keys.push_back(SortKey{nullptr, asc[i]});
    }
    std::vector<uint32_t> want, got;
    const uint64_t want_compares = ReferenceIndexSort(cols, keys, 5000, &want);
    EXPECT_EQ(NormalizedKeys(cols, keys, 5000).Sort(&got), want_compares)
        << Describe(kinds, keys);
    EXPECT_EQ(got, want) << Describe(kinds, keys);
  }
}

}  // namespace
}  // namespace ecodb
