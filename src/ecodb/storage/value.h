// Value: the dynamically-typed scalar used at engine boundaries (rows,
// literals, query results).

#ifndef ECODB_STORAGE_VALUE_H_
#define ECODB_STORAGE_VALUE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ecodb {

enum class ValueType : uint8_t {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
  kDate,  ///< stored as int32 days since 1970-01-01
  kBool,
};

const char* ToString(ValueType t);

/// Owning scalar variant. Comparisons between kInt64/kDouble/kDate coerce
/// numerically; strings compare lexicographically; NULL compares less than
/// everything (only used for sort stability — SQL predicates on NULL
/// evaluate to false via IsTruthy).
class Value {
 public:
  Value() : type_(ValueType::kNull) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v);
  static Value Dbl(double v);
  static Value Str(std::string v);
  static Value Date(int32_t days);
  static Value Bool(bool v);

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  int64_t AsInt() const;       ///< valid for kInt64/kDate/kBool
  double AsDouble() const;     ///< valid for numeric types
  const std::string& AsString() const;
  int32_t AsDate() const;
  bool AsBool() const;

  /// True numeric-ish interpretation for WHERE results.
  bool IsTruthy() const;

  /// Three-way comparison: <0, 0, >0. Numeric types coerce; mismatched
  /// non-numeric types order by type tag (total order for sorting).
  int Compare(const Value& other) const;

  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator<(const Value& o) const { return Compare(o) < 0; }

  /// Hash consistent with operator== for join/group keys.
  size_t Hash() const;

  /// Hash of a double exactly as a Value holding it would hash (integral
  /// doubles hash through int64 so Int(2) and Dbl(2.0), which compare
  /// equal, hash equal). Exposed for typed batch key hashing, which reads
  /// raw column arrays without boxing a Value.
  static size_t HashDouble(double d) {
    // The int64 cast is defined only inside (-2^63, 2^63); NaN and
    // out-of-range magnitudes (which cannot equal an int64 anyway) go
    // straight to the double hash.
    if (d >= -9223372036854775808.0 && d < 9223372036854775808.0) {
      int64_t as_int = static_cast<int64_t>(d);
      if (static_cast<double>(as_int) == d) {
        return std::hash<int64_t>{}(as_int);
      }
    }
    return std::hash<double>{}(d);
  }

  std::string ToString() const;

 private:
  ValueType type_;
  int64_t i_ = 0;
  double d_ = 0.0;
  std::string s_;
};

/// A materialized tuple flowing between operators.
using Row = std::vector<Value>;

/// Hash of a NULL Value (Value::Hash keeps this in lockstep). Exposed so
/// typed batch kernels can hash null-masked lane cells without boxing.
inline constexpr size_t kNullValueHash = 0xEC0DB0ULL;

/// Non-owning view of one cell: the exact type tag plus unboxed storage
/// (int-backed types in `i`, doubles in `d`, strings by pointer). Typed
/// kernels — lane gathers, join-key equality, group-key hashing — flow
/// CellViews instead of Values so touching a cell never heap-allocates.
/// CompareCellViews / HashCellView MUST stay bit-for-bit in lockstep with
/// Value::Compare / Value::Hash: the boxed and unboxed paths (and the
/// reference evaluator the tests compare against) must agree on every
/// comparison and hash.
struct CellView {
  ValueType type = ValueType::kNull;
  int64_t i = 0;            ///< kInt64 / kDate / kBool payload
  double d = 0.0;           ///< kDouble payload
  const std::string* s = nullptr;  ///< kString payload (never owned)

  bool is_null() const { return type == ValueType::kNull; }
  double AsDouble() const {
    return type == ValueType::kDouble ? d : static_cast<double>(i);
  }

  static CellView Null() { return CellView{}; }
  static CellView Int64(int64_t v, ValueType t = ValueType::kInt64) {
    CellView out;
    out.type = t;
    out.i = v;
    return out;
  }
  static CellView Double(double v) {
    CellView out;
    out.type = ValueType::kDouble;
    out.d = v;
    return out;
  }
  static CellView String(const std::string* v) {
    CellView out;
    out.type = ValueType::kString;
    out.s = v;
    return out;
  }
  static CellView Of(const Value& v);
};

/// Three-way comparison with exactly Value::Compare's semantics.
int CompareCellViews(const CellView& a, const CellView& b);

/// Hash with exactly Value::Hash's semantics.
size_t HashCellView(const CellView& v);

/// Boxes a view back into an owning Value, reproducing the exact type tag
/// (strings are copied).
Value BoxCellView(const CellView& v);

/// Key-hash combine step (Fibonacci/boost-style). All multi-column key
/// hashes — row keys, batch keys, group keys — MUST use this same seed and
/// combine so build/probe sides of hash operators agree across execution
/// modes.
inline constexpr size_t kRowKeyHashSeed = 0x9E3779B97F4A7C15ULL;

inline size_t HashCombineKey(size_t h, size_t value_hash) {
  return h ^ (value_hash + 0x9E3779B9 + (h << 6) + (h >> 2));
}

/// Hash of a multi-column key.
size_t HashRowKey(const Row& row, const std::vector<int>& key_cols);

std::string RowToString(const Row& row);

}  // namespace ecodb

#endif  // ECODB_STORAGE_VALUE_H_
