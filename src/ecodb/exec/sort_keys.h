// ORDER BY keys and their normalized encoding.
//
// SortOp orders rows by CompareCellViews over each key in turn — DESC
// keys reversed — with the input position as the last tiebreak, which
// makes the order strict and total (a stable sort). NormalizedKeys maps
// every row's keys, once, to fixed-width uint64 words whose unsigned
// lexicographic order, followed by the position, is that same order. A
// sort then compares machine words instead of building CellViews per
// comparator call, and because the order is the same, std::sort makes the
// identical call sequence: the charged sort compares do not change.
//
// Each key column (the TypedColumn SortOp materializes for the key) is
// encoded by its storage:
//  * int64 / date / bool: the value with its sign bit flipped;
//  * double: -0.0 mapped to +0.0 (they compare equal), then the IEEE
//    sign-flip (negative values inverted whole, the others with the sign
//    bit set). There is no NaN path: division by zero yields NULL, so no
//    expression produces a NaN;
//  * strings that are all entries of one table dictionary: the entry's
//    code + 1 — the dictionary is sorted, so codes order like the bytes;
//  * any other string column: a dense rank from one host-only, uncharged
//    sort of the column's distinct strings under CompareCellViews (equal
//    strings share a rank).
// Nulls sort first: an int or double key that holds nulls gets a flag
// word (0 null, 1 value) ahead of its value word, codes reserve 0, and a
// null ranks below every value (as under CompareCellViews). A kNull key
// is all flag words. DESC inverts every word of its key.

#ifndef ECODB_EXEC_SORT_KEYS_H_
#define ECODB_EXEC_SORT_KEYS_H_

#include <cstdint>
#include <vector>

#include "ecodb/exec/expr.h"
#include "ecodb/exec/row_batch.h"
#include "ecodb/exec/typed_column.h"

namespace ecodb {

/// Sort key: expression over the input row + direction.
struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

class NormalizedKeys {
 public:
  /// Encodes rows [0, n) of `key_cols`, where key_cols[k] holds the
  /// values of keys[k] and has n rows.
  NormalizedKeys(const std::vector<TypedColumn>& key_cols,
                 const std::vector<SortKey>& keys, size_t n);

  size_t num_rows() const { return n_; }
  /// Words per row.
  size_t width() const { return width_; }
  const uint64_t* row(uint32_t r) const {
    return words_.data() + static_cast<size_t>(r) * width_;
  }

  /// SortOp's order: true when row a sorts before row b.
  bool Less(uint32_t a, uint32_t b) const {
    const uint64_t* x = row(a);
    const uint64_t* y = row(b);
    for (size_t j = 0; j < width_; ++j) {
      if (x[j] != y[j]) return x[j] < y[j];
    }
    return a < b;
  }

  /// Sorts the positions [0, n) into *order with std::sort: (words,
  /// position) records packed into one uint64 per row when the words'
  /// value ranges fit, an index sort under Less otherwise. Returns the
  /// number of comparator calls — the count an index sort of [0, n) under
  /// CompareCellViews with the position tiebreak makes.
  uint64_t Sort(std::vector<uint32_t>* order) const;

 private:
  size_t n_ = 0;
  size_t width_ = 0;
  std::vector<uint64_t> words_;  ///< row-major, n_ x width_
};

}  // namespace ecodb

#endif  // ECODB_EXEC_SORT_KEYS_H_
