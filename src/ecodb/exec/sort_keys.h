// ORDER BY keys, their normalized encoding, the sort, and its charge.
//
// SortOp orders rows by CompareCellViews over each key in turn — DESC
// keys reversed — with the input position as the last tiebreak, which
// makes the order strict and total (a stable sort): every correct sort
// yields the same permutation. NormalizedKeys maps every row's keys, once,
// to fixed-width uint64 words whose unsigned lexicographic order, followed
// by the position, is that same order, so a sort compares machine words
// instead of building CellViews.
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
// word (0 null, 1 value) ahead of its value word, whose null rows all
// hold the word's minimum; codes reserve 0, and a null ranks below every
// value (as under CompareCellViews). DESC inverts every word of its key.
//
// Each word is stored minus its minimum over the rows, and a word that is
// the same in every row (a kNull key, a flag word of a column without
// nulls) is dropped: neither changes the order. When the remaining words'
// bits and the position's fit in 64 bits together, each row is one packed
// uint64 record — the words most significant first, then the position —
// and Sort orders the records with a stable LSD radix sort over the key
// bits alone: the records start in position order, so the position
// tiebreak needs no pass, and a pass whose digit is the same in every row
// is skipped. Keys too wide to pack keep row-major words and an index
// std::sort under Less.
//
// A sort is charged SortCompareCharge(n) sort compares whatever path it
// takes: a function of the row count alone, so the simulated cost of an
// ORDER BY does not depend on the host's sort algorithm, and the cost
// model prices the same function.

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

/// Sort compares charged for sorting n rows: n·⌈log2 n⌉, the bound on a
/// binary merge sort's comparisons (0 below two rows).
inline uint64_t SortCompareCharge(uint64_t n) {
  if (n < 2) return 0;
  uint64_t ceil_log2 = 0;
  for (uint64_t x = n - 1; x != 0; x >>= 1) ++ceil_log2;
  return n * ceil_log2;
}

class NormalizedKeys {
 public:
  /// Encodes rows [0, n) of `key_cols`, where key_cols[k] holds the
  /// values of keys[k] and has n rows.
  NormalizedKeys(const std::vector<TypedColumn>& key_cols,
                 const std::vector<SortKey>& keys, size_t n);

  size_t num_rows() const { return n_; }
  /// True when each row is one packed record.
  bool packed() const { return packed_; }

  /// SortOp's order: true when row a sorts before row b. Reads the keys
  /// as encoded (not after Sort, which consumes them).
  bool Less(uint32_t a, uint32_t b) const {
    if (packed_) return recs_[a] < recs_[b];
    const uint64_t* x = words_.data() + static_cast<size_t>(a) * width_;
    const uint64_t* y = words_.data() + static_cast<size_t>(b) * width_;
    for (size_t j = 0; j < width_; ++j) {
      if (x[j] != y[j]) return x[j] < y[j];
    }
    return a < b;
  }

  /// Writes the positions [0, n) in sorted order to *order: a radix sort
  /// of the packed records, an index sort under Less otherwise. Both give
  /// the one permutation of the total order.
  void Sort(std::vector<uint32_t>* order) &&;

 private:
  size_t n_ = 0;
  bool packed_ = false;
  int pos_bits_ = 0;  ///< low bits of a record holding the position
  int key_bits_ = 0;  ///< record bits above them holding the words
  std::vector<uint64_t> recs_;   ///< packed form: one record per row
  size_t width_ = 0;             ///< wide form: words per row
  std::vector<uint64_t> words_;  ///< wide form: row-major, n_ x width_
};

}  // namespace ecodb

#endif  // ECODB_EXEC_SORT_KEYS_H_
