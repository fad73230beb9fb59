// Columnar in-memory table storage.
//
// Data lives in typed column vectors (compact; TPC-H lineitem at SF 1 fits
// in a couple hundred MB). The *disk-backed* engine profile still charges
// simulated page I/O through HeapFile + BufferPool; the columnar arrays
// are the contents those simulated pages hold.
//
// String columns are dictionary-encoded at append time: each column keeps
// a *sorted* vector of distinct strings plus a per-row int32 code vector,
// so predicates, group-by, join and sort keys can compare/hash 4-byte
// codes instead of payload bytes. The sorted order makes codes
// order-preserving (code_a < code_b <=> string_a < string_b), which lets
// range predicates and ORDER BY operate on codes directly. Columns whose
// cardinality exceeds kDictMaxEntries abandon the dictionary and fall
// back to plain per-row string storage (comments and other free-text
// payloads); `dict_encoded()` tells readers which representation is live.
//
// Sealing: scans borrow the typed arrays, codes, dictionary entries and
// plain strings in place, and query results keep borrowing the strings
// after the query ends. A sorted dictionary insert shifts entries and
// codes, and a growing string vector moves its strings, so once a query
// has read a table (SeqScanOp::Open seals it) AppendRow fails with
// FailedPrecondition instead of moving storage that results still
// reference. Sealing also pins plain strings: each such column gets one
// pointer per row, the array a scan lends out as it does the others. The
// dictionary is built eagerly during append, so there is no lazy
// finalization step.

#ifndef ECODB_STORAGE_TABLE_H_
#define ECODB_STORAGE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "ecodb/storage/schema.h"
#include "ecodb/storage/value.h"
#include "ecodb/util/status.h"

namespace ecodb {

/// One typed column. Only the vector matching the declared type is used.
class Column {
 public:
  /// Distinct-value ceiling for the per-column dictionary. Low-cardinality
  /// TPC-H columns (flags, modes, priorities, nation/region names, clerks)
  /// sit far under this; free-text comments blow past it within the first
  /// few thousand rows and fall back to plain storage.
  static constexpr size_t kDictMaxEntries = 1024;

  explicit Column(ValueType type)
      : type_(type), dict_active_(type == ValueType::kString) {}

  ValueType type() const { return type_; }
  size_t size() const;

  void AppendInt(int64_t v) { ints_.push_back(v); }
  void AppendDouble(double v) { doubles_.push_back(v); }
  void AppendString(std::string_view v);

  int64_t GetInt(size_t row) const { return ints_[row]; }
  double GetDouble(size_t row) const { return doubles_[row]; }

  /// Raw array access: scans borrow these as batch lanes.
  const int64_t* ints_data() const { return ints_.data(); }
  const double* doubles_data() const { return doubles_.data(); }
  /// Per-row string addresses of a column without a dictionary, once
  /// its table is sealed.
  const std::string* const* string_ptrs_data() const {
    return string_ptrs_.data();
  }
  const std::string& GetString(size_t row) const {
    return dict_active_
               ? dict_strings_[static_cast<size_t>(codes_[row])]
               : strings_[row];
  }

  /// --- Dictionary surface (string columns only) ---------------------
  /// True while the column stores codes + a sorted dictionary. Readers
  /// must check this before touching any other Dict* accessor; a column
  /// that abandoned its dictionary serves only GetString().
  bool dict_encoded() const { return dict_active_; }
  size_t dict_size() const { return dict_strings_.size(); }
  int32_t DictCode(size_t row) const { return codes_[row]; }
  const int32_t* codes_data() const { return codes_.data(); }
  const std::string& DictString(int32_t code) const {
    return dict_strings_[static_cast<size_t>(code)];
  }
  /// Code of `entry`, an address DictString returned: inverse of
  /// DictString, so entry order is code order.
  int32_t DictCodeOf(const std::string* entry) const {
    return static_cast<int32_t>(entry - dict_strings_.data());
  }
  /// Cached std::hash<std::string> of the entry — bit-identical to
  /// hashing the decoded bytes, so key hashing over codes produces the
  /// same hash values as hashing the string bytes.
  size_t DictHash(int32_t code) const {
    return dict_hashes_[static_cast<size_t>(code)];
  }
  /// First code whose string compares >= `s` (may equal dict_size()).
  /// `*exact` is set when that entry equals `s`. Because the dictionary
  /// is sorted, one boundary search answers every comparison operator
  /// against a literal with a per-row int32 compare.
  int32_t DictLowerBound(const std::string& s, bool* exact) const;
  /// Code of the entry equal to `s`, or -1 when absent.
  int32_t FindDictCode(const std::string& s) const;

  /// Boxed access (slow path; scans use the typed getters).
  Value GetValue(size_t row) const;

  void Reserve(size_t n);

 private:
  friend class Table;

  /// Cardinality exceeded the cap: materialize plain per-row strings from
  /// the codes and drop the dictionary.
  void AbandonDict();
  /// Fills string_ptrs_ (plain string columns only). Called once, when
  /// the table is sealed and strings_ can no longer grow.
  void PinStrings();

  ValueType type_;
  std::vector<int64_t> ints_;      // kInt64 / kDate / kBool
  std::vector<double> doubles_;    // kDouble
  std::vector<std::string> strings_;  // kString once the dict is abandoned
  std::vector<const std::string*> string_ptrs_;  ///< &strings_[row]

  bool dict_active_ = false;
  std::vector<std::string> dict_strings_;  ///< sorted distinct values
  std::vector<size_t> dict_hashes_;        ///< std::hash of each entry
  std::vector<int32_t> codes_;             ///< per-row index into the dict
};

class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }
  Column& column(int i) { return columns_[static_cast<size_t>(i)]; }

  /// Appends a row of boxed values (test and ad-hoc loaders): each value
  /// is read as its column's type and appended through AppendCells'
  /// checks. kNull values are rejected — ecoDB tables are NOT NULL, as
  /// TPC-H is.
  Status AppendRow(const Row& row);

  /// One cell of AppendCells, unboxed: an integer (for a kInt64, kDate or
  /// kBool column), a double, or a view of string bytes that stay alive
  /// for the call (a literal, or a temporary of the calling expression).
  class Cell {
   public:
    Cell(int64_t v) : kind_(Kind::kInt), i_(v) {}  // NOLINT: implicit
    Cell(int32_t v) : kind_(Kind::kInt), i_(v) {}  // NOLINT: implicit
    Cell(double v) : kind_(Kind::kDouble), d_(v) {}  // NOLINT: implicit
    Cell(const char* s) : kind_(Kind::kString), s_(s) {}  // NOLINT
    Cell(const std::string& s) : kind_(Kind::kString), s_(s) {}  // NOLINT

   private:
    friend class Table;
    enum class Kind { kInt, kDouble, kString, kNull };
    Cell() : kind_(Kind::kNull) {}
    Kind kind_;
    int64_t i_ = 0;
    double d_ = 0.0;
    std::string_view s_;
  };

  /// AppendRow without boxing (bulk loaders): one cell per column, in
  /// schema order, each of its column's storage class. The same sealed
  /// and arity checks as AppendRow; a cell of another class is
  /// InvalidArgument. The cells of a braced list are evaluated left to
  /// right, so generators may draw their random values inline.
  Status AppendCells(std::initializer_list<Cell> cells) {
    return AppendCells(cells.begin(), cells.size());
  }

  /// Marks the table as read by a query: storage must not move from now
  /// on (see the header comment). Morsel workers open their scans
  /// concurrently; the first call pins the strings and every call returns
  /// after it did.
  void Seal();
  bool sealed() const { return sealed_; }

  /// Materializes row `r` into `out` (resized as needed).
  void GetRow(size_t r, Row* out) const;

  Value GetValue(size_t row, int col) const {
    return columns_[static_cast<size_t>(col)].GetValue(row);
  }

  void Reserve(size_t n);

  /// Estimated data bytes (for buffer-pool sizing decisions).
  uint64_t EstimatedBytes() const;

  /// Bytes per tuple as actually stored: dictionary-encoded string
  /// columns count their 4-byte code, everything else its schema
  /// avg_width. This is what a scan physically moves per row; SeqScan
  /// charges it so dictionary compression shows up in the energy model,
  /// not just host time.
  int EncodedRowWidth() const;

 private:
  /// Appends cells[0..n) as one row: fails with FailedPrecondition once
  /// the table is sealed, and with InvalidArgument on an arity mismatch
  /// or a cell that is NULL or not of its column's storage class.
  Status AppendCells(const Cell* cells, size_t n);
  /// `v` read as a cell of a column of `type`; a NULL cell for a NULL
  /// value or a NULL-typed column.
  static Cell CellOf(const Value& v, ValueType type);

  std::string name_;
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  std::once_flag seal_once_;
  std::atomic<bool> sealed_{false};
};

}  // namespace ecodb

#endif  // ECODB_STORAGE_TABLE_H_
