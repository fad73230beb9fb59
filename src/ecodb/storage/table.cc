#include "ecodb/storage/table.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "ecodb/util/strings.h"

namespace ecodb {

size_t Column::size() const {
  switch (type_) {
    case ValueType::kDouble:
      return doubles_.size();
    case ValueType::kString:
      return dict_active_ ? codes_.size() : strings_.size();
    default:
      return ints_.size();
  }
}

void Column::AppendString(std::string_view v) {
  if (!dict_active_) {
    strings_.emplace_back(v);
    return;
  }
  auto it = std::lower_bound(dict_strings_.begin(), dict_strings_.end(), v);
  if (it != dict_strings_.end() && *it == v) {
    codes_.push_back(static_cast<int32_t>(it - dict_strings_.begin()));
    return;
  }
  if (dict_strings_.size() >= kDictMaxEntries) {
    AbandonDict();
    strings_.emplace_back(v);
    return;
  }
  // Sorted insert: every existing code at or past the insertion point
  // shifts up by one. The remap is O(rows so far), but only runs once per
  // *distinct* value and the dictionary is capped, so total remap work is
  // bounded by kDictMaxEntries * rows-at-fill-time — negligible against
  // load cost for the low-cardinality columns that stay dict-encoded.
  const int32_t pos = static_cast<int32_t>(it - dict_strings_.begin());
  dict_hashes_.insert(dict_hashes_.begin() + pos,
                      std::hash<std::string_view>{}(v));
  dict_strings_.emplace(it, v);
  for (int32_t& c : codes_) {
    if (c >= pos) ++c;
  }
  codes_.push_back(pos);
}

void Column::AbandonDict() {
  std::vector<std::string> plain;
  plain.reserve(codes_.size());
  for (int32_t c : codes_) {
    plain.push_back(dict_strings_[static_cast<size_t>(c)]);
  }
  strings_ = std::move(plain);
  dict_strings_.clear();
  dict_strings_.shrink_to_fit();
  dict_hashes_.clear();
  dict_hashes_.shrink_to_fit();
  codes_.clear();
  codes_.shrink_to_fit();
  dict_active_ = false;
}

int32_t Column::DictLowerBound(const std::string& s, bool* exact) const {
  auto it = std::lower_bound(dict_strings_.begin(), dict_strings_.end(), s);
  *exact = it != dict_strings_.end() && *it == s;
  return static_cast<int32_t>(it - dict_strings_.begin());
}

int32_t Column::FindDictCode(const std::string& s) const {
  bool exact = false;
  const int32_t code = DictLowerBound(s, &exact);
  return exact ? code : -1;
}

Value Column::GetValue(size_t row) const {
  switch (type_) {
    case ValueType::kInt64:
      return Value::Int(ints_[row]);
    case ValueType::kDate:
      return Value::Date(static_cast<int32_t>(ints_[row]));
    case ValueType::kBool:
      return Value::Bool(ints_[row] != 0);
    case ValueType::kDouble:
      return Value::Dbl(doubles_[row]);
    case ValueType::kString:
      return Value::Str(GetString(row));
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

void Column::PinStrings() {
  if (type_ != ValueType::kString || dict_active_) return;
  string_ptrs_.resize(strings_.size());
  for (size_t r = 0; r < strings_.size(); ++r) string_ptrs_[r] = &strings_[r];
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case ValueType::kDouble:
      doubles_.reserve(n);
      return;
    case ValueType::kString:
      if (dict_active_) {
        codes_.reserve(n);
      } else {
        strings_.reserve(n);
      }
      return;
    default:
      ints_.reserve(n);
  }
}

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_.num_fields()));
  for (const Field& f : schema_.fields()) columns_.emplace_back(f.type);
}

void Table::Seal() {
  std::call_once(seal_once_, [this] {
    for (Column& c : columns_) c.PinStrings();
    sealed_ = true;
  });
}

Table::Cell Table::CellOf(const Value& v, ValueType type) {
  if (v.is_null()) return Cell();
  switch (type) {
    case ValueType::kInt64:
    case ValueType::kBool:
      return v.AsInt();
    case ValueType::kDate:
      return v.AsDate();
    case ValueType::kDouble:
      return v.AsDouble();
    case ValueType::kString:
      return v.AsString();
    case ValueType::kNull:
      break;
  }
  return Cell();
}

Status Table::AppendRow(const Row& row) {
  std::vector<Cell> cells;
  cells.reserve(row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    cells.push_back(CellOf(
        row[i], i < columns_.size() ? columns_[i].type() : ValueType::kNull));
  }
  return AppendCells(cells.data(), cells.size());
}

Status Table::AppendCells(const Cell* cells, size_t n) {
  if (sealed()) {
    return Status::FailedPrecondition(
        StrFormat("table %s was read by a query; its storage is sealed",
                  name_.c_str()));
  }
  if (static_cast<int>(n) != schema_.num_fields()) {
    return Status::InvalidArgument(StrFormat(
        "row arity %zu != schema arity %d", n, schema_.num_fields()));
  }
  for (size_t i = 0; i < n; ++i) {
    const ValueType t = columns_[i].type();
    const Cell::Kind want = t == ValueType::kDouble   ? Cell::Kind::kDouble
                            : t == ValueType::kString ? Cell::Kind::kString
                                                      : Cell::Kind::kInt;
    const char* name = schema_.field(static_cast<int>(i)).name.c_str();
    if (cells[i].kind_ == Cell::Kind::kNull) {
      return Status::InvalidArgument(
          StrFormat("NULL value for column %s", name));
    }
    if (cells[i].kind_ != want || t == ValueType::kNull) {
      return Status::InvalidArgument(
          StrFormat("cell of the wrong class for column %s", name));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    Column& col = columns_[i];
    const Cell& c = cells[i];
    switch (c.kind_) {
      case Cell::Kind::kInt:
        col.AppendInt(c.i_);
        break;
      case Cell::Kind::kDouble:
        col.AppendDouble(c.d_);
        break;
      case Cell::Kind::kString:
        col.AppendString(c.s_);
        break;
      case Cell::Kind::kNull:
        break;
    }
  }
  ++num_rows_;
  return Status::OK();
}

void Table::GetRow(size_t r, Row* out) const {
  out->clear();
  out->reserve(columns_.size());
  for (const Column& c : columns_) out->push_back(c.GetValue(r));
}

void Table::Reserve(size_t n) {
  for (Column& c : columns_) c.Reserve(n);
}

uint64_t Table::EstimatedBytes() const {
  return static_cast<uint64_t>(num_rows_) *
         static_cast<uint64_t>(schema_.RowWidth());
}

int Table::EncodedRowWidth() const {
  int w = 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Field& f = schema_.field(static_cast<int>(i));
    if (f.type == ValueType::kString && columns_[i].dict_encoded()) {
      w += static_cast<int>(sizeof(int32_t));
    } else {
      w += f.avg_width;
    }
  }
  return w;
}

}  // namespace ecodb
