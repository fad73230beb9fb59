#include "ecodb/exec/result_set.h"

#include <cassert>

namespace ecodb {

void ResultSet::Reset(const Schema& schema) {
  columns_.resize(static_cast<size_t>(schema.num_fields()));
  for (int c = 0; c < schema.num_fields(); ++c) {
    columns_[static_cast<size_t>(c)].Reset(schema.field(c).type);
  }
  num_rows_ = 0;
  row_view_.clear();
  row_view_built_ = false;
}

void ResultSet::AppendBatch(const RowBatch& batch) {
  assert(batch.num_cols() == num_cols() && "batch/schema arity mismatch");
  for (int c = 0; c < num_cols(); ++c) {
    columns_[static_cast<size_t>(c)].AppendLane(batch, batch.lane(c));
  }
  num_rows_ += batch.sel().size();
  row_view_built_ = false;
}

void ResultSet::Reserve(size_t rows) {
  for (TypedColumn& c : columns_) c.Reserve(rows);
}

void ResultSet::AppendGather(const std::vector<CellSource>& sources,
                             size_t n) {
  assert(sources.size() == columns_.size() && "source/schema arity mismatch");
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendGather(sources[c], n);
  }
  num_rows_ += n;
  row_view_built_ = false;
}

Row ResultSet::RowAt(size_t row) const {
  Row out;
  out.reserve(columns_.size());
  for (int c = 0; c < num_cols(); ++c) out.push_back(ValueAt(row, c));
  return out;
}

const std::vector<Row>& ResultSet::rows() const {
  if (!row_view_built_) {
    row_view_.clear();
    row_view_.reserve(num_rows_);
    for (size_t r = 0; r < num_rows_; ++r) row_view_.push_back(RowAt(r));
    row_view_built_ = true;
  }
  return row_view_;
}

std::vector<Row> ResultSet::TakeRows() {
  rows();  // ensure built
  row_view_built_ = false;
  return std::move(row_view_);
}

}  // namespace ecodb
