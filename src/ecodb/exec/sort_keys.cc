#include "ecodb/exec/sort_keys.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>

namespace ecodb {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;

uint64_t EncodeInt(int64_t v) { return static_cast<uint64_t>(v) ^ kSignBit; }

uint64_t EncodeDouble(double d) {
  if (d == 0.0) d = 0.0;  // -0.0 and +0.0 compare equal
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

/// Dense ranks of string column `col`'s cells under CompareCellViews,
/// written to out[i * stride]. One representative per distinct address is
/// ranked (borrowed strings repeat addresses).
void DenseRanks(const TypedColumn& col, uint64_t* out, size_t stride) {
  const uint32_t n = col.size();
  std::vector<uint32_t> reps;
  std::vector<uint32_t> rep_of(n);
  std::unordered_map<const std::string*, uint32_t> slot;
  for (uint32_t i = 0; i < n; ++i) {
    const auto it =
        slot.emplace(col.View(i).s, static_cast<uint32_t>(reps.size())).first;
    if (it->second == reps.size()) reps.push_back(i);
    rep_of[i] = it->second;
  }
  std::vector<uint32_t> by_value(reps.size());
  for (uint32_t i = 0; i < by_value.size(); ++i) by_value[i] = i;
  const auto cmp = [&](uint32_t a, uint32_t b) {
    return CompareCellViews(col.View(reps[a]), col.View(reps[b]));
  };
  std::sort(by_value.begin(), by_value.end(),
            [&](uint32_t a, uint32_t b) { return cmp(a, b) < 0; });
  std::vector<uint64_t> rank_of_rep(reps.size());
  uint64_t rank = 0;
  for (size_t i = 0; i < by_value.size(); ++i) {
    if (i > 0 && cmp(by_value[i - 1], by_value[i]) != 0) ++rank;
    rank_of_rep[by_value[i]] = rank;
  }
  for (uint32_t i = 0; i < n; ++i) out[i * stride] = rank_of_rep[rep_of[i]];
}

/// Words one key column occupies per row.
size_t KeyWidth(const TypedColumn& col) {
  if (col.type() == ValueType::kString) return 1;
  return col.has_nulls() ? 2 : 1;
}

/// Writes key column `col`'s words at out[i * stride] (+1 for the value
/// word after a null flag).
void EncodeKey(const TypedColumn& col, uint64_t* out, size_t stride) {
  const uint32_t n = col.size();
  switch (RowBatch::LaneKindFor(col.type())) {
    case RowBatch::LaneKind::kInt64:
    case RowBatch::LaneKind::kDouble: {
      const bool dbl = col.type() == ValueType::kDouble;
      const bool flag = col.has_nulls();
      for (uint32_t i = 0; i < n; ++i) {
        uint64_t* w = out + i * stride;
        const bool null = col.IsNullAt(i);
        if (flag) *w++ = null ? 0 : 1;
        *w = null ? 0
                  : dbl ? EncodeDouble(col.f64()[i]) : EncodeInt(col.i64()[i]);
      }
      return;
    }
    case RowBatch::LaneKind::kStringRef:
      if (const Column* dict = col.string_dict()) {
        for (uint32_t i = 0; i < n; ++i) {
          const CellView v = col.View(i);
          out[i * stride] =
              v.is_null() ? 0 : uint64_t{1} + dict->DictCodeOf(v.s);
        }
      } else {
        DenseRanks(col, out, stride);
      }
      return;
    case RowBatch::LaneKind::kStringCode:
    case RowBatch::LaneKind::kNone:
      break;  // LaneKindFor never yields these
  }
}

/// Bits needed to hold values 0..x.
int BitWidth(uint64_t x) {
  int bits = 0;
  for (; x != 0; x >>= 1) ++bits;
  return bits;
}

/// Sorts the rows as single uint64 records — (words, position) compared
/// by value — when every word's value range fits next to the position:
/// each word minus its column minimum, then the position, packed most
/// significant first. Subtracting a per-word minimum and concatenating
/// preserves the lexicographic order of (words, position), so the
/// comparator calls are the same. Returns false, sorting nothing, when
/// the ranges do not fit.
bool SortPacked(const NormalizedKeys& keys, std::vector<uint32_t>* order,
                uint64_t* compares) {
  const size_t n = keys.num_rows();
  const size_t width = keys.width();
  std::vector<uint64_t> lo(width, ~uint64_t{0});
  std::vector<uint64_t> hi(width, 0);
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t* w = keys.row(i);
    for (size_t j = 0; j < width; ++j) {
      lo[j] = std::min(lo[j], w[j]);
      hi[j] = std::max(hi[j], w[j]);
    }
  }
  const int pos_bits = BitWidth(n - 1);
  std::vector<int> bits(width);
  int total = pos_bits;
  for (size_t j = 0; j < width; ++j) {
    bits[j] = BitWidth(hi[j] - lo[j]);
    total += bits[j];
  }
  if (total > 64) return false;
  // total <= 64 with n >= 2 keeps every shift below 64.
  std::vector<uint64_t> recs(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t* w = keys.row(i);
    uint64_t v = 0;
    for (size_t j = 0; j < width; ++j) v = (v << bits[j]) | (w[j] - lo[j]);
    recs[i] = (v << pos_bits) | i;
  }
  std::sort(recs.begin(), recs.end(), [compares](uint64_t a, uint64_t b) {
    ++*compares;
    return a < b;
  });
  const uint64_t pos_mask = (uint64_t{1} << pos_bits) - 1;
  order->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*order)[i] = static_cast<uint32_t>(recs[i] & pos_mask);
  }
  return true;
}

}  // namespace

NormalizedKeys::NormalizedKeys(const std::vector<TypedColumn>& key_cols,
                               const std::vector<SortKey>& keys, size_t n)
    : n_(n) {
  for (const TypedColumn& col : key_cols) width_ += KeyWidth(col);
  words_.resize(n_ * width_);
  size_t off = 0;
  for (size_t k = 0; k < key_cols.size(); ++k) {
    const size_t kw = KeyWidth(key_cols[k]);
    EncodeKey(key_cols[k], words_.data() + off, width_);
    if (!keys[k].ascending) {
      for (size_t i = 0; i < n_; ++i) {
        for (size_t j = 0; j < kw; ++j) {
          uint64_t& w = words_[i * width_ + off + j];
          w = ~w;
        }
      }
    }
    off += kw;
  }
}

uint64_t NormalizedKeys::Sort(std::vector<uint32_t>* order) const {
  uint64_t compares = 0;
  if (n_ >= 2 && SortPacked(*this, order, &compares)) return compares;
  // Ranges too wide to pack (doubles, int64 extremes, many keys): an
  // index sort over the same order.
  order->resize(n_);
  for (size_t i = 0; i < n_; ++i) (*order)[i] = static_cast<uint32_t>(i);
  std::sort(order->begin(), order->end(), [&](uint32_t a, uint32_t b) {
    ++compares;
    return Less(a, b);
  });
  return compares;
}

}  // namespace ecodb
