#include "ecodb/exec/sort_keys.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

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

/// One word per row of string column `col`: the entry's code + 1 (0 for
/// null) when every cell is an entry of one table dictionary, else the
/// dense rank under CompareCellViews. One representative per distinct
/// address is ranked (borrowed strings repeat addresses).
std::vector<uint64_t> StringWords(const TypedColumn& col, uint32_t n) {
  std::vector<uint64_t> out(n);
  if (const Column* dict = col.string_dict()) {
    for (uint32_t i = 0; i < n; ++i) {
      const CellView v = col.View(i);
      out[i] = v.is_null() ? 0 : uint64_t{1} + dict->DictCodeOf(v.s);
    }
    return out;
  }
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
  for (uint32_t i = 0; i < n; ++i) out[i] = rank_of_rep[rep_of[i]];
  return out;
}

/// One normalized word of every row, read from a key column.
struct KeyWord {
  enum class Kind { kNullFlag, kInt, kDouble, kString } kind;
  const TypedColumn* col;
  uint64_t flip;                       ///< ~0 for a DESC key, else 0
  const uint64_t* strings = nullptr;   ///< kString: the StringWords
  uint64_t lo = ~uint64_t{0}, hi = 0;  ///< range over the rows visited
  int bits = 0;                        ///< bits of hi - lo
};

/// Calls f(row, word) for rows [0, n) — except the null rows of an int or
/// double value word, which hold the word's minimum.
template <typename F>
void ForEachWord(const KeyWord& kw, uint32_t n, F&& f) {
  const TypedColumn& col = *kw.col;
  switch (kw.kind) {
    case KeyWord::Kind::kNullFlag:
      for (uint32_t i = 0; i < n; ++i) f(i, !col.IsNullAt(i) ^ kw.flip);
      return;
    case KeyWord::Kind::kInt:
      for (uint32_t i = 0; i < n; ++i) {
        if (!col.IsNullAt(i)) f(i, EncodeInt(col.i64()[i]) ^ kw.flip);
      }
      return;
    case KeyWord::Kind::kDouble:
      for (uint32_t i = 0; i < n; ++i) {
        if (!col.IsNullAt(i)) f(i, EncodeDouble(col.f64()[i]) ^ kw.flip);
      }
      return;
    case KeyWord::Kind::kString:
      for (uint32_t i = 0; i < n; ++i) f(i, kw.strings[i] ^ kw.flip);
      return;
  }
}

/// Bits needed to hold values 0..x.
int BitWidth(uint64_t x) {
  int bits = 0;
  for (; x != 0; x >>= 1) ++bits;
  return bits;
}

/// Stable LSD radix sort of `recs` on bits [lo_bit, lo_bit + key_bits),
/// in digits of at most 11 bits. All digit histograms come from one
/// read pass; a pass whose digit is the same in every record is skipped.
void RadixSort(std::vector<uint64_t>* recs, int lo_bit, int key_bits) {
  const size_t n = recs->size();
  if (n < 2 || key_bits == 0) return;
  const int passes = (key_bits + 10) / 11;
  const int digit_bits = (key_bits + passes - 1) / passes;
  const size_t buckets = size_t{1} << digit_bits;
  const auto digit = [&](uint64_t r, int p) {
    return (r >> (lo_bit + p * digit_bits)) & (buckets - 1);
  };
  std::vector<uint32_t> counts(passes * buckets, 0);
  for (const uint64_t r : *recs) {
    for (int p = 0; p < passes; ++p) ++counts[p * buckets + digit(r, p)];
  }
  std::vector<uint64_t> tmp(n);
  uint64_t* src = recs->data();
  uint64_t* dst = tmp.data();
  for (int p = 0; p < passes; ++p) {
    uint32_t* c = counts.data() + p * buckets;
    if (c[digit(src[0], p)] == n) continue;
    for (uint32_t b = 0, sum = 0; b < buckets; ++b) {
      sum += std::exchange(c[b], sum);
    }
    for (size_t i = 0; i < n; ++i) dst[c[digit(src[i], p)]++] = src[i];
    std::swap(src, dst);
  }
  if (src != recs->data()) recs->swap(tmp);
}

}  // namespace

NormalizedKeys::NormalizedKeys(const std::vector<TypedColumn>& key_cols,
                               const std::vector<SortKey>& keys, size_t n)
    : n_(n) {
  using Kind = KeyWord::Kind;
  const uint32_t rows = static_cast<uint32_t>(n_);
  std::vector<std::vector<uint64_t>> strings(key_cols.size());
  std::vector<KeyWord> words;
  for (size_t k = 0; k < key_cols.size(); ++k) {
    const TypedColumn& col = key_cols[k];
    const uint64_t flip = keys[k].ascending ? 0 : ~uint64_t{0};
    if (col.type() == ValueType::kString) {
      strings[k] = StringWords(col, rows);
      words.push_back({Kind::kString, &col, flip, strings[k].data()});
      continue;
    }
    if (col.has_nulls()) words.push_back({Kind::kNullFlag, &col, flip});
    const bool dbl = col.type() == ValueType::kDouble;
    words.push_back({dbl ? Kind::kDouble : Kind::kInt, &col, flip});
  }

  // A constant word (or one no row visits) orders nothing: drop it.
  pos_bits_ = n_ < 2 ? 0 : BitWidth(n_ - 1);
  std::vector<KeyWord> used;
  for (KeyWord& kw : words) {
    ForEachWord(kw, rows, [&kw](uint32_t, uint64_t w) {
      kw.lo = std::min(kw.lo, w);
      kw.hi = std::max(kw.hi, w);
    });
    if (kw.lo >= kw.hi) continue;
    kw.bits = BitWidth(kw.hi - kw.lo);
    key_bits_ += kw.bits;
    used.push_back(kw);
  }

  packed_ = pos_bits_ + key_bits_ <= 64;
  if (packed_) {
    // Least significant word first; each shift stays below 64.
    recs_.resize(n_);
    for (uint32_t i = 0; i < rows; ++i) recs_[i] = i;
    int shift = pos_bits_;
    for (auto it = used.rbegin(); it != used.rend(); ++it) {
      ForEachWord(*it, rows, [&, lo = it->lo](uint32_t i, uint64_t w) {
        recs_[i] |= (w - lo) << shift;
      });
      shift += it->bits;
    }
    return;
  }
  width_ = used.size();
  words_.assign(n_ * width_, 0);
  for (size_t j = 0; j < width_; ++j) {
    ForEachWord(used[j], rows, [&, lo = used[j].lo](uint32_t i, uint64_t w) {
      words_[i * width_ + j] = w - lo;
    });
  }
}

void NormalizedKeys::Sort(std::vector<uint32_t>* order) && {
  order->resize(n_);
  if (packed_) {
    RadixSort(&recs_, pos_bits_, key_bits_);
    const uint64_t pos_mask = (uint64_t{1} << pos_bits_) - 1;
    for (size_t i = 0; i < n_; ++i) {
      (*order)[i] = static_cast<uint32_t>(recs_[i] & pos_mask);
    }
    return;
  }
  for (size_t i = 0; i < n_; ++i) (*order)[i] = static_cast<uint32_t>(i);
  std::sort(order->begin(), order->end(),
            [this](uint32_t a, uint32_t b) { return Less(a, b); });
}

}  // namespace ecodb
