#include "ecodb/exec/hash_table.h"

#include <functional>

#include "ecodb/exec/simd.h"

namespace ecodb {

namespace {

constexpr size_t kMinSlots = 64;

size_t NextPow2(size_t n) {
  size_t cap = kMinSlots;
  while (cap < n) cap <<= 1;
  return cap;
}

/// Grow when occupancy would exceed 7/10 (linear probing degrades fast
/// past ~0.7 load).
bool NeedsGrow(size_t occupied, size_t capacity) {
  return (occupied + 1) * 10 > capacity * 7;
}

}  // namespace

void FlatHashIndex::Reset(size_t expected_keys) {
  slots_.clear();
  next_.clear();
  count_ = 0;
  if (expected_keys > 0) {
    slots_.resize(NextPow2(expected_keys * 10 / 7 + 1));
  }
  UpdateTracked();
}

void FlatHashIndex::UpdateTracked() {
  if (tracker_ == nullptr) return;
  const uint64_t now = slots_.size() * sizeof(Slot) +
                       next_.size() * sizeof(uint32_t);
  if (now > tracked_bytes_) {
    tracker_->Charge(now - tracked_bytes_);
  } else {
    tracker_->Release(tracked_bytes_ - now);
  }
  tracked_bytes_ = now;
}

void FlatHashIndex::Grow(size_t min_slots) {
  const size_t cap = NextPow2(min_slots);
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(cap, Slot{});
  const size_t mask = cap - 1;
  for (const Slot& o : old) {
    if (o.head == kInvalid) continue;
    size_t s = o.hash & mask;
    while (slots_[s].head != kInvalid) s = (s + 1) & mask;
    slots_[s] = o;
  }
}

void FlatHashIndex::Insert(size_t hash, uint32_t idx) {
  if (idx >= next_.size()) next_.resize(idx + 1, kInvalid);
  next_[idx] = kInvalid;
  if (slots_.empty() || NeedsGrow(count_, slots_.size())) {
    Grow(slots_.empty() ? kMinSlots : slots_.size() * 2);
  }
  const size_t mask = slots_.size() - 1;
  size_t s = hash & mask;
  while (slots_[s].head != kInvalid && slots_[s].hash != hash) {
    s = (s + 1) & mask;
  }
  Slot& slot = slots_[s];
  if (slot.head == kInvalid) {
    slot.hash = hash;
    slot.head = idx;
    ++count_;
  } else {
    next_[slot.tail] = idx;  // append: chains iterate in insertion order
  }
  slot.tail = idx;
  UpdateTracked();
}

uint32_t FlatHashIndex::Find(size_t hash) const {
  if (slots_.empty()) return kInvalid;
  const size_t mask = slots_.size() - 1;
  size_t s = hash & mask;
  while (slots_[s].head != kInvalid) {
    if (slots_[s].hash == hash) return slots_[s].head;
    s = (s + 1) & mask;
  }
  return kInvalid;
}

namespace {

/// Hashes of lane cells lane[sel[0..n)] into vh: exactly HashCellView of
/// each cell (the single maintained mirror of Value::Hash), with the kind
/// dispatch hoisted out of the row loop. Code lanes read the hash each
/// dictionary caches per entry — identical to hashing the decoded bytes.
void HashLaneCells(const RowBatch::TypedLane& lane, const uint32_t* sel,
                   size_t n, size_t* vh) {
  if (lane.has_nulls) {
    for (size_t i = 0; i < n; ++i) vh[i] = HashCellView(lane.ViewAt(sel[i]));
    return;
  }
  switch (lane.kind) {
    case RowBatch::LaneKind::kInt64: {
      const int64_t* v = lane.i64_data();
      std::hash<int64_t> hasher;
      for (size_t i = 0; i < n; ++i) vh[i] = hasher(v[sel[i]]);
      break;
    }
    case RowBatch::LaneKind::kDouble: {
      const double* v = lane.f64_data();
      for (size_t i = 0; i < n; ++i) vh[i] = Value::HashDouble(v[sel[i]]);
      break;
    }
    case RowBatch::LaneKind::kStringRef: {
      const std::string* const* v = lane.str_data();
      std::hash<std::string> hasher;
      for (size_t i = 0; i < n; ++i) vh[i] = hasher(*v[sel[i]]);
      break;
    }
    case RowBatch::LaneKind::kStringCode: {
      const int32_t* v = lane.code_data();
      for (size_t i = 0; i < n; ++i) vh[i] = lane.dict->DictHash(v[sel[i]]);
      break;
    }
    case RowBatch::LaneKind::kNone:
      break;
  }
}

}  // namespace

void HashKeyColumnsBatch(const RowBatch& batch,
                         const std::vector<int>& key_cols,
                         std::vector<size_t>* hashes) {
  const std::vector<uint32_t>& sel = batch.sel();
  const size_t n = sel.size();
  hashes->assign(n, kRowKeyHashSeed);
  size_t* h = hashes->data();
  // Two-pass combine: gather per-column value hashes into a reusable
  // scratch, then fold the whole column in with one SIMD combine (the
  // combine chains across *columns*, so the per-row folds are
  // independent). thread_local so steady-state execution stays
  // allocation-free after the first batch per worker.
  static thread_local std::vector<size_t> vh_scratch;
  vh_scratch.resize(n);
  size_t* vh = vh_scratch.data();
  for (int c : key_cols) {
    HashLaneCells(batch.lane(c), sel.data(), n, vh);
    simd::HashCombineBatch(h, vh, n);
  }
}

}  // namespace ecodb
