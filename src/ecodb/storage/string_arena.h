// StringArena: address-stable owned string storage for columnar payloads.
//
// Typed string lanes and columnar pools carry `const std::string*` instead
// of copying bytes per cell. Those pointers are only safe while the bytes
// they reference stay alive and at the same address. The arena provides
// both properties: strings live in a deque (appending never moves existing
// elements), and the arena itself is shared via `std::shared_ptr` so any
// batch / result that references its bytes can *retain* the arena and keep
// the payload alive past the producer's own lifetime (a probe batch being
// replaced mid-call, an operator Close clearing its pool).
//
// Ownership contract (see docs/architecture.md "String ownership"): every
// string a lane points at is owned by (a) Table storage, which outlives
// the query, or (b) a StringArena retained — directly or transitively —
// by every RowBatch that references it.

#ifndef ECODB_STORAGE_STRING_ARENA_H_
#define ECODB_STORAGE_STRING_ARENA_H_

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "ecodb/util/memory_tracker.h"

namespace ecodb {

class StringArena {
 public:
  /// Default InternDedup distinct-entry ceiling: the dictionary exists
  /// for genuinely low-cardinality columns (flags, modes, nation names),
  /// not to index arbitrary payloads. Callers with different cardinality
  /// expectations pass their own cap to the constructor.
  static constexpr size_t kDedupMaxEntries = 64;

  explicit StringArena(size_t dedup_max_entries = kDedupMaxEntries)
      : dedup_max_entries_(dedup_max_entries) {}
  StringArena(const StringArena&) = delete;
  StringArena& operator=(const StringArena&) = delete;
  ~StringArena() { DetachMemoryTracker(); }

  /// Copies `s` into the arena and returns its stable address.
  const std::string* Intern(const std::string& s) {
    strings_.push_back(s);
    TrackIntern(strings_.back().size());
    return &strings_.back();
  }
  const std::string* Intern(std::string&& s) {
    strings_.push_back(std::move(s));
    TrackIntern(strings_.back().size());
    return &strings_.back();
  }

  /// Deduplicating intern for low-cardinality columns: returns the
  /// address of an already-interned equal string when the dictionary
  /// knows one, so a column of n rows over k distinct values stores k
  /// copies, not n. The dictionary stops *growing* past the constructor's
  /// cap (this is for flags/modes/names, not for indexing arbitrary
  /// payloads) but keeps serving hits for the values it already indexed —
  /// a column with a few hot values plus a long tail still dedups the hot
  /// ones at one bounded hash probe per append.
  const std::string* InternDedup(const std::string& s) {
    auto it = dedup_.find(std::string_view(s));
    if (it != dedup_.end()) {
      ++dedup_hits_;
      return it->second;
    }
    ++dedup_misses_;
    if (dedup_.size() < dedup_max_entries_) {
      const std::string* p = Intern(s);
      dedup_.emplace(std::string_view(*p), p);  // keys view arena bytes
      return p;
    }
    return Intern(s);
  }

  /// Dedup effectiveness counters (diagnostics — these depend on how many
  /// appends took the copy path rather than a borrowed pointer, so they
  /// are surfaced in QueryExecStats but not part of the charged work).
  uint64_t dedup_hits() const { return dedup_hits_; }
  uint64_t dedup_misses() const { return dedup_misses_; }

  size_t size() const { return strings_.size(); }
  bool empty() const { return strings_.empty(); }

  /// Drops all strings. Only legal for an arena with a single owner (a
  /// shared arena may still be referenced by lanes elsewhere); callers
  /// check `use_count` on their handle before reusing.
  void Clear() {
    if (tracker_ != nullptr) {
      tracker_->Release(tracked_bytes_);
      tracked_bytes_ = 0;
    }
    strings_.clear();
    dedup_.clear();
    dedup_hits_ = 0;
    dedup_misses_ = 0;
  }

  /// Optional logical-byte accounting: once attached, every interned
  /// payload charges its length to the tracker. The attaching TypedColumn
  /// owns the tracker's lifetime contract: an arena can be *retained* by
  /// emitted batches and result sets that outlive the query's ExecContext
  /// (and thus the tracker), so whoever relinquishes a tracked arena MUST
  /// call DetachMemoryTracker() first — after detach the arena never
  /// touches the tracker again.
  void set_memory_tracker(MemoryTracker* tracker) { tracker_ = tracker; }

  /// Releases everything this arena charged and forgets the tracker.
  void DetachMemoryTracker() {
    if (tracker_ != nullptr) {
      tracker_->Release(tracked_bytes_);
      tracker_ = nullptr;
    }
    tracked_bytes_ = 0;
  }

 private:
  void TrackIntern(size_t payload_bytes) {
    if (tracker_ != nullptr) {
      tracker_->Charge(payload_bytes);
      tracked_bytes_ += payload_bytes;
    }
  }

  std::deque<std::string> strings_;  ///< stable addresses across appends
  /// Content -> interned address; keys are views into `strings_` entries,
  /// which never move or die before Clear().
  std::unordered_map<std::string_view, const std::string*> dedup_;
  size_t dedup_max_entries_ = kDedupMaxEntries;
  uint64_t dedup_hits_ = 0;
  uint64_t dedup_misses_ = 0;
  MemoryTracker* tracker_ = nullptr;
  uint64_t tracked_bytes_ = 0;
};

using StringArenaPtr = std::shared_ptr<StringArena>;

}  // namespace ecodb

#endif  // ECODB_STORAGE_STRING_ARENA_H_
