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
#include <utility>

#include "ecodb/util/memory_tracker.h"

namespace ecodb {

class StringArena {
 public:
  StringArena() = default;
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
  MemoryTracker* tracker_ = nullptr;
  uint64_t tracked_bytes_ = 0;
};

using StringArenaPtr = std::shared_ptr<StringArena>;

}  // namespace ecodb

#endif  // ECODB_STORAGE_STRING_ARENA_H_
