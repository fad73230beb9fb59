// MemoryTracker: logical-byte accounting for one query's scratch memory.
//
// The tracker counts *logical* bytes (8 per numeric cell, payload length
// per string cell, 1 per null — see LogicalCellBytes in
// exec/query_governor.h), not host allocation sizes. Host footprints
// depend on representation (a borrowed string pointer into an arena
// versus a boxed copy, lane versus boxed column), but the logical
// content of every operator pool does not — so a memory budget expressed
// in logical bytes trips, or doesn't trip, independently of how the
// operators store their data or how many rows a pull carries.
// peak_bytes() is what QueryExecStats::peak_memory_bytes reports.
//
// Lives in util/ so storage-layer containers (StringArena) can carry an
// optional tracker without depending on the exec layer.

#ifndef ECODB_UTIL_MEMORY_TRACKER_H_
#define ECODB_UTIL_MEMORY_TRACKER_H_

#include <cstdint>

namespace ecodb {

class MemoryTracker {
 public:
  void Charge(uint64_t bytes) {
    current_ += bytes;
    if (current_ > peak_) {
      peak_ = current_;
      if (peak_mirror_ != nullptr) *peak_mirror_ = peak_;
    }
  }

  /// Defensive: never underflows (a release of more than was charged
  /// clamps to zero rather than wrapping).
  void Release(uint64_t bytes) {
    current_ = bytes > current_ ? 0 : current_ - bytes;
  }

  uint64_t current_bytes() const { return current_; }
  uint64_t peak_bytes() const { return peak_; }

  /// Mirrors the peak into an external counter on every new high-water
  /// mark (QueryExecStats::peak_memory_bytes), so stats snapshots stay
  /// current without a sync step.
  void BindPeakMirror(uint64_t* mirror) {
    peak_mirror_ = mirror;
    if (peak_mirror_ != nullptr) *peak_mirror_ = peak_;
  }

  void ResetPeak() {
    peak_ = current_;
    if (peak_mirror_ != nullptr) *peak_mirror_ = peak_;
  }

 private:
  uint64_t current_ = 0;
  uint64_t peak_ = 0;
  uint64_t* peak_mirror_ = nullptr;
};

}  // namespace ecodb

#endif  // ECODB_UTIL_MEMORY_TRACKER_H_
