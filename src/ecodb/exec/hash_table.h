// Flat open-addressing hash structures shared by HashJoinOp and HashAggOp.
//
// The seed engine kept join/aggregation state in node-based std
// containers (std::unordered_multimap<size_t, Row>), whose probe path is
// dominated by pointer-chasing and whose build path by per-node heap
// allocation. FlatHashIndex replaces them with a single contiguous slot
// array (linear probing, power-of-two capacity) that maps a 64-bit key
// hash to a *chain* of payload indexes in a contiguous pool owned by the
// operator — build rows for joins, groups for aggregation. Duplicate keys
// (multimap semantics) are chained in insertion order through head/tail
// pointers in the slot plus next-links parallel to the payload pool, so a
// probe touches one slot line and then walks a dense index array instead
// of heap nodes.
//
// Accounting contract: the index itself never touches ExecContext.
// Callers count one bucket-compare per chain entry examined and one
// key-equality comparison per column compared, exactly as the node-based
// containers did. Insertion order fixes chain order, so the counters —
// and the join/group emission order — are a deterministic function of
// the input order.

#ifndef ECODB_EXEC_HASH_TABLE_H_
#define ECODB_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <vector>

#include "ecodb/exec/row_batch.h"
#include "ecodb/storage/value.h"
#include "ecodb/util/memory_tracker.h"

namespace ecodb {

/// Index structure only: hash -> chain of payload indexes. Payloads live
/// in a contiguous array owned by the caller and are referenced by their
/// position; payload index N must be inserted before index N+1 (the
/// next-link array grows with the pool). No deletion (query-lifetime
/// tables), so there are no tombstones.
///
/// Chains append at the tail and entries never move, so a payload's
/// 1-based position in its chain is fixed for the table's lifetime. The
/// parallel pipeline breakers' canonical charge accounting
/// (exec/morsel.cc) leans on exactly this: the coordinator can memoize a
/// group's chain rank once and re-issue the sequential engine's compare
/// counts on every later lookup, and stitched duplicate chains stay
/// insertion-order-equivalent to a single-threaded build.
class FlatHashIndex {
 public:
  static constexpr uint32_t kInvalid = 0xFFFFFFFFu;

  /// Clears the index. `expected_keys` pre-sizes the slot array so a
  /// build of known cardinality never rehashes.
  void Reset(size_t expected_keys = 0);

  /// Inserts payload index `idx` under `hash`. Equal hashes chain in
  /// insertion order. `idx` values must be inserted in increasing order
  /// starting at 0 (one per payload appended to the caller's pool).
  void Insert(size_t hash, uint32_t idx);

  /// Head payload index of the chain for `hash`, or kInvalid.
  uint32_t Find(size_t hash) const;

  /// Next payload index in the same-hash chain, or kInvalid.
  uint32_t Next(uint32_t idx) const { return next_[idx]; }

  /// Number of distinct hashes (occupied slots).
  size_t distinct_hashes() const { return count_; }
  /// Number of payload entries inserted.
  size_t size() const { return next_.size(); }
  /// Current slot-array capacity (a power of two, or 0 before first use).
  size_t capacity() const { return slots_.size(); }

  /// Optional accounting: slot + next-link array footprints are charged
  /// to the tracker as they grow and released on Reset. Host bytes here
  /// (not logical cell bytes): the table's growth is a deterministic
  /// function of the insertion sequence, so the charge is too.
  void set_memory_tracker(MemoryTracker* tracker) {
    tracker_ = tracker;
    UpdateTracked();
  }

 private:
  struct Slot {
    size_t hash = 0;
    uint32_t head = kInvalid;
    uint32_t tail = kInvalid;
  };

  /// Rehashes into at least `min_slots` slots (rounded up to a power of
  /// two). Chains are untouched: only the slot positions move.
  void Grow(size_t min_slots);

  /// Re-derives the tracked footprint from the current array sizes and
  /// charges/releases the delta.
  void UpdateTracked();

  std::vector<Slot> slots_;
  std::vector<uint32_t> next_;
  size_t count_ = 0;
  MemoryTracker* tracker_ = nullptr;
  uint64_t tracked_bytes_ = 0;
};

/// Hashes the key columns of every *selected* row of `batch` into
/// `hashes` (parallel to batch.sel(): hashes[i] is the key hash of row
/// sel()[i]). Exactly equal to HashRowKey over the materialized row —
/// same seed, same combine, same Value::Hash — but computed column-at-a-
/// time, reading lane columns straight from their typed arrays
/// (int64/date/bool, double, string pointers, dictionary codes) so key
/// extraction does not box a Value.
void HashKeyColumnsBatch(const RowBatch& batch,
                         const std::vector<int>& key_cols,
                         std::vector<size_t>* hashes);

}  // namespace ecodb

#endif  // ECODB_EXEC_HASH_TABLE_H_
