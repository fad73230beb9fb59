// Operator-owned scratch for vectorized expression evaluation.
//
// Expression trees are shared, immutable objects (ExprPtr is a
// shared_ptr<const Expr>), so the per-batch temporaries their batch
// kernels need cannot live in the nodes. There are two kinds:
//  * selections (std::vector<uint32_t>): undecided rows for AND/OR
//    short-circuit, pending sets for BETWEEN / IN-list laziness;
//  * typed lanes (RowBatch::TypedLane): the cells an inner node
//    evaluates into for its parent, and int-to-double conversions for
//    arithmetic.
//
// ExprScratch is a free-list pool of both, owned by the *operator*
// driving the expression (FilterOp, ProjectOp, HashAggOp, SortOp,
// NestedLoopJoinOp, morsel workers) and threaded through EvalBatch /
// FilterBatch. Acquire() hands out a cleared object whose capacity
// survives release, so after the first batch the steady state performs
// zero allocations: O(operators) pools, each holding at most
// O(expression depth) objects.
//
// Scratch<T> is the RAII accessor: it borrows from the pool when one is
// supplied and falls back to a local object when `scratch` is null
// (tests and cold paths), so kernels are written once.

#ifndef ECODB_EXEC_EXPR_SCRATCH_H_
#define ECODB_EXEC_EXPR_SCRATCH_H_

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "ecodb/exec/row_batch.h"

namespace ecodb {

using SelVec = std::vector<uint32_t>;

class ExprScratch {
 public:
  template <typename T>
  T* Acquire() {
    return pool<T>().Acquire();
  }
  template <typename T>
  void Release(T* v) {
    pool<T>().Release(v);
  }

 private:
  template <typename T>
  struct Pool {
    std::vector<std::unique_ptr<T>> owned;
    std::vector<T*> free_list;

    T* Acquire() {
      if (free_list.empty()) {
        owned.push_back(std::make_unique<T>());
        return owned.back().get();
      }
      T* v = free_list.back();
      free_list.pop_back();
      if constexpr (std::is_same_v<T, SelVec>) {
        v->clear();
      } else {
        v->Clear();
      }
      return v;
    }
    void Release(T* v) { free_list.push_back(v); }
  };

  template <typename T>
  Pool<T>& pool() {
    static_assert(std::is_same_v<T, SelVec> ||
                      std::is_same_v<T, RowBatch::TypedLane>,
                  "unsupported scratch type");
    if constexpr (std::is_same_v<T, SelVec>) {
      return sels_;
    } else {
      return lanes_;
    }
  }

  Pool<SelVec> sels_;
  Pool<RowBatch::TypedLane> lanes_;
};

/// RAII scratch object: pooled when `scratch` is non-null, local
/// otherwise. Always starts empty (cleared).
template <typename T>
class Scratch {
 public:
  explicit Scratch(ExprScratch* scratch) : scratch_(scratch) {
    obj_ = scratch_ != nullptr ? scratch_->Acquire<T>() : &local_;
  }
  ~Scratch() {
    if (scratch_ != nullptr) scratch_->Release(obj_);
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  T& operator*() { return *obj_; }
  T* operator->() { return obj_; }
  T* get() { return obj_; }

 private:
  ExprScratch* scratch_;
  T* obj_;
  T local_;
};

using ScratchSel = Scratch<SelVec>;
using ScratchLane = Scratch<RowBatch::TypedLane>;

}  // namespace ecodb

#endif  // ECODB_EXEC_EXPR_SCRATCH_H_
