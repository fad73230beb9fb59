// QueryTask: one query's execution as an incrementally drivable state
// machine — the unit the workload scheduler interleaves.
//
// ExecuteOperatorColumnar runs a plan to completion in one call; a
// concurrent scheduler needs to run *many* plans against one simulated
// machine, advancing each a little at a time so their simulated service
// intervals overlap on the shared clock. QueryTask unbundles that drain
// loop: each Step() performs exactly one unit of work — instantiate+Open
// on the first call (pipeline breakers do their materialization there,
// so a sort/agg/build-heavy query's first step is its big one), then one
// ResultDrain step (the same one the monolithic drain runs: up to one
// batch's worth of rows charged to the accumulating ResultSet, which a
// materialized root fills whole at the first step). Every step boundary
// is a governor checkpoint: the task's own QueryGovernor (deadline
// anchored at *admission*, so queue wait and cross-query interference
// count against it) is consulted before each pull, exactly as the
// monolithic drain does.
//
// The task owns its ExecContext, governor, operator tree and result;
// failure at any step closes the operator stack and releases tracked
// result memory, leaving the shared Database reusable — the same
// contract Database::ExecutePlanQuery documents for monolithic
// execution. A finished (done or failed) task is inert: further Step()
// calls return the terminal state.

#ifndef ECODB_EXEC_QUERY_TASK_H_
#define ECODB_EXEC_QUERY_TASK_H_

#include <memory>
#include <utility>

#include "ecodb/exec/exec_context.h"
#include "ecodb/exec/operators.h"
#include "ecodb/exec/plan.h"
#include "ecodb/exec/query_governor.h"
#include "ecodb/exec/result_set.h"

namespace ecodb {

class QueryTask {
 public:
  enum class State {
    kCreated,  ///< no Step() yet
    kRunning,  ///< opened, result partially drained
    kDone,     ///< drained; TakeResult() is valid
    kFailed,   ///< status() holds the error; everything torn down
  };

  /// `plan` is borrowed and must outlive the task. The context is owned.
  QueryTask(const PlanNode* plan, std::unique_ptr<ExecContext> ctx)
      : plan_(plan), ctx_(std::move(ctx)) {}
  ~QueryTask();

  QueryTask(const QueryTask&) = delete;
  QueryTask& operator=(const QueryTask&) = delete;

  /// Attaches per-query limits, anchoring a relative deadline at
  /// `start_seconds` (the scheduler passes admission time). Must be
  /// called before the first Step(); no-op for None() limits.
  void Govern(const QueryLimits& limits, double start_seconds);

  /// Runs the next unit of work and returns the state afterwards.
  State Step();

  State state() const { return state_; }
  /// OK while running/done; the terminal error once kFailed.
  const Status& status() const { return status_; }

  /// Moves the completed result out. Requires state() == kDone.
  ResultSet TakeResult() { return drain_.TakeResult(); }
  const Schema& output_schema() const { return plan_->output_schema; }

  ExecContext* ctx() { return ctx_.get(); }
  const QueryExecStats& stats() const { return ctx_->stats(); }

 private:
  State Fail(const Status& status);

  const PlanNode* plan_;
  std::unique_ptr<ExecContext> ctx_;
  std::unique_ptr<QueryGovernor> governor_;  ///< null = ungoverned

  State state_ = State::kCreated;
  Status status_ = Status::OK();
  OperatorPtr op_;
  ResultDrain drain_;  ///< started once op_ is open
};

}  // namespace ecodb

#endif  // ECODB_EXEC_QUERY_TASK_H_
