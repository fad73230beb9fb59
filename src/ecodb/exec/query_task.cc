#include "ecodb/exec/query_task.h"

namespace ecodb {

QueryTask::~QueryTask() {
  // Abandoned mid-run (scheduler shutdown): tear down like a failure so
  // operator pools and tracked bytes never outlive the task.
  if (state_ == State::kRunning) drain_.Close();
}

void QueryTask::Govern(const QueryLimits& limits, double start_seconds) {
  if (limits.None()) return;
  governor_ = std::make_unique<QueryGovernor>(limits, start_seconds);
  ctx_->set_governor(governor_.get());
}

QueryTask::State QueryTask::Fail(const Status& status) {
  if (op_ != nullptr) op_->Close();
  status_ = status;
  state_ = State::kFailed;
  return state_;
}

QueryTask::State QueryTask::Step() {
  switch (state_) {
    case State::kDone:
    case State::kFailed:
      return state_;

    case State::kCreated: {
      // Mirrors ExecutePlanColumnar's preamble: validate, instantiate,
      // open. Pipeline breakers (sort, hash build, aggregation) do their
      // full materialization inside Open, consulting the governor at
      // their internal consume-loop checkpoints.
      Status st = ValidatePlan(*plan_);
      if (!st.ok()) return Fail(st);
      auto op = InstantiatePlan(*plan_, ctx_.get());
      if (!op.ok()) return Fail(op.status());
      op_ = std::move(op.value());
      st = op_->Open();
      if (!st.ok()) return Fail(st);
      drain_.Start(op_.get(), ctx_.get());
      state_ = State::kRunning;
      return state_;
    }

    case State::kRunning: {
      // One step of ExecuteOperatorColumnar's drain, governor check
      // included. A failed step has already closed the operator stack.
      bool done = false;
      Status st = drain_.Step(&done);
      if (!st.ok()) {
        status_ = st;
        state_ = State::kFailed;
      } else if (done) {
        state_ = State::kDone;
      }
      return state_;
    }
  }
  return state_;
}

}  // namespace ecodb
