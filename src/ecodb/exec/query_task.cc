#include "ecodb/exec/query_task.h"

namespace ecodb {

QueryTask::~QueryTask() {
  // Abandoned mid-run (scheduler shutdown): tear down like a failure so
  // operator pools and tracked bytes never outlive the task.
  if (state_ == State::kRunning) {
    ctx_->memory_tracker()->Release(result_bytes_);
    op_->Close();
  }
}

void QueryTask::Govern(const QueryLimits& limits, double start_seconds) {
  if (limits.None()) return;
  governor_ = std::make_unique<QueryGovernor>(limits, start_seconds);
  ctx_->set_governor(governor_.get());
}

QueryTask::State QueryTask::Fail(const Status& status) {
  ctx_->memory_tracker()->Release(result_bytes_);
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
      set_.Reset(op_->schema());
      width_ = op_->schema().RowWidth();
      state_ = State::kRunning;
      return state_;
    }

    case State::kRunning: {
      // One drain iteration of ExecuteOperatorColumnar, governor check
      // included.
      MemoryTracker* tracker = ctx_->memory_tracker();
      Status st = ctx_->CheckGovernor();
      if (!st.ok()) return Fail(st);
      bool has = false;
      st = op_->NextBatch(&batch_, &has, RowBatch::kDefaultBatchRows);
      if (!st.ok()) return Fail(st);
      if (has) {
        ctx_->ChargeOutputTuples(batch_.active(), width_);
        const uint64_t rb = static_cast<uint64_t>(batch_.active()) *
                            static_cast<uint64_t>(width_);
        tracker->Charge(rb);
        result_bytes_ += rb;
        set_.AppendBatch(batch_);
        return state_;
      }
      tracker->Release(result_bytes_);
      result_bytes_ = 0;
      op_->Close();
      ctx_->Flush();
      state_ = State::kDone;
      return state_;
    }
  }
  return state_;
}

}  // namespace ecodb
