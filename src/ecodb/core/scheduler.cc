#include "ecodb/core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ecodb/optimizer/mqo.h"
#include "ecodb/util/rng.h"
#include "ecodb/util/stats.h"
#include "ecodb/util/strings.h"

namespace ecodb {

namespace {

/// Delivery tolerance for event due times: an Idle() to a due instant
/// can land a rounding ulp short of it.
constexpr double kDueEpsilonS = 1e-9;

}  // namespace

// One submitted query's scheduling lifetime. Outcome fields live in the
// report (indexed by the same position); this carries only what the
// event loop needs.
struct WorkloadScheduler::Job {
  const PlanNode* plan = nullptr;
  int class_id = 0;
  int64_t merge_key = tpch::kNotMergeable;
  Backoff backoff;  ///< retry delays; max_retries = class retry budget
  int attempts = 0;
  double arrival_s = 0.0;  ///< nominal (scheduled) arrival instant
  double admit_s = 0.0;    ///< admission instant; deadlines anchor here
  bool terminal = false;

  Job() : backoff(BackoffPolicy{}) {}
};

// One occupied worker slot: a QueryTask plus the jobs riding in it (one
// for a plain query, several for a QED-merged batch).
struct WorkloadScheduler::RunningTask {
  std::unique_ptr<QueryTask> task;
  std::vector<size_t> members;  ///< job indices, merge-batch order
  std::unique_ptr<MergedSelection> merged;  ///< null for plain tasks
  double start_s = 0.0;
  /// BufferPool persistent-fault count when the task started; the delta
  /// at failure tells the circuit breaker transient storms apart from
  /// persistent outages.
  uint64_t pool_persistent_before = 0;
};

struct WorkloadScheduler::Event {
  enum class Kind { kArrival, kRetry };
  Kind kind = Kind::kArrival;
  size_t job = 0;
};

// All mutable state of one Run(), so Run itself stays re-entrant per
// scheduler instance (a fresh RunState per call).
class WorkloadScheduler::RunState {
 public:
  RunState(Database* db, const SchedulerOptions& options,
           const ArrivalProcess& arrivals)
      : db_(db),
        options_(options),
        arrivals_(arrivals),
        breaker_(options.breaker),
        qed_(db, QedOptions{/*batch_size=*/1, /*hashed_in_list=*/false}),
        rng_(options.seed) {}

  Result<ScheduleReport> Run(const std::vector<QuerySpec>& specs);

 private:
  using State = QueryTask::State;

  Status Validate(const std::vector<QuerySpec>& specs) const;
  void InitJobs(const std::vector<QuerySpec>& specs);
  void ScheduleInitialArrivals();

  Status DeliverDueEvents(double now);
  Status HandleArrival(size_t j, double now);
  void HandleRetryWakeup(size_t j, const Event& ev, double now);

  Status UpdateDegradation(double now);
  Status Escalate();
  Status Deescalate();
  Status ApplyLevel();

  Status FillWorkers(double now);
  void StartSingleTask(size_t j, double now);
  /// Returns true if a merged task was started (false: nothing mergeable
  /// or the merge failed and the jobs were demoted to plain).
  Result<bool> TryStartMergedTask(double now);
  QueryLimits MergedLimits(const std::vector<size_t>& members,
                           double now) const;

  void StepOneTask();
  void OnTaskDone(size_t slot);
  void OnTaskFailed(size_t slot);

  void FinishCompleted(size_t j, std::vector<Row> rows, double now,
                       bool merged, double split_share_j);
  void FinishFailed(size_t j, const Status& status, double now);
  void FinishShed(size_t j, const Status& status, double now);
  void OnTerminal(double now);

  int MaxLevel() const { return options_.degradation.MaxLevel(); }
  bool AtMaxLevel() const { return level_ >= MaxLevel(); }

  Database* db_;
  const SchedulerOptions& options_;
  const ArrivalProcess& arrivals_;

  std::vector<Job> jobs_;
  std::vector<size_t> queue_;  ///< admitted, waiting (FIFO front = [0])
  std::vector<RunningTask> running_;
  SimEventQueue<Event> events_;

  ScheduleReport report_;
  CircuitBreaker breaker_;
  ServiceEstimator estimator_;
  QedScheduler qed_;
  Rng rng_;
  std::vector<QueryLimits> class_limits_;

  int level_ = 0;
  size_t rr_ = 0;              ///< round-robin cursor over running_
  size_t next_spec_ = 0;       ///< closed loop: next spec to submit
  size_t terminal_count_ = 0;
  double run_start_s_ = 0.0;
  double run_start_wall_j_ = 0.0;
  SystemSettings stock_settings_;
};

Status WorkloadScheduler::RunState::Validate(
    const std::vector<QuerySpec>& specs) const {
  if (options_.worker_slots < 1) {
    return Status::InvalidArgument("worker_slots must be >= 1");
  }
  if (options_.max_queue_depth < 1) {
    return Status::InvalidArgument("max_queue_depth must be >= 1");
  }
  if (options_.hard_cap_multiplier < 1) {
    return Status::InvalidArgument("hard_cap_multiplier must be >= 1");
  }
  const DegradationOptions& deg = options_.degradation;
  if (deg.low_watermark < 0.0 || deg.high_watermark <= deg.low_watermark) {
    return Status::InvalidArgument(
        "degradation watermarks must satisfy 0 <= low < high");
  }
  if (deg.qed_levels < 0 || (deg.qed_levels > 0 && deg.qed_base_batch < 2)) {
    return Status::InvalidArgument(
        "qed_base_batch must be >= 2 when QED levels are enabled");
  }
  const BackoffPolicy& bp = options_.retry_backoff;
  if (bp.jitter_fraction < 0.0 || bp.jitter_fraction > 1.0 ||
      bp.initial_delay_seconds < 0.0 || bp.multiplier < 1.0) {
    return Status::InvalidArgument("invalid retry backoff policy");
  }
  const size_t num_classes = std::max<size_t>(options_.classes.size(), 1);
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].plan == nullptr) {
      return Status::InvalidArgument(StrFormat("spec %zu has no plan", i));
    }
    if (specs[i].class_id < 0 ||
        static_cast<size_t>(specs[i].class_id) >= num_classes) {
      return Status::InvalidArgument(
          StrFormat("spec %zu: class_id %d out of range", i,
                    specs[i].class_id));
    }
  }
  switch (arrivals_.kind) {
    case ArrivalProcess::Kind::kOpenLoop:
      if (!(arrivals_.rate_qps > 0.0)) {
        return Status::InvalidArgument("open loop needs rate_qps > 0");
      }
      break;
    case ArrivalProcess::Kind::kClosedLoop:
      if (arrivals_.num_clients < 1 || arrivals_.think_seconds < 0.0) {
        return Status::InvalidArgument(
            "closed loop needs num_clients >= 1 and think_seconds >= 0");
      }
      break;
  }
  return Status::OK();
}

void WorkloadScheduler::RunState::InitJobs(
    const std::vector<QuerySpec>& specs) {
  std::vector<SchedulerClass> classes = options_.classes;
  if (classes.empty()) classes.push_back(SchedulerClass{});
  class_limits_.reserve(classes.size());
  for (const SchedulerClass& c : classes) {
    class_limits_.push_back(DeriveQueryLimits(c.sla, c.baseline_seconds,
                                              c.memory_budget_bytes));
  }

  jobs_.resize(specs.size());
  report_.outcomes.resize(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    Job& job = jobs_[i];
    job.plan = specs[i].plan;
    job.class_id = specs[i].class_id;
    job.merge_key = specs[i].merge_key;
    BackoffPolicy bp = options_.retry_backoff;
    bp.max_retries = classes[static_cast<size_t>(job.class_id)].retry_budget;
    bp.jitter_seed = options_.seed;
    job.backoff = Backoff(bp, /*stream=*/static_cast<uint64_t>(i));
    report_.outcomes[i].class_id = job.class_id;
  }
}

void WorkloadScheduler::RunState::ScheduleInitialArrivals() {
  const double t0 = run_start_s_;
  if (arrivals_.kind == ArrivalProcess::Kind::kOpenLoop) {
    double t = t0;
    for (size_t i = 0; i < jobs_.size(); ++i) {
      t += rng_.Exponential(1.0 / arrivals_.rate_qps);
      jobs_[i].arrival_s = t;
      events_.Push(t, Event{Event::Kind::kArrival, i});
    }
    next_spec_ = jobs_.size();
    return;
  }
  const size_t initial =
      std::min(jobs_.size(), static_cast<size_t>(arrivals_.num_clients));
  for (size_t i = 0; i < initial; ++i) {
    jobs_[i].arrival_s = t0;
    events_.Push(t0, Event{Event::Kind::kArrival, i});
  }
  next_spec_ = initial;
}

Status WorkloadScheduler::RunState::DeliverDueEvents(double now) {
  while (!events_.empty() &&
         events_.next_due_seconds() <= now + kDueEpsilonS) {
    Event ev = events_.Pop();
    switch (ev.kind) {
      case Event::Kind::kArrival:
        ECODB_RETURN_NOT_OK(HandleArrival(ev.job, now));
        break;
      case Event::Kind::kRetry:
        HandleRetryWakeup(ev.job, ev, now);
        break;
    }
  }
  return Status::OK();
}

Status WorkloadScheduler::RunState::HandleArrival(size_t j, double now) {
  Job& job = jobs_[j];
  ++report_.submitted;

  if (!breaker_.AllowAdmission(now)) {
    ++report_.breaker_rejected;
    FinishShed(j, Status::Unavailable("circuit breaker open"), now);
    return Status::OK();
  }

  // Pressure climbs the ladder one rung per arrival (a burst of
  // simultaneous arrivals escalates once each), so the energy knobs are
  // spent before any availability is.
  if (!AtMaxLevel() &&
      static_cast<double>(queue_.size()) >=
          options_.degradation.high_watermark *
              static_cast<double>(options_.max_queue_depth)) {
    ECODB_RETURN_NOT_OK(Escalate());
  }

  // Shedding is the ladder's last rung: below the top level, pressure is
  // absorbed by QED batching and eco operating points instead (the queue
  // may stretch past its nominal bound while the ladder climbs).
  if (AtMaxLevel()) {
    const QueryLimits& lim = class_limits_[static_cast<size_t>(job.class_id)];
    if (lim.deadline_seconds > 0.0 && estimator_.HasEstimate()) {
      const double wait = estimator_.ProjectedWaitSeconds(
          queue_.size(), options_.worker_slots);
      if (wait >= lim.deadline_seconds) {
        ++report_.shed_projected_wait;
        FinishShed(j,
                   Status::Unavailable(StrFormat(
                       "projected wait %.3fs exceeds class deadline %.3fs",
                       wait, lim.deadline_seconds)),
                   now);
        return Status::OK();
      }
    }
    if (queue_.size() >= options_.max_queue_depth) {
      ++report_.shed_queue_full;
      FinishShed(j, Status::Unavailable("admission queue full"), now);
      return Status::OK();
    }
  } else if (queue_.size() >=
             options_.max_queue_depth * options_.hard_cap_multiplier) {
    ++report_.shed_queue_full;
    ++report_.sheds_below_max_level;
    FinishShed(j, Status::Unavailable("admission queue hard cap"), now);
    return Status::OK();
  }

  ++report_.admitted;
  job.admit_s = now;
  queue_.push_back(j);
  return Status::OK();
}

void WorkloadScheduler::RunState::HandleRetryWakeup(size_t j,
                                                    const Event& ev,
                                                    double now) {
  // A retry waking into an open breaker window defers to its end (the
  // query is already admitted; it is delayed, not rejected).
  if (breaker_.state(now) == CircuitBreaker::State::kOpen) {
    events_.Push(std::max(breaker_.open_until_seconds(), now + kDueEpsilonS),
                 ev);
    return;
  }
  queue_.push_back(j);  // bypasses the admission bound: already admitted
}

Status WorkloadScheduler::RunState::UpdateDegradation(double now) {
  (void)now;
  const double pressure = static_cast<double>(queue_.size()) /
                          static_cast<double>(options_.max_queue_depth);
  if (pressure >= options_.degradation.high_watermark && !AtMaxLevel()) {
    return Escalate();
  }
  if (pressure <= options_.degradation.low_watermark && level_ > 0) {
    return Deescalate();
  }
  return Status::OK();
}

Status WorkloadScheduler::RunState::Escalate() {
  ++level_;
  ++report_.escalations;
  report_.max_level_reached = std::max(report_.max_level_reached, level_);
  return ApplyLevel();
}

Status WorkloadScheduler::RunState::Deescalate() {
  --level_;
  ++report_.deescalations;
  return ApplyLevel();
}

Status WorkloadScheduler::RunState::ApplyLevel() {
  const DegradationOptions& deg = options_.degradation;
  const int qed_level = std::min(level_, deg.qed_levels);
  qed_.set_batch_size(qed_level <= 0 ? 1
                                     : deg.qed_base_batch << (qed_level - 1));

  const int eco_idx = level_ - deg.qed_levels;  // 1-based into eco_points
  const SystemSettings& want =
      eco_idx >= 1 ? deg.eco_points[static_cast<size_t>(eco_idx - 1)]
                   : stock_settings_;
  if (!(db_->settings() == want)) {
    ECODB_RETURN_NOT_OK(db_->ApplySettings(want));
    // In-flight queries must re-derive their cached cycle inflation or
    // they keep charging at the old operating point.
    for (RunningTask& rt : running_) rt.task->ctx()->RefreshSettings();
  }
  return Status::OK();
}

QueryLimits WorkloadScheduler::RunState::MergedLimits(
    const std::vector<size_t>& members, double now) const {
  // A merged batch shares its fate QED-style: every member completes at
  // the same instant, so the batch runs under the tightest member
  // deadline (anchored at `now`) and the pooled memory budget.
  QueryLimits out;
  double min_abs = std::numeric_limits<double>::infinity();
  uint64_t budget_sum = 0;
  bool all_budgeted = true;
  for (size_t j : members) {
    const Job& job = jobs_[j];
    const QueryLimits& lim =
        class_limits_[static_cast<size_t>(job.class_id)];
    if (lim.deadline_seconds > 0.0) {
      min_abs = std::min(min_abs, job.admit_s + lim.deadline_seconds);
    }
    if (lim.memory_budget_bytes == 0) {
      all_budgeted = false;
    } else {
      budget_sum += lim.memory_budget_bytes;
    }
  }
  if (std::isfinite(min_abs)) {
    out.deadline_seconds = std::max(min_abs - now, kDueEpsilonS);
  }
  if (all_budgeted) out.memory_budget_bytes = budget_sum;
  return out;
}

Result<bool> WorkloadScheduler::RunState::TryStartMergedTask(double now) {
  const int batch_target = qed_.batch_size();
  if (level_ < 1 || batch_target < 2) return false;

  // Collect up to batch_target mergeable queued jobs, front to back,
  // skipping duplicate merge keys: the split assigns each row to the
  // first member testing its value, so duplicates would starve the
  // later twin.
  std::vector<size_t> picked_pos;
  std::vector<int64_t> picked_keys;
  for (size_t qi = 0;
       qi < queue_.size() &&
       picked_pos.size() < static_cast<size_t>(batch_target);
       ++qi) {
    const Job& job = jobs_[queue_[qi]];
    if (job.merge_key < 0) continue;
    if (std::find(picked_keys.begin(), picked_keys.end(), job.merge_key) !=
        picked_keys.end()) {
      continue;
    }
    picked_pos.push_back(qi);
    picked_keys.push_back(job.merge_key);
  }
  if (picked_pos.size() < 2) return false;

  std::vector<size_t> members;
  members.reserve(picked_pos.size());
  for (size_t pos : picked_pos) members.push_back(queue_[pos]);
  for (size_t i = picked_pos.size(); i-- > 0;) {
    queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(picked_pos[i]));
  }

  for (size_t j : members) {
    ECODB_RETURN_NOT_OK(qed_.Submit(ClonePlan(*jobs_[j].plan)));
  }
  Result<MergedSelection> merged = qed_.MergeQueued();
  if (!merged.ok()) {
    // Shapes turned out incompatible: these jobs run plain from now on.
    // Put them back at the front in their original relative order.
    for (size_t i = members.size(); i-- > 0;) {
      jobs_[members[i]].merge_key = tpch::kNotMergeable;
      queue_.insert(queue_.begin(), members[i]);
    }
    return false;
  }

  RunningTask rt;
  rt.merged = std::make_unique<MergedSelection>(std::move(merged.value()));
  rt.members = std::move(members);
  rt.start_s = now;
  rt.pool_persistent_before = db_->buffer_pool()->stats().persistent_faults;
  rt.task = std::make_unique<QueryTask>(rt.merged->plan.get(),
                                        db_->MakeExecContext());
  rt.task->Govern(MergedLimits(rt.members, now), now);
  for (size_t j : rt.members) ++jobs_[j].attempts;
  running_.push_back(std::move(rt));
  ++report_.merged_batches;
  report_.merged_members += running_.back().members.size();
  return true;
}

void WorkloadScheduler::RunState::StartSingleTask(size_t j, double now) {
  Job& job = jobs_[j];
  ++job.attempts;
  RunningTask rt;
  rt.members = {j};
  rt.start_s = now;
  rt.pool_persistent_before = db_->buffer_pool()->stats().persistent_faults;
  rt.task = std::make_unique<QueryTask>(job.plan, db_->MakeExecContext());
  // Deadline anchored at admission: queue wait, interference and retry
  // backoff all count against the SLA.
  rt.task->Govern(class_limits_[static_cast<size_t>(job.class_id)],
                  job.admit_s);
  running_.push_back(std::move(rt));
}

Status WorkloadScheduler::RunState::FillWorkers(double now) {
  while (running_.size() < static_cast<size_t>(options_.worker_slots) &&
         !queue_.empty()) {
    ECODB_ASSIGN_OR_RETURN(bool merged, TryStartMergedTask(now));
    if (merged) continue;
    const size_t j = queue_.front();
    queue_.erase(queue_.begin());
    StartSingleTask(j, now);
  }
  return Status::OK();
}

void WorkloadScheduler::RunState::StepOneTask() {
  rr_ %= running_.size();
  const size_t slot = rr_;
  RunningTask& rt = running_[slot];
  const double wall_before = db_->machine()->ledger().wall_j;
  const State st = rt.task->Step();
  const double step_j = db_->machine()->ledger().wall_j - wall_before;
  const double share = step_j / static_cast<double>(rt.members.size());
  for (size_t j : rt.members) {
    report_.outcomes[j].attributed_wall_j += share;
  }
  switch (st) {
    case State::kCreated:
    case State::kRunning:
      ++rr_;  // still going; move on to the next slot
      return;
    case State::kDone:
      OnTaskDone(slot);
      return;
    case State::kFailed:
      OnTaskFailed(slot);
      return;
  }
}

void WorkloadScheduler::RunState::OnTaskDone(size_t slot) {
  RunningTask rt = std::move(running_[slot]);
  running_.erase(running_.begin() + static_cast<ptrdiff_t>(slot));

  if (rt.merged == nullptr) {
    const size_t j = rt.members.front();
    std::vector<Row> rows;
    if (options_.keep_rows) rows = rt.task->TakeResult().TakeRows();
    const double now = db_->machine()->NowSeconds();
    estimator_.Observe(now - rt.start_s);
    breaker_.RecordSuccess(now);
    FinishCompleted(j, std::move(rows), now, /*merged=*/false, 0.0);
    return;
  }

  // Merged batch: split the union result back per member, charging the
  // split ("application logic") cost to the task's context.
  const double wall_before = db_->machine()->ledger().wall_j;
  const ResultSet merged_result = rt.task->TakeResult();
  const std::vector<std::vector<uint32_t>> split =
      SplitMergedResult(*rt.merged, merged_result, rt.task->ctx());
  rt.task->ctx()->Flush();
  const double now = db_->machine()->NowSeconds();
  const double split_share =
      (db_->machine()->ledger().wall_j - wall_before) /
      static_cast<double>(rt.members.size());
  estimator_.Observe((now - rt.start_s) /
                     static_cast<double>(rt.members.size()));
  breaker_.RecordSuccess(now);
  for (size_t i = 0; i < rt.members.size(); ++i) {
    std::vector<Row> rows;
    if (options_.keep_rows) {
      rows.reserve(split[i].size());
      for (uint32_t r : split[i]) rows.push_back(merged_result.RowAt(r));
    }
    FinishCompleted(rt.members[i], std::move(rows), now, /*merged=*/true,
                    split_share);
  }
}

void WorkloadScheduler::RunState::OnTaskFailed(size_t slot) {
  RunningTask rt = std::move(running_[slot]);
  running_.erase(running_.begin() + static_cast<ptrdiff_t>(slot));
  const double now = db_->machine()->NowSeconds();
  const Status& st = rt.task->status();

  if (!st.IsHardwareFault()) {
    // Governor kills (deadline, budget, cancel) and planning errors are
    // final: retrying cannot help a query that is over its limits.
    for (size_t j : rt.members) FinishFailed(j, st, now);
    return;
  }

  // Hardware fault: the buffer pool already burned its own bounded
  // retries. A persistent-fault escalation feeds the breaker; either
  // way each member consults its own retry budget.
  const uint64_t persistent_delta =
      db_->buffer_pool()->stats().persistent_faults -
      rt.pool_persistent_before;
  if (persistent_delta > 0) {
    breaker_.RecordPersistentFailure(now);
  }
  for (size_t j : rt.members) {
    Job& job = jobs_[j];
    if (job.backoff.Exhausted()) {
      FinishFailed(j, st, now);
      continue;
    }
    const double delay = job.backoff.NextDelaySeconds();
    ++report_.retries;
    events_.Push(now + delay, Event{Event::Kind::kRetry, j});
  }
}

void WorkloadScheduler::RunState::FinishCompleted(size_t j,
                                                 std::vector<Row> rows,
                                                 double now, bool merged,
                                                 double split_share_j) {
  Job& job = jobs_[j];
  QueryOutcome& out = report_.outcomes[j];
  out.status = Status::OK();
  out.attempts = job.attempts;
  out.merged = merged;
  out.arrival_seconds = job.arrival_s;
  out.finish_seconds = now;
  out.latency_seconds = now - job.arrival_s;
  out.attributed_wall_j += split_share_j;
  out.rows = std::move(rows);
  ++report_.completed;
  job.terminal = true;
  ++terminal_count_;
  OnTerminal(now);
}

void WorkloadScheduler::RunState::FinishFailed(size_t j, const Status& status,
                                               double now) {
  Job& job = jobs_[j];
  QueryOutcome& out = report_.outcomes[j];
  out.status = status;
  out.attempts = job.attempts;
  out.arrival_seconds = job.arrival_s;
  out.finish_seconds = now;
  ++report_.failed;
  job.terminal = true;
  ++terminal_count_;
  OnTerminal(now);
}

void WorkloadScheduler::RunState::FinishShed(size_t j, const Status& status,
                                             double now) {
  Job& job = jobs_[j];
  QueryOutcome& out = report_.outcomes[j];
  out.status = status;
  out.attempts = 0;
  out.arrival_seconds = job.arrival_s;
  out.finish_seconds = now;
  job.terminal = true;
  ++terminal_count_;
  OnTerminal(now);
}

void WorkloadScheduler::RunState::OnTerminal(double now) {
  // Closed loop: a client that just got its answer (or a rejection)
  // thinks, then submits the next pending spec.
  if (arrivals_.kind != ArrivalProcess::Kind::kClosedLoop) return;
  if (next_spec_ >= jobs_.size()) return;
  const size_t j = next_spec_++;
  const double at = now + rng_.Exponential(arrivals_.think_seconds);
  jobs_[j].arrival_s = at;
  events_.Push(at, Event{Event::Kind::kArrival, j});
}

Result<ScheduleReport> WorkloadScheduler::RunState::Run(
    const std::vector<QuerySpec>& specs) {
  ECODB_RETURN_NOT_OK(Validate(specs));
  stock_settings_ = db_->settings();
  run_start_s_ = db_->machine()->NowSeconds();
  run_start_wall_j_ = db_->machine()->ledger().wall_j;
  InitJobs(specs);
  ScheduleInitialArrivals();

  while (terminal_count_ < jobs_.size()) {
    const double now = db_->machine()->NowSeconds();
    ECODB_RETURN_NOT_OK(DeliverDueEvents(now));
    ECODB_RETURN_NOT_OK(UpdateDegradation(now));
    ECODB_RETURN_NOT_OK(FillWorkers(db_->machine()->NowSeconds()));
    if (running_.empty()) {
      if (terminal_count_ >= jobs_.size()) break;
      if (events_.empty()) {
        return Status::Internal(
            "scheduler stalled: outstanding queries but no runnable work "
            "and no pending events");
      }
      const double dt =
          events_.next_due_seconds() - db_->machine()->NowSeconds();
      if (dt > 0.0) db_->machine()->Idle(dt);
      continue;
    }
    StepOneTask();
  }

  // Finalize: latency distribution over completed queries, system-level
  // energy over the makespan (idle and shed overhead included — that is
  // what the wall meter saw).
  std::vector<double> latencies;
  latencies.reserve(report_.completed);
  double latency_sum = 0.0;
  for (const QueryOutcome& out : report_.outcomes) {
    if (!out.status.ok()) continue;
    latencies.push_back(out.latency_seconds);
    latency_sum += out.latency_seconds;
  }
  report_.p50_latency_s = Percentile(latencies, 50);
  report_.p95_latency_s = Percentile(latencies, 95);
  report_.p99_latency_s = Percentile(latencies, 99);
  if (!latencies.empty()) {
    report_.mean_latency_s = latency_sum / static_cast<double>(latencies.size());
  }
  report_.makespan_seconds = db_->machine()->NowSeconds() - run_start_s_;
  report_.total_wall_j =
      db_->machine()->ledger().wall_j - run_start_wall_j_;
  if (report_.completed > 0) {
    report_.wall_j_per_completed =
        report_.total_wall_j / static_cast<double>(report_.completed);
  }
  report_.breaker_opens = breaker_.opens();
  return std::move(report_);
}

WorkloadScheduler::WorkloadScheduler(Database* db,
                                     const SchedulerOptions& options)
    : db_(db), options_(options) {}

Result<ScheduleReport> WorkloadScheduler::Run(
    const std::vector<QuerySpec>& specs, const ArrivalProcess& arrivals) {
  // The ladder may leave an eco operating point applied (or an error path
  // may); always restore the pre-run settings.
  const SystemSettings before = db_->settings();
  RunState state(db_, options_, arrivals);
  Result<ScheduleReport> report = state.Run(specs);
  Status restore = db_->ApplySettings(before);
  if (report.ok() && !restore.ok()) return restore;
  return report;
}

std::vector<QuerySpec> WorkloadScheduler::SpecsFromWorkload(
    const tpch::Workload& workload, int num_classes) {
  std::vector<QuerySpec> specs;
  specs.reserve(workload.queries.size());
  for (size_t i = 0; i < workload.queries.size(); ++i) {
    QuerySpec spec;
    spec.plan = workload.queries[i].get();
    spec.class_id =
        num_classes <= 1 ? 0 : static_cast<int>(i % static_cast<size_t>(
                                                        num_classes));
    spec.merge_key =
        i < workload.merge_keys.size() ? workload.merge_keys[i]
                                       : tpch::kNotMergeable;
    specs.push_back(spec);
  }
  return specs;
}

}  // namespace ecodb
