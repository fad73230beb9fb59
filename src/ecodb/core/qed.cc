#include "ecodb/core/qed.h"

#include <algorithm>

#include "ecodb/util/strings.h"

namespace ecodb {

namespace {

/// True when `members` holds exactly `expect`'s rows, in order, cell for
/// cell under CompareCellViews (Value::Compare).
bool SplitEquals(const ResultSet& merged, const std::vector<uint32_t>& members,
                 const ResultSet& expect) {
  if (members.size() != expect.num_rows() ||
      merged.num_cols() != expect.num_cols()) {
    return false;
  }
  for (size_t i = 0; i < members.size(); ++i) {
    for (int c = 0; c < expect.num_cols(); ++c) {
      if (CompareCellViews(merged.At(members[i], c), expect.At(i, c)) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

Result<QedBatchReport> QedScheduler::RunComparison(
    const tpch::Workload& workload) {
  int n = options_.batch_size;
  if (n < 1 || static_cast<size_t>(n) > workload.queries.size()) {
    return Status::InvalidArgument(
        StrFormat("batch size %d exceeds workload size %zu", n,
                  workload.queries.size()));
  }
  Machine* machine = db_->machine();
  QedBatchReport report;
  report.batch_size = n;

  // --- Sequential baseline: queries issued back to back. ---
  machine->ResetMeters();
  double t0 = machine->NowSeconds();
  std::vector<ResultSet> seq_results;
  for (int i = 0; i < n; ++i) {
    ECODB_ASSIGN_OR_RETURN(QueryResult r,
                           db_->ExecutePlanQuery(*workload.queries[i]));
    report.seq_response_s.push_back(machine->NowSeconds() - t0);
    seq_results.push_back(std::move(r.result));
  }
  report.seq_total_s = machine->NowSeconds() - t0;
  report.seq_cpu_j = machine->ledger().cpu_j;
  double sum = 0;
  for (double t : report.seq_response_s) sum += t;
  report.seq_avg_response_s = sum / n;

  // --- QED: merge, run once, split. Queue build-up time not counted. ---
  std::vector<const PlanNode*> members;
  for (int i = 0; i < n; ++i) members.push_back(workload.queries[i].get());
  ECODB_ASSIGN_OR_RETURN(MergedSelection merged,
                         MergeSelections(members, options_.hashed_in_list));

  machine->ResetMeters();
  t0 = machine->NowSeconds();
  auto ctx = db_->MakeExecContext();
  ECODB_ASSIGN_OR_RETURN(ResultSet merged_result,
                         ExecutePlanColumnar(*merged.plan, ctx.get()));
  const std::vector<std::vector<uint32_t>> split =
      SplitMergedResult(merged, merged_result, ctx.get());
  report.qed_total_s = machine->NowSeconds() - t0;
  report.qed_cpu_j = machine->ledger().cpu_j;
  report.qed_avg_response_s = report.qed_total_s;

  // --- Correctness: split results must equal sequential results. ---
  report.results_match = true;
  for (size_t i = 0; i < seq_results.size(); ++i) {
    if (!SplitEquals(merged_result, split[i], seq_results[i])) {
      report.results_match = false;
      break;
    }
  }

  // --- Ratios per the paper's Figure 6 axes. ---
  if (report.seq_cpu_j > 0) {
    report.energy_ratio = report.qed_cpu_j / report.seq_cpu_j;
  }
  if (report.seq_avg_response_s > 0) {
    report.response_ratio =
        report.qed_avg_response_s / report.seq_avg_response_s;
  }
  report.edp_ratio = report.energy_ratio * report.response_ratio;

  if (!report.seq_response_s.empty()) {
    report.first_query_degradation =
        report.qed_total_s / report.seq_response_s.front();
    report.last_query_degradation =
        report.qed_total_s / report.seq_response_s.back();
  }
  return report;
}

Status QedScheduler::Submit(PlanNodePtr plan) {
  queue_.push_back(std::move(plan));
  return Status::OK();
}

Result<MergedSelection> QedScheduler::MergeQueued() {
  if (queue_.empty()) {
    return Status::InvalidArgument("QED queue is empty");
  }
  std::vector<const PlanNode*> members;
  members.reserve(queue_.size());
  for (const PlanNodePtr& p : queue_) members.push_back(p.get());
  Result<MergedSelection> merged =
      MergeSelections(members, options_.hashed_in_list);
  queue_.clear();
  return merged;
}

Result<QedScheduler::FlushResult> QedScheduler::Flush() {
  if (queue_.empty()) {
    return Status::InvalidArgument("QED queue is empty");
  }
  std::vector<const PlanNode*> members;
  members.reserve(queue_.size());
  for (const PlanNodePtr& p : queue_) members.push_back(p.get());
  ECODB_ASSIGN_OR_RETURN(MergedSelection merged,
                         MergeSelections(members, options_.hashed_in_list));

  Machine* machine = db_->machine();
  EnergyLedger before = machine->ledger();
  double t0 = machine->NowSeconds();
  auto ctx = db_->MakeExecContext();
  ECODB_ASSIGN_OR_RETURN(ResultSet merged_result,
                         ExecutePlanColumnar(*merged.plan, ctx.get()));

  FlushResult out;
  for (const std::vector<uint32_t>& member :
       SplitMergedResult(merged, merged_result, ctx.get())) {
    std::vector<Row>& rows = out.per_query_rows.emplace_back();
    rows.reserve(member.size());
    for (uint32_t r : member) rows.push_back(merged_result.RowAt(r));
  }
  out.total_s = machine->NowSeconds() - t0;
  out.cpu_j = machine->ledger().cpu_j - before.cpu_j;
  queue_.clear();
  return out;
}

QedAnalyticalModel QedAnalyticalModel::Fit(double single_query_s, int n1,
                                           double t1, int n2, double t2) {
  QedAnalyticalModel m;
  m.single_query_s = single_query_s;
  if (n1 != n2) {
    m.merged_slope_s = (t2 - t1) / static_cast<double>(n2 - n1);
    m.merged_base_s = t1 - m.merged_slope_s * n1;
  } else {
    m.merged_base_s = t1;
  }
  return m;
}

}  // namespace ecodb
