// QED batching: the admission-control queue workflow. Selection queries
// arrive; the scheduler delays them until the batch threshold, merges them
// into one disjunctive query, runs it, and splits the results — trading
// average response time for per-query energy (paper Section 4).
//
//   ./build/examples/qed_batching

#include <cstdio>

#include "ecodb/ecodb.h"
#include "ecodb/util/strings.h"

using namespace ecodb;

int main() {
  DatabaseOptions options;
  options.profile = EngineProfile::MySqlMemory();
  Database db(options);
  tpch::DbGenOptions gen;
  gen.scale_factor = 0.01;
  if (!db.LoadTpch(gen).ok()) return 1;

  // The queue workflow: submit 12 arriving queries, flush at threshold 6.
  QedScheduler scheduler(&db, QedOptions{6, false});
  int flushed_batches = 0;
  for (int i = 0; i < 12; ++i) {
    int64_t quantity = 1 + (i * 7) % 50;  // distinct predicate values
    auto plan = db.PlanSql(tpch::SelectionSql(quantity));
    if (!plan.ok()) return 1;
    (void)scheduler.Submit(std::move(plan).value());
    std::printf("submitted SELECT ... WHERE l_quantity = %lld (queue=%d)\n",
                static_cast<long long>(quantity), scheduler.pending());
    if (scheduler.ShouldFlush()) {
      auto flush = scheduler.Flush();
      if (!flush.ok()) return 1;
      ++flushed_batches;
      std::printf(
          "  -> flushed batch %d: %zu result sets, %.4f s, %.3f J CPU\n",
          flushed_batches, flush.value().per_query_rows.size(),
          flush.value().total_s, flush.value().cpu_j);
    }
  }

  // The measured trade-off at several batch sizes (Figure 6 view).
  auto workload = tpch::MakeSelectionWorkload(*db.catalog(), 50, 7);
  if (!workload.ok()) return 1;
  std::printf("\nenergy/response trade-off vs sequential execution:\n");
  TablePrinter table(
      {"batch", "energy ratio", "avg response ratio", "EDP ratio"});
  for (int n : {10, 25, 50}) {
    QedScheduler qed(&db, QedOptions{n, false});
    auto report = qed.RunComparison(workload.value());
    if (!report.ok()) return 1;
    table.AddRow({StrFormat("%d", n),
                  StrFormat("%.3f", report.value().energy_ratio),
                  StrFormat("%.3f", report.value().response_ratio),
                  StrFormat("%.3f", report.value().edp_ratio)});
  }
  table.Print();

  // The analytical model's view of per-query degradation.
  QedScheduler qed(&db, QedOptions{50, false});
  auto rep = qed.RunComparison(workload.value());
  if (!rep.ok()) return 1;
  double t_q = rep.value().seq_response_s.front();
  auto model = QedAnalyticalModel::Fit(t_q, 25, rep.value().qed_total_s / 2,
                                       50, rep.value().qed_total_s);
  std::printf(
      "\nanalytical model: first query degrades %.1fx, median %.1fx, last "
      "%.2fx\n(degradation is most severe for the first query in the "
      "batch — Section 4)\n",
      model.QueryDegradation(1, 50), model.QueryDegradation(25, 50),
      model.QueryDegradation(50, 50));
  return 0;
}
