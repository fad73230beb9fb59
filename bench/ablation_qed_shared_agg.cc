// Ablation: QED generalized to aggregation queries via shared scans —
// the paper's claim that "generalization of our method to more complex
// workloads (beyond simple select queries) is feasible" (Section 4).
// A batch of Q6-shaped revenue queries with different date windows is
// evaluated in one pass over lineitem.

#include "bench_util.h"

using namespace ecodb;

int main(int argc, char** argv) {
  double sf = bench::ScaleFactorArg(argc, argv, 0.02);
  bench::Header("Ablation: QED shared-scan aggregation (Q6 batches)",
                "extends Lang & Patel, CIDR 2009, Section 4");
  std::printf("scale factor: %.3f\n\n", sf);

  auto db = bench::MakeDb(EngineProfile::MySqlMemory(), sf);
  Machine* machine = db->machine();

  // One Q6 per quarter of 1994-1995: non-overlapping windows, equal work.
  auto make_batch = [&](int n) {
    std::vector<PlanNodePtr> plans;
    static const char* kQuarters[] = {
        "1994-01-01", "1994-04-01", "1994-07-01", "1994-10-01",
        "1995-01-01", "1995-04-01", "1995-07-01", "1995-10-01",
        "1996-01-01"};
    for (int i = 0; i < n; ++i) {
      tpch::Q6Params p;
      p.date_lo = kQuarters[i];
      p.date_hi = kQuarters[i + 1];
      plans.push_back(db->PlanSql(tpch::Q6Sql(p)).value());
    }
    return plans;
  };

  TablePrinter table({"batch", "seq time (s)", "shared time (s)",
                      "seq CPU J", "shared CPU J", "energy ratio",
                      "avg resp ratio", "results ok"});
  bool all_match = true;
  for (int n : {2, 4, 8}) {
    auto plans = make_batch(n);

    // Sequential baseline (response time of query i = completion offset).
    machine->ResetMeters();
    double t0 = machine->NowSeconds();
    std::vector<std::vector<Row>> seq_results;
    double seq_resp_sum = 0;
    for (const PlanNodePtr& p : plans) {
      auto r = db->ExecutePlanQuery(*p);
      if (!r.ok()) return 1;
      seq_results.push_back(r.value().TakeRows());
      seq_resp_sum += machine->NowSeconds() - t0;
    }
    double seq_s = machine->NowSeconds() - t0;
    double seq_j = machine->ledger().cpu_j;

    // Shared scan.
    std::vector<const PlanNode*> members;
    for (const auto& p : plans) members.push_back(p.get());
    auto batch = AnalyzeSharedAggBatch(members);
    if (!batch.ok()) {
      std::fprintf(stderr, "%s\n", batch.status().ToString().c_str());
      return 1;
    }
    machine->ResetMeters();
    t0 = machine->NowSeconds();
    auto ctx = db->MakeExecContext();
    auto shared = RunSharedScanAggregates(batch.value(), ctx.get());
    if (!shared.ok()) return 1;
    double shared_s = machine->NowSeconds() - t0;
    double shared_j = machine->ledger().cpu_j;

    bool ok = true;
    for (int i = 0; i < n; ++i) {
      const Row& a = shared.value()[static_cast<size_t>(i)][0];
      const Row& b = seq_results[static_cast<size_t>(i)][0];
      for (size_t c = 0; c < a.size(); ++c) {
        if (a[c].Compare(b[c]) != 0) ok = false;
      }
    }
    all_match = all_match && ok;

    table.AddRow({StrFormat("%d", n), bench::F(seq_s), bench::F(shared_s),
                  bench::F(seq_j, 2), bench::F(shared_j, 2),
                  bench::F(shared_j / seq_j),
                  bench::F(shared_s / (seq_resp_sum / n)),
                  ok ? "yes" : "NO"});
  }
  table.Print();

  std::printf(
      "\nAggregation batches amortize better than Figure 6's selections: "
      "there is no\nresult-split cost and no per-tuple output, so one scan "
      "serves N queries at\nnear 1/N scan energy plus per-member predicate "
      "work.\n");
  if (!all_match) {
    std::fprintf(stderr,
                 "shared-scan results differ from sequential ones\n");
    return 1;
  }
  return 0;
}
