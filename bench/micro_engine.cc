// Engine micro-benchmarks: host wall-clock performance of the simulator
// itself (not simulated time) on a fixed set of plans.
//
// Emits machine-readable JSON on stdout so successive changes can track
// the perf trajectory (redirect to BENCH_micro_engine.json). Per
// benchmark: host rows/sec through the pipeline, host seconds per query,
// and the *simulated* seconds and joules per query.
//
// Usage: micro_engine [--sf=0.02]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "ecodb/ecodb.h"

namespace ecodb::bench {
namespace {

struct RunResult {
  double wall_seconds_per_iter = 0;
  double rows_per_sec = 0;
  uint64_t rows_scanned = 0;
  size_t result_rows = 0;
  double sim_seconds = 0;
  double sim_joules = 0;
};

/// Field lookup that dies loudly on a schema mismatch (these are fixed
/// TPC-H plans; a missing field is a build bug, not a runtime state).
int FieldIndexOrDie(const Schema& s, const char* name) {
  int idx = s.FindField(name);
  if (idx < 0) {
    std::fprintf(stderr, "field not found: %s\n", name);
    std::exit(1);
  }
  return idx;
}

ExprPtr FieldCol(const Schema& s, const char* name) {
  int idx = FieldIndexOrDie(s, name);
  return Col(idx, s.field(idx).type, name);
}

/// Join-heavy microbench: orders (one-year date filter) |x| lineitem on
/// orderkey, then a global aggregate so the timing isolates hash build,
/// batch-at-a-time probe and match emission rather than result
/// materialization. ~14% of probe rows match, the selective-join shape
/// where boxing only matched probe positions pays off.
Result<PlanNodePtr> BuildJoinOrdersLineitem(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr orders, MakeScan(catalog, "orders"));
  ExprPtr odate_col = FieldCol(orders->output_schema, "o_orderdate");
  PlanNodePtr filtered = MakeFilter(
      std::move(orders),
      And({Cmp(CompareOp::kGe, odate_col, LitDate("1994-01-01")),
           Cmp(CompareOp::kLt, odate_col, LitDate("1995-01-01"))}));
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr lineitem, MakeScan(catalog, "lineitem"));
  int ok_build = FieldIndexOrDie(filtered->output_schema, "o_orderkey");
  int ok_probe = FieldIndexOrDie(lineitem->output_schema, "l_orderkey");
  PlanNodePtr joined = MakeHashJoin(std::move(filtered), std::move(lineitem),
                                    {ok_build}, {ok_probe});
  AggSpec sum;
  sum.kind = AggSpec::Kind::kSum;
  sum.arg = FieldCol(joined->output_schema, "l_extendedprice");
  sum.name = "revenue";
  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  return MakeAggregate(std::move(joined), {}, {sum, cnt});
}

/// Sort-dominated bench: scan(lineitem) -> ORDER BY (l_shipdate desc,
/// l_orderkey) with full-width output. Isolates the columnar SortOp
/// (typed input columns, index sort over unboxed keys, lane emission)
/// plus the columnar ResultSet drain; before PR 4 this path boxed every
/// tuple twice (sort materialization + result materialization).
Result<PlanNodePtr> BuildOrderByLineitem(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr scan, MakeScan(catalog, "lineitem"));
  const Schema& s = scan->output_schema;
  std::vector<SortKey> keys;
  keys.push_back(SortKey{FieldCol(s, "l_shipdate"), /*ascending=*/false});
  keys.push_back(SortKey{FieldCol(s, "l_orderkey"), /*ascending=*/true});
  return MakeSort(std::move(scan), std::move(keys));
}

/// Limit-topped aggregate: scan(lineitem) -> group by l_orderkey (many
/// groups) -> SUM/COUNT -> LIMIT 100. Isolates the columnar HashAgg
/// emission + truncating batched LimitOp: before PR 5 the aggregate
/// boxed every group into result Rows and the limit row-pulled them.
Result<PlanNodePtr> BuildLimitOverAgg(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr scan, MakeScan(catalog, "lineitem"));
  const Schema& s = scan->output_schema;
  AggSpec revenue;
  revenue.kind = AggSpec::Kind::kSum;
  revenue.arg = FieldCol(s, "l_extendedprice");
  revenue.name = "revenue";
  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  PlanNodePtr agg = MakeAggregate(std::move(scan),
                                  {FieldCol(s, "l_orderkey")},
                                  {revenue, cnt});
  return MakeLimit(std::move(agg), 100);
}

/// String-heavy group-by: scan(lineitem) -> group by (l_shipmode,
/// l_returnflag, l_linestatus) -> SUM/COUNT/MIN(l_shipinstruct).
/// Exercises unboxed string group-key hashing, the string MIN
/// accumulator, columnar string-key emission and the result-string
/// dedup/handoff path.
Result<PlanNodePtr> BuildGroupByStrings(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr scan, MakeScan(catalog, "lineitem"));
  const Schema& s = scan->output_schema;
  AggSpec sum;
  sum.kind = AggSpec::Kind::kSum;
  sum.arg = FieldCol(s, "l_quantity");
  sum.name = "qty";
  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  AggSpec mn;
  mn.kind = AggSpec::Kind::kMin;
  mn.arg = FieldCol(s, "l_shipinstruct");
  mn.name = "min_instruct";
  return MakeAggregate(std::move(scan),
                       {FieldCol(s, "l_shipmode"), FieldCol(s, "l_returnflag"),
                        FieldCol(s, "l_linestatus")},
                       {sum, cnt, mn});
}

/// Dict-predicate filter bench: scan(lineitem) -> l_shipmode IN
/// ('AIR','RAIL','SHIP') AND l_returnflag = 'R' -> global SUM/COUNT.
/// Both predicates resolve against dictionary-encoded columns, so the
/// batch engine translates them to int32 code comparisons (SIMD
/// CompareI32LitMask) instead of per-row byte compares.
Result<PlanNodePtr> BuildDictFilterStrings(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr scan, MakeScan(catalog, "lineitem"));
  const Schema& s = scan->output_schema;
  std::vector<Value> modes;
  modes.push_back(Value::Str("AIR"));
  modes.push_back(Value::Str("RAIL"));
  modes.push_back(Value::Str("SHIP"));
  PlanNodePtr filtered = MakeFilter(
      std::move(scan),
      And({InList(FieldCol(s, "l_shipmode"), std::move(modes)),
           Cmp(CompareOp::kEq, FieldCol(s, "l_returnflag"), LitStr("R"))}));
  AggSpec sum;
  sum.kind = AggSpec::Kind::kSum;
  sum.arg = FieldCol(s, "l_extendedprice");
  sum.name = "revenue";
  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  return MakeAggregate(std::move(filtered), {}, {sum, cnt});
}

/// Dict-key join bench: lineitem (1994 shipdates) self-joined to lineitem
/// on (l_orderkey, l_shipmode), then a global aggregate. The string half
/// of the composite key hashes and compares through dictionary codes on
/// both the build and probe sides; matches are bounded by lines-per-order
/// so the join output stays proportional to the probe input.
Result<PlanNodePtr> BuildDictJoinStrings(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr build, MakeScan(catalog, "lineitem"));
  ExprPtr sdate = FieldCol(build->output_schema, "l_shipdate");
  PlanNodePtr filtered = MakeFilter(
      std::move(build),
      And({Cmp(CompareOp::kGe, sdate, LitDate("1994-01-01")),
           Cmp(CompareOp::kLt, sdate, LitDate("1995-01-01"))}));
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr probe, MakeScan(catalog, "lineitem"));
  int bk_ok = FieldIndexOrDie(filtered->output_schema, "l_orderkey");
  int bk_sm = FieldIndexOrDie(filtered->output_schema, "l_shipmode");
  int pk_ok = FieldIndexOrDie(probe->output_schema, "l_orderkey");
  int pk_sm = FieldIndexOrDie(probe->output_schema, "l_shipmode");
  PlanNodePtr joined = MakeHashJoin(std::move(filtered), std::move(probe),
                                    {bk_ok, bk_sm}, {pk_ok, pk_sm});
  AggSpec sum;
  sum.kind = AggSpec::Kind::kSum;
  sum.arg = FieldCol(joined->output_schema, "l_quantity");
  sum.name = "qty";
  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  return MakeAggregate(std::move(joined), {}, {sum, cnt});
}

/// Builds the acceptance pipeline: scan(lineitem) -> filter -> group-by
/// aggregate, the shape whose per-tuple interpretation overhead the batch
/// engine amortizes.
Result<PlanNodePtr> BuildScanFilterAgg(const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr scan, MakeScan(catalog, "lineitem"));
  const Schema& s = scan->output_schema;
  ExprPtr qty = FieldCol(s, "l_quantity");
  ExprPtr price = FieldCol(s, "l_extendedprice");
  ExprPtr disc = FieldCol(s, "l_discount");
  ExprPtr flag = FieldCol(s, "l_returnflag");
  PlanNodePtr filtered = MakeFilter(
      std::move(scan), Cmp(CompareOp::kLt, qty, LitInt(25)));
  AggSpec revenue;
  revenue.kind = AggSpec::Kind::kSum;
  revenue.arg = Arith(ArithOp::kMul, price,
                      Arith(ArithOp::kSub, LitDbl(1.0), disc));
  revenue.name = "revenue";
  AggSpec cnt;
  cnt.kind = AggSpec::Kind::kCount;
  cnt.arg = nullptr;
  cnt.name = "n";
  return MakeAggregate(std::move(filtered), {flag}, {revenue, cnt});
}

RunResult RunPlan(Database* db, const PlanNode& plan) {
  // Warm once, then time iterations until we have a stable best-of run.
  RunResult out;
  double best = 1e100;
  const int kMinIters = 3;
  const double kMinTotalSeconds = 0.25;
  double total = 0;
  int iters = 0;
  while (iters < kMinIters || total < kMinTotalSeconds) {
    auto t0 = std::chrono::steady_clock::now();
    auto res = db->ExecutePlanQuery(plan);
    auto t1 = std::chrono::steady_clock::now();
    if (!res.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   res.status().ToString().c_str());
      std::exit(1);
    }
    double wall = std::chrono::duration<double>(t1 - t0).count();
    total += wall;
    ++iters;
    if (wall < best) {
      best = wall;
      out.rows_scanned = res.value().exec_stats.tuples_scanned;
      out.result_rows = res.value().num_rows();
      out.sim_seconds = res.value().seconds;
      out.sim_joules = res.value().wall_joules;
    }
    if (iters > 200) break;
  }
  out.wall_seconds_per_iter = best;
  out.rows_per_sec =
      best > 0 ? static_cast<double>(out.rows_scanned) / best : 0;
  return out;
}

/// Times a host-side closure (no simulated execution): best-of wall
/// seconds per iteration. The closure is sampled in inner batches sized
/// so each sample is well above clock resolution/overhead (planner ops
/// run in the microsecond range), and sampling continues until the same
/// 0.25s budget as RunPlan is spent.
template <typename Fn>
double TimeHostOp(Fn&& fn) {
  // Calibrate the inner-batch size: target ~2ms per sample.
  auto sample = [&](int calls) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < calls; ++i) fn();
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };
  int batch = 1;
  double wall = sample(1);
  while (wall < 2e-3 && batch < (1 << 20)) {
    batch *= 2;
    wall = sample(batch);
  }
  double best = wall / batch;
  const int kMinSamples = 3;
  const double kMinTotalSeconds = 0.25;
  double total = wall;
  for (int s = 1; s < kMinSamples || total < kMinTotalSeconds; ++s) {
    wall = sample(batch);
    total += wall;
    if (wall / batch < best) best = wall / batch;
    if (s > 500) break;
  }
  return best;
}

void EmitBench(const char* name, const RunResult& r, bool trailing_comma) {
  std::printf(
      "    {\"name\": \"%s\", "
      "\"wall_seconds_per_iter\": %.6e, \"rows_per_sec\": %.6e, "
      "\"rows_scanned\": %llu, \"result_rows\": %zu, "
      "\"sim_seconds\": %.9e, \"sim_joules_per_query\": %.9e}%s\n",
      name, r.wall_seconds_per_iter, r.rows_per_sec,
      static_cast<unsigned long long>(r.rows_scanned), r.result_rows,
      r.sim_seconds, r.sim_joules, trailing_comma ? "," : "");
}

int Main(int argc, char** argv) {
  double sf = ScaleFactorArg(argc, argv, 0.02);

  DatabaseOptions batch_opt;
  batch_opt.profile = EngineProfile::MySqlMemory();
  Database batch_db(batch_opt);
  tpch::DbGenOptions gen;
  gen.scale_factor = sf;
  if (!batch_db.LoadTpch(gen).ok()) {
    std::fprintf(stderr, "TPC-H load failed\n");
    return 1;
  }

  struct NamedPlan {
    std::string name;
    PlanNodePtr plan;
  };
  std::vector<NamedPlan> plans;
  auto add = [&](const std::string& name,
                 Result<PlanNodePtr> (*builder)(const Catalog&)) {
    auto plan = builder(*batch_db.catalog());
    if (!plan.ok()) {
      std::fprintf(stderr, "plan build failed for %s\n", name.c_str());
      std::exit(1);
    }
    plans.push_back(NamedPlan{name, std::move(plan).value()});
  };
  // The TPC-H queries as the SQL planner plans them (Q3's and Q5's join
  // inputs projected to the columns the query reads).
  auto add_sql = [&](const std::string& name, const std::string& sql) {
    auto plan = batch_db.PlanSql(sql);
    if (!plan.ok()) {
      std::fprintf(stderr, "plan build failed for %s: %s\n", name.c_str(),
                   plan.status().ToString().c_str());
      std::exit(1);
    }
    plans.push_back(NamedPlan{name, std::move(plan).value()});
  };
  add("scan_filter_agg", &BuildScanFilterAgg);
  add("scan_lineitem", [](const Catalog& c) {
    return MakeScan(c, "lineitem");
  });
  add_sql("selection_q2pct", tpch::SelectionSql(24));
  add("join_orders_lineitem", &BuildJoinOrdersLineitem);
  add("order_by_lineitem", &BuildOrderByLineitem);
  add("limit_over_agg", &BuildLimitOverAgg);
  add("group_by_strings", &BuildGroupByStrings);
  add("dict_filter_strings", &BuildDictFilterStrings);
  add("dict_join_strings", &BuildDictJoinStrings);
  add_sql("tpch_q1", tpch::Q1Sql("1998-09-02"));
  add_sql("sql_q3", tpch::Q3Sql(tpch::Q3Params{}));
  add_sql("sql_q5", tpch::Q5Sql(tpch::Q5Params{}));
  add_sql("tpch_q6", tpch::Q6Sql(tpch::Q6Params{}));

  std::printf("{\n  \"bench\": \"micro_engine\",\n  \"sf\": %g,\n", sf);
  std::printf("  \"batch_rows\": %zu,\n",
              static_cast<size_t>(RowBatch::kDefaultBatchRows));
  std::printf("  \"host_cpus\": %u,\n", std::thread::hardware_concurrency());
  std::printf("  \"benchmarks\": [\n");
  std::vector<std::pair<std::string, double>> batch_walls;
  for (size_t i = 0; i < plans.size(); ++i) {
    RunResult r = RunPlan(&batch_db, *plans[i].plan);
    EmitBench(plans[i].name.c_str(), r, i + 1 < plans.size());
    batch_walls.emplace_back(plans[i].name, r.wall_seconds_per_iter);
  }
  std::printf("  ],\n");

  // Morsel-parallel workers sweep: the same plans on the parallel engine
  // at increasing worker counts. Wall time is host time; the simulated
  // metrics are replayed deterministically and must agree with the
  // sequential run (the parity suite enforces it). One database
  // is reused across worker counts — exec_workers is a per-query knob.
  //
  // Two speedups are reported per point. "speedup_vs_batch" is host wall
  // time against the sequential run above, and depends on the machine
  // running this bench (on a single-CPU
  // host it cannot exceed 1 for any implementation — see "host_cpus" in
  // the header). "sim_core_speedup" is the simulator's own concurrency
  // view: after one run with fresh core ledgers, the sum of per-core busy
  // seconds (the work one core would serialize) over the phase makespan
  // (the slowest core). It is deterministic, host-independent, and capped
  // by the simulated machine's core count.
  DatabaseOptions par_opt;
  par_opt.profile = EngineProfile::MySqlMemory();
  Database par_db(par_opt);
  if (!par_db.LoadTpch(gen).ok()) {
    std::fprintf(stderr, "TPC-H load failed (parallel sweep)\n");
    return 1;
  }
  const char* kSweepNames[] = {"scan_filter_agg",   "tpch_q1",
                               "sql_q3",            "sql_q5",
                               "order_by_lineitem", "group_by_strings"};
  const int kWorkerCounts[] = {1, 2, 4, 8};
  auto batch_wall_of = [&](const std::string& name) {
    for (const auto& bw : batch_walls) {
      if (bw.first == name) return bw.second;
    }
    return 0.0;
  };
  auto build_sweep_plan = [&](const std::string& name) -> Result<PlanNodePtr> {
    if (name == "scan_filter_agg") return BuildScanFilterAgg(*par_db.catalog());
    if (name == "tpch_q1") return par_db.PlanSql(tpch::Q1Sql("1998-09-02"));
    if (name == "sql_q3") return par_db.PlanSql(tpch::Q3Sql(tpch::Q3Params{}));
    if (name == "sql_q5") return par_db.PlanSql(tpch::Q5Sql(tpch::Q5Params{}));
    if (name == "order_by_lineitem")
      return BuildOrderByLineitem(*par_db.catalog());
    return BuildGroupByStrings(*par_db.catalog());
  };
  std::vector<std::pair<std::string, double>> par_speedups;
  std::printf("  \"parallel_benchmarks\": [\n");
  for (size_t ni = 0; ni < std::size(kSweepNames); ++ni) {
    const std::string name = kSweepNames[ni];
    Result<PlanNodePtr> plan = build_sweep_plan(name);
    if (!plan.ok()) {
      std::fprintf(stderr, "parallel sweep plan build failed for %s\n",
                   name.c_str());
      return 1;
    }
    double base_wall = batch_wall_of(name);
    double best_speedup = 0.0;
    for (size_t wi = 0; wi < std::size(kWorkerCounts); ++wi) {
      par_db.set_exec_workers(kWorkerCounts[wi]);
      RunResult r = RunPlan(&par_db, *plan.value());
      double host_speedup =
          r.wall_seconds_per_iter > 0 ? base_wall / r.wall_seconds_per_iter
                                      : 0.0;
      // Simulated core speedup from one run with fresh core ledgers.
      par_db.machine()->ResetCoreLedgers();
      auto res = par_db.ExecutePlanQuery(*plan.value());
      if (!res.ok()) {
        std::fprintf(stderr, "parallel sweep query failed: %s\n",
                     res.status().ToString().c_str());
        return 1;
      }
      double busy_sum = 0.0;
      for (const CoreLedger& c : par_db.machine()->core_ledgers()) {
        busy_sum += c.busy_s;
      }
      ParallelPhaseSummary ph = par_db.machine()->SummarizeCorePhase();
      // Per-phase slices: morsel pools mark a named phase per parallel
      // stage ("stream", "join_build", "agg", "sort"). Same-label slices
      // (one per pool) are merged core-wise before summarizing, so each
      // label reports its own work volume / makespan = core speedup.
      struct PhaseAgg {
        std::string label;
        std::vector<CoreLedger> ledgers;
      };
      std::vector<PhaseAgg> phase_aggs;
      for (const CorePhase& cp : par_db.machine()->core_phases()) {
        PhaseAgg* agg = nullptr;
        for (PhaseAgg& pa : phase_aggs) {
          if (pa.label == cp.label) { agg = &pa; break; }
        }
        if (agg == nullptr) {
          phase_aggs.push_back(PhaseAgg{
              cp.label, std::vector<CoreLedger>(cp.ledgers.size())});
          agg = &phase_aggs.back();
        }
        for (size_t ci = 0;
             ci < cp.ledgers.size() && ci < agg->ledgers.size(); ++ci) {
          agg->ledgers[ci].busy_s += cp.ledgers[ci].busy_s;
          agg->ledgers[ci].cpu_j += cp.ledgers[ci].cpu_j;
          agg->ledgers[ci].mem_j += cp.ledgers[ci].mem_j;
          agg->ledgers[ci].cycles += cp.ledgers[ci].cycles;
          agg->ledgers[ci].mem_lines += cp.ledgers[ci].mem_lines;
        }
      }
      par_db.machine()->ResetCoreLedgers();
      double sim_speedup =
          ph.makespan_s > 0 ? busy_sum / ph.makespan_s : 1.0;
      if (sim_speedup > best_speedup) best_speedup = sim_speedup;
      bool last = ni + 1 == std::size(kSweepNames) &&
                  wi + 1 == std::size(kWorkerCounts);
      std::printf(
          "    {\"name\": \"%s\", \"workers\": %d, "
          "\"wall_seconds_per_iter\": %.6e, \"rows_per_sec\": %.6e, "
          "\"sim_seconds\": %.9e, \"sim_joules_per_query\": %.9e, "
          "\"speedup_vs_batch\": %.2f, \"sim_makespan_s\": %.9e, "
          "\"sim_core_speedup\": %.2f, \"phases\": [",
          name.c_str(), kWorkerCounts[wi], r.wall_seconds_per_iter,
          r.rows_per_sec, r.sim_seconds, r.sim_joules, host_speedup,
          ph.makespan_s, sim_speedup);
      for (size_t pi = 0; pi < phase_aggs.size(); ++pi) {
        ParallelPhaseSummary ps =
            par_db.machine()->SummarizeCoreLedgers(phase_aggs[pi].ledgers);
        double phase_speedup =
            ps.makespan_s > 0 ? ps.busy_sum_s / ps.makespan_s : 1.0;
        std::printf(
            "%s{\"label\": \"%s\", \"busy_sum_s\": %.9e, "
            "\"makespan_s\": %.9e, \"sim_core_speedup\": %.2f}",
            pi ? ", " : "", phase_aggs[pi].label.c_str(), ps.busy_sum_s,
            ps.makespan_s, phase_speedup);
      }
      std::printf("]}%s\n", last ? "" : ",");
    }
    par_db.set_exec_workers(1);
    par_speedups.emplace_back(name, best_speedup);
  }
  std::printf("  ],\n");
  // Best simulated core speedup per plan across the worker counts.
  std::printf("  \"parallel_sim_core_speedup\": {");
  for (size_t i = 0; i < par_speedups.size(); ++i) {
    std::printf("%s\"%s\": %.2f", i ? ", " : "",
                par_speedups[i].first.c_str(), par_speedups[i].second);
  }
  std::printf("},\n");

  // Planner/optimizer host benchmarks, ported from the seed's
  // google-benchmark harness (SQL parse+plan, cost-model estimate,
  // MergeSelections) so regressions there show up in this JSON too. Each
  // times a host-side operation only.
  struct HostBench {
    std::string name;
    double secs = 0;
  };
  std::vector<HostBench> host;
  {
    std::string sql = tpch::Q5Sql(tpch::Q5Params{});
    host.push_back({"sql_parse_plan", TimeHostOp([&] {
                      auto plan = batch_db.PlanSql(sql);
                      if (!plan.ok()) {
                        std::fprintf(stderr, "sql_parse_plan failed: %s\n",
                                     plan.status().ToString().c_str());
                        std::exit(1);
                      }
                    })});
    const CostModel& model = batch_db.cost_model();
    auto q5 = batch_db.PlanSql(sql);
    if (!q5.ok()) {
      std::fprintf(stderr, "Q5 plan build failed\n");
      return 1;
    }
    host.push_back({"cost_model_estimate", TimeHostOp([&] {
                      auto cost =
                          model.Estimate(*q5.value(), SystemSettings::Stock());
                      if (!cost.ok()) {
                        std::fprintf(stderr,
                                     "cost_model_estimate failed: %s\n",
                                     cost.status().ToString().c_str());
                        std::exit(1);
                      }
                    })});
    auto wl = tpch::MakeSelectionWorkload(*batch_db.catalog(), 50, 7);
    if (!wl.ok()) {
      std::fprintf(stderr, "selection workload build failed\n");
      return 1;
    }
    std::vector<const PlanNode*> members;
    for (const auto& q : wl.value().queries) members.push_back(q.get());
    host.push_back({"merge_selections", TimeHostOp([&] {
                      auto merged = MergeSelections(members);
                      if (!merged.ok()) {
                        std::fprintf(stderr, "merge_selections failed: %s\n",
                                     merged.status().ToString().c_str());
                        std::exit(1);
                      }
                    })});
  }
  std::printf("  \"planner_benchmarks\": [\n");
  for (size_t i = 0; i < host.size(); ++i) {
    std::printf(
        "    {\"name\": \"%s\", \"wall_seconds_per_iter\": %.6e, "
        "\"iters_per_sec\": %.6e}%s\n",
        host[i].name.c_str(), host[i].secs,
        host[i].secs > 0 ? 1.0 / host[i].secs : 0.0,
        i + 1 < host.size() ? "," : "");
  }

  std::printf("  ],\n");

  // Fault-injected retry benchmarks: cold full scans of lineitem on the
  // disk-backed Commercial profile at increasing transient-fault rates.
  // These are *simulated* metrics — each faulted read attempt charges the
  // full disk-read cost plus an energy-accounted idle backoff, so mean
  // joules/query must grow monotonically with the fault rate while the
  // zero-rate row stays bit-identical to a run with no injector at all.
  struct FaultBench {
    double rate = 0;
    int iters = 0;
    double mean_sim_joules = 0;
    double mean_sim_seconds = 0;
    double p99_sim_seconds = 0;
    uint64_t transient_faults = 0;
    uint64_t retries = 0;
    uint64_t persistent_faults = 0;
  };
  std::vector<FaultBench> fault_rows;
  for (double rate : {0.0, 1e-4, 1e-3}) {
    DatabaseOptions opt;
    opt.profile = EngineProfile::Commercial();
    opt.fault_injection.seed = 0xEC0FA17;
    opt.fault_injection.transient_fault_rate = rate;
    Database db(opt);
    if (!db.LoadTpch(gen).ok()) {
      std::fprintf(stderr, "TPC-H load failed (fault bench)\n");
      return 1;
    }
    auto scan = MakeScan(*db.catalog(), "lineitem");
    if (!scan.ok()) {
      std::fprintf(stderr, "fault bench plan build failed\n");
      return 1;
    }
    FaultBench fb;
    fb.rate = rate;
    fb.iters = 120;
    std::vector<double> lat;
    lat.reserve(fb.iters);
    for (int it = 0; it < fb.iters; ++it) {
      db.ColdRestart();  // evict so every iteration re-reads from disk
      auto res = db.ExecutePlanQuery(*scan.value());
      if (!res.ok()) {
        std::fprintf(stderr, "fault bench query failed: %s\n",
                     res.status().ToString().c_str());
        return 1;
      }
      lat.push_back(res.value().seconds);
      fb.mean_sim_joules += res.value().wall_joules;
      fb.mean_sim_seconds += res.value().seconds;
    }
    fb.mean_sim_joules /= fb.iters;
    fb.mean_sim_seconds /= fb.iters;
    std::sort(lat.begin(), lat.end());
    fb.p99_sim_seconds =
        lat[std::min(lat.size() - 1, lat.size() * 99 / 100)];
    fb.transient_faults = db.buffer_pool()->stats().transient_faults;
    fb.retries = db.buffer_pool()->stats().retries;
    fb.persistent_faults = db.buffer_pool()->stats().persistent_faults;
    fault_rows.push_back(fb);
  }
  std::printf("  \"fault_retry_benchmarks\": [\n");
  for (size_t i = 0; i < fault_rows.size(); ++i) {
    const FaultBench& f = fault_rows[i];
    std::printf(
        "    {\"name\": \"cold_scan_lineitem\", "
        "\"transient_fault_rate\": %g, \"iters\": %d, "
        "\"sim_joules_per_query\": %.9e, \"sim_seconds_mean\": %.9e, "
        "\"sim_seconds_p99\": %.9e, \"transient_faults\": %llu, "
        "\"retries\": %llu, \"persistent_faults\": %llu}%s\n",
        f.rate, f.iters, f.mean_sim_joules, f.mean_sim_seconds,
        f.p99_sim_seconds,
        static_cast<unsigned long long>(f.transient_faults),
        static_cast<unsigned long long>(f.retries),
        static_cast<unsigned long long>(f.persistent_faults),
        i + 1 < fault_rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

}  // namespace
}  // namespace ecodb::bench

int main(int argc, char** argv) { return ecodb::bench::Main(argc, argv); }
