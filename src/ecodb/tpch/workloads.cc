#include "ecodb/tpch/workloads.h"

#include <numeric>

#include "ecodb/core/engine_profile.h"
#include "ecodb/optimizer/cost_model.h"
#include "ecodb/sql/planner.h"
#include "ecodb/tpch/dbgen.h"
#include "ecodb/tpch/queries.h"
#include "ecodb/util/rng.h"
#include "ecodb/util/strings.h"

namespace ecodb::tpch {

namespace {

/// Plans workload SQL in one fixed context, whatever database holds the
/// catalog: the memory-resident MySQL profile on the paper's testbed at
/// stock settings. So a workload is a pure function of the catalog, and
/// two databases with different profiles build the same mix.
class WorkloadPlanner {
 public:
  explicit WorkloadPlanner(const Catalog& catalog)
      : catalog_(catalog),
        model_(&catalog, &profile_, MachineConfig::PaperTestbed()) {}

  Result<PlanNodePtr> Plan(const std::string& sql) const {
    return sql::PlanQuery(sql, catalog_, model_, SystemSettings::Stock());
  }

 private:
  const Catalog& catalog_;
  const EngineProfile profile_ = EngineProfile::MySqlMemory();
  CostModel model_;
};

}  // namespace

Result<Workload> MakeQ5Workload(const Catalog& catalog) {
  const WorkloadPlanner planner(catalog);
  Workload w;
  w.name = "tpch-q5-x10";
  for (const char* region : {"ASIA", "AMERICA"}) {
    for (int year = 1993; year <= 1997; ++year) {
      Q5Params p;
      p.region = region;
      p.date_lo = StrFormat("%d-01-01", year);
      p.date_hi = StrFormat("%d-01-01", year + 1);
      ECODB_ASSIGN_OR_RETURN(PlanNodePtr plan, planner.Plan(Q5Sql(p)));
      w.queries.push_back(std::move(plan));
    }
  }
  return w;
}

Result<Workload> MakeSelectionWorkload(const Catalog& catalog, int n,
                                       uint64_t seed) {
  if (n < 1 || n > kQuantityValues) {
    return Status::InvalidArgument(
        StrFormat("selection workload size %d out of [1, %lld]", n,
                  static_cast<long long>(kQuantityValues)));
  }
  // Choose n distinct values from 1..50, shuffled deterministically.
  std::vector<int64_t> values(kQuantityValues);
  std::iota(values.begin(), values.end(), 1);
  Rng rng(seed);
  rng.Shuffle(&values);
  values.resize(static_cast<size_t>(n));

  const WorkloadPlanner planner(catalog);
  Workload w;
  w.name = StrFormat("selection-x%d", n);
  for (int64_t v : values) {
    ECODB_ASSIGN_OR_RETURN(PlanNodePtr plan, planner.Plan(SelectionSql(v)));
    w.queries.push_back(std::move(plan));
    w.selection_values.push_back(v);
    w.merge_keys.push_back(v);
  }
  return w;
}

Result<Workload> MakeSchedulerMixWorkload(const Catalog& catalog, int n,
                                          uint64_t seed,
                                          double selection_fraction) {
  if (n < 1) {
    return Status::InvalidArgument(
        StrFormat("scheduler mix size %d must be >= 1", n));
  }
  if (selection_fraction < 0.0 || selection_fraction > 1.0) {
    return Status::InvalidArgument(
        StrFormat("selection fraction %g outside [0, 1]", selection_fraction));
  }
  const WorkloadPlanner planner(catalog);
  Rng rng(seed);
  Workload w;
  w.name = StrFormat("scheduler-mix-x%d", n);
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(selection_fraction)) {
      int64_t v = rng.UniformInt(1, kQuantityValues);
      ECODB_ASSIGN_OR_RETURN(PlanNodePtr plan, planner.Plan(SelectionSql(v)));
      w.queries.push_back(std::move(plan));
      w.selection_values.push_back(v);
      w.merge_keys.push_back(v);
      continue;
    }
    // Heavies, cheap-biased so a mix stays drainable at high arrival
    // rates: Q6 twice as likely as each join query.
    std::string sql;
    switch (rng.NextBelow(5)) {
      case 0:
      case 1:
        sql = Q6Sql(Q6Params{});
        break;
      case 2:
        sql = Q1Sql("1998-09-02");
        break;
      case 3:
        sql = Q3Sql(Q3Params{});
        break;
      default:
        sql = Q5Sql(Q5Params{});
        break;
    }
    ECODB_ASSIGN_OR_RETURN(PlanNodePtr plan, planner.Plan(sql));
    w.queries.push_back(std::move(plan));
    w.selection_values.push_back(0);
    w.merge_keys.push_back(kNotMergeable);
  }
  return w;
}

Result<Workload> MakeMixedWorkload(const Catalog& catalog) {
  const WorkloadPlanner planner(catalog);
  Workload w;
  w.name = "mixed-q1-q3-q5-q6";
  for (const std::string& sql : {Q1Sql("1998-09-02"), Q3Sql(Q3Params{}),
                                 Q5Sql(Q5Params{}), Q6Sql(Q6Params{})}) {
    ECODB_ASSIGN_OR_RETURN(PlanNodePtr plan, planner.Plan(sql));
    w.queries.push_back(std::move(plan));
  }
  return w;
}

}  // namespace ecodb::tpch
