#include "ecodb/core/pvc.h"

namespace ecodb {

std::vector<SystemSettings> PvcController::PaperGrid() {
  std::vector<SystemSettings> grid;
  for (VoltageDowngrade d :
       {VoltageDowngrade::kSmall, VoltageDowngrade::kMedium}) {
    for (double uc : {0.05, 0.10, 0.15}) {
      grid.push_back(SystemSettings{uc, d});
    }
  }
  return grid;
}

std::vector<SystemSettings> PvcController::MediumGrid() {
  std::vector<SystemSettings> grid;
  for (double uc : {0.05, 0.10, 0.15}) {
    grid.push_back(SystemSettings{uc, VoltageDowngrade::kMedium});
  }
  return grid;
}

double PvcController::TheoreticalEdp(const SystemSettings& s) const {
  // V^2/F at the top p-state for this profile's load class (Section 3.4).
  CpuModel cpu(db_->options().machine.cpu);
  Status st = cpu.ApplySettings(s);
  if (!st.ok()) return 0.0;
  return cpu.TheoreticalEdpFactor(db_->profile().load_class);
}

Result<TradeoffCurve> PvcController::MeasureCurve(
    const tpch::Workload& workload, const std::vector<SystemSettings>& grid,
    const RunOptions& options) {
  ExperimentRunner runner(db_);
  TradeoffCurve curve;

  curve.stock.settings = SystemSettings::Stock();
  ECODB_ASSIGN_OR_RETURN(
      curve.stock.measurement,
      runner.RunWorkload(workload, curve.stock.settings, options));
  curve.stock.ratio = RatioPoint{};
  double stock_theory = TheoreticalEdp(curve.stock.settings);

  for (const SystemSettings& s : grid) {
    OperatingPoint p;
    p.settings = s;
    ECODB_ASSIGN_OR_RETURN(p.measurement,
                           runner.RunWorkload(workload, s, options));
    p.ratio = RatioVs(p.measurement, curve.stock.measurement);
    double theory = TheoreticalEdp(s);
    p.theoretical_edp_ratio =
        stock_theory > 0 ? theory / stock_theory : 1.0;
    curve.points.push_back(std::move(p));
  }
  return curve;
}

std::vector<std::vector<SystemSettings>> PvcController::PerCoreGrid(
    int num_cores) {
  std::vector<std::vector<SystemSettings>> grid;
  if (num_cores < 1) return grid;
  size_t n = static_cast<size_t>(num_cores);
  for (const SystemSettings& s : MediumGrid()) {
    grid.emplace_back(n, s);  // symmetric: slow-and-wide
    std::vector<SystemSettings> asym(n, SystemSettings::Stock());
    asym[n - 1] = s;  // asymmetric: one eco core
    grid.push_back(std::move(asym));
  }
  return grid;
}

Result<CoreTradeoffCurve> PvcController::MeasureCorePhaseCurve(
    const tpch::Workload& workload,
    const std::vector<std::vector<SystemSettings>>& grid) {
  Machine* machine = db_->machine();
  const int n_cores = machine->num_cores();

  // Capture: one parallel run at the current settings fills the core
  // ledgers with each core's raw (cycles, mem_lines) morsel work.
  const int prev_workers = db_->exec_workers();
  db_->set_exec_workers(n_cores);
  machine->ResetCoreLedgers();
  Status run_status;
  for (const PlanNodePtr& q : workload.queries) {
    auto r = db_->ExecutePlanQuery(*q);
    if (!r.ok()) {
      run_status = r.status();
      break;
    }
  }
  db_->set_exec_workers(prev_workers);
  if (!run_status.ok()) return run_status;
  const std::vector<CoreLedger> work = machine->core_ledgers();
  machine->ResetCoreLedgers();

  // Re-price the captured raw work under one per-core assignment. The
  // ledgers price at accrual time, so a what-if sweep re-accrues on a
  // scratch machine instead of re-executing the workload.
  const LoadClass cls = db_->profile().load_class;
  auto price = [&](const std::vector<SystemSettings>& assignment)
      -> Result<ParallelPhaseSummary> {
    if (static_cast<int>(assignment.size()) != n_cores) {
      return Status::InvalidArgument(
          "per-core assignment must have one entry per core");
    }
    Machine scratch(db_->options().machine);
    for (int c = 0; c < n_cores; ++c) {
      size_t i = static_cast<size_t>(c);
      ECODB_RETURN_NOT_OK(scratch.ApplyCoreSettings(c, assignment[i]));
      scratch.AccrueCoreWork(c, work[i].cycles, work[i].mem_lines, cls);
    }
    return scratch.SummarizeCorePhase();
  };

  CoreTradeoffCurve curve;
  curve.stock.core_settings.assign(static_cast<size_t>(n_cores),
                                   SystemSettings::Stock());
  ECODB_ASSIGN_OR_RETURN(curve.stock.summary,
                         price(curve.stock.core_settings));
  const double stock_mk = curve.stock.summary.makespan_s;
  const double stock_dc = curve.stock.summary.dc_j;
  const double stock_edp = stock_dc * stock_mk;

  for (const std::vector<SystemSettings>& assignment : grid) {
    CoreOperatingPoint p;
    p.core_settings = assignment;
    ECODB_ASSIGN_OR_RETURN(p.summary, price(assignment));
    p.makespan_ratio =
        stock_mk > 0 ? p.summary.makespan_s / stock_mk : 1.0;
    p.dc_energy_ratio = stock_dc > 0 ? p.summary.dc_j / stock_dc : 1.0;
    double edp = p.summary.dc_j * p.summary.makespan_s;
    p.edp_ratio = stock_edp > 0 ? edp / stock_edp : 1.0;
    curve.points.push_back(std::move(p));
  }
  return curve;
}

Result<TradeoffCurve> PvcController::PredictCurve(
    const tpch::Workload& workload, const std::vector<SystemSettings>& grid) {
  const CostModel& model = db_->cost_model();

  auto predict = [&](const SystemSettings& s) -> Result<RunMeasurement> {
    RunMeasurement m;
    for (const PlanNodePtr& q : workload.queries) {
      ECODB_ASSIGN_OR_RETURN(PlanCost c, model.Estimate(*q, s));
      m.seconds += c.est_seconds;
      m.cpu_j += c.est_cpu_joules;
      m.query_completion_s.push_back(m.seconds);
    }
    m.edp = m.cpu_j * m.seconds;
    return m;
  };

  TradeoffCurve curve;
  curve.stock.settings = SystemSettings::Stock();
  ECODB_ASSIGN_OR_RETURN(curve.stock.measurement,
                         predict(curve.stock.settings));
  double stock_theory = TheoreticalEdp(curve.stock.settings);

  for (const SystemSettings& s : grid) {
    OperatingPoint p;
    p.settings = s;
    ECODB_ASSIGN_OR_RETURN(p.measurement, predict(s));
    p.ratio = RatioVs(p.measurement, curve.stock.measurement);
    double theory = TheoreticalEdp(s);
    p.theoretical_edp_ratio =
        stock_theory > 0 ? theory / stock_theory : 1.0;
    curve.points.push_back(std::move(p));
  }
  return curve;
}

}  // namespace ecodb
