#include "ecodb/core/database.h"

#include "ecodb/sql/planner.h"

namespace ecodb {

Database::Database(DatabaseOptions options) : options_(std::move(options)) {
  machine_ = std::make_unique<Machine>(options_.machine);
  machine_->SetLoadClass(options_.profile.load_class);
  buffer_pool_ = std::make_unique<BufferPool>(
      machine_.get(), options_.profile.buffer_pool_pages);
  if (options_.fault_injection.enabled()) {
    fault_injector_ = std::make_unique<FaultInjector>(options_.fault_injection);
    buffer_pool_->set_fault_injector(fault_injector_.get());
  }
}

Status Database::LoadTpch(const tpch::DbGenOptions& options) {
  return tpch::Generate(options, &catalog_);
}

Status Database::ApplySettings(const SystemSettings& settings) {
  return machine_->ApplySettings(settings);
}

std::unique_ptr<ExecContext> Database::MakeExecContext() {
  return std::make_unique<ExecContext>(machine_.get(), &options_.profile,
                                       &catalog_, buffer_pool_.get());
}

Result<QueryResult> Database::ExecutePlanQuery(const PlanNode& plan) {
  auto ctx = MakeExecContext();
  // The governor lives on this frame for exactly one query; limits are
  // re-read per query so set_query_limits takes effect immediately.
  std::unique_ptr<QueryGovernor> governor;
  if (!options_.query_limits.None()) {
    governor = std::make_unique<QueryGovernor>(options_.query_limits,
                                               machine_->NowSeconds());
    ctx->set_governor(governor.get());
  }
  // Morsel workers only drive ungoverned, memory-resident pipelines:
  // disk-backed scans serialize on the buffer pool/clock mid-pipeline,
  // and governed queries must trip at machine-state checkpoints the
  // worker trees never see. The clamp covers the pipeline breakers too —
  // their parallel build/accumulate phases (partitioned hash build,
  // partial aggregation, per-worker sorts; exec/morsel.cc) run only
  // under the same conditions, since the breaker drivers mirror the
  // sequential governor checkpoints in shape but their worker contexts
  // carry no governor or buffer pool.
  int workers = options_.exec_workers;
  if (options_.profile.disk_backed || governor != nullptr) workers = 1;
  ctx->set_exec_workers(workers);
  EnergyLedger before = machine_->ledger();
  double t0 = machine_->NowSeconds();

  ECODB_ASSIGN_OR_RETURN(ResultSet set, ExecutePlanColumnar(plan, ctx.get()));
  ctx->Flush();

  const EnergyLedger& after = machine_->ledger();
  QueryResult result;
  result.result = std::move(set);
  result.schema = plan.output_schema;
  result.seconds = machine_->NowSeconds() - t0;
  result.cpu_joules = after.cpu_j - before.cpu_j;
  result.disk_joules = after.DiskJ() - before.DiskJ();
  result.wall_joules = after.wall_j - before.wall_j;
  result.exec_stats = ctx->stats();
  return result;
}

Result<QueryResult> Database::ExecuteSql(const std::string& sql) {
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr plan, PlanSql(sql));
  return ExecutePlanQuery(*plan);
}

Result<PlanNodePtr> Database::PlanSql(const std::string& sql) {
  return sql::PlanQuery(sql, catalog_, cost_model(), machine_->settings());
}

const CostModel& Database::cost_model() {
  if (cost_model_ == nullptr) {
    cost_model_ = std::make_unique<CostModel>(&catalog_, &options_.profile,
                                              options_.machine);
  }
  return *cost_model_;
}

void Database::ColdRestart() {
  if (options_.profile.disk_backed) buffer_pool_->EvictAll();
}

Status Database::WarmUp() {
  if (!options_.profile.disk_backed) return Status::OK();
  for (const std::string& name : catalog_.TableNames()) {
    const TableEntry* entry = catalog_.FindEntry(name);
    ECODB_RETURN_NOT_OK(buffer_pool_->FetchRange(
        entry->file.file_id(), 0, entry->file.num_pages(),
        AccessHint::kSequential));
  }
  // Warm-up I/O time/energy is not part of any measurement; callers reset
  // meters afterwards (ExperimentRunner does).
  return Status::OK();
}

}  // namespace ecodb
