// Database: the public facade of ecoDB. Owns the simulated machine, the
// catalog, the buffer pool and the engine profile; executes plans and SQL
// with per-query time/energy measurement.

#ifndef ECODB_CORE_DATABASE_H_
#define ECODB_CORE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "ecodb/core/engine_profile.h"
#include "ecodb/exec/plan.h"
#include "ecodb/exec/query_governor.h"
#include "ecodb/optimizer/cost_model.h"
#include "ecodb/sim/fault_injection.h"
#include "ecodb/sim/machine.h"
#include "ecodb/storage/buffer_pool.h"
#include "ecodb/storage/catalog.h"
#include "ecodb/tpch/dbgen.h"
#include "ecodb/util/result.h"

namespace ecodb {

struct DatabaseOptions {
  EngineProfile profile = EngineProfile::Commercial();
  MachineConfig machine = MachineConfig::PaperTestbed();
  /// Morsel-driven worker threads for eligible pipelines. 1 (the
  /// default) keeps execution single-threaded. Clamped to 1 per query
  /// when the profile is disk-backed or a governor is attached — those
  /// paths interleave machine state mid-pipeline and stay on the
  /// sequential engine. Results and logical-work counters are
  /// bit-exact vs. single-threaded at any worker count.
  int exec_workers = 1;
  /// Per-query limits applied by the governor (default: none — queries
  /// run ungoverned exactly as before). Adjustable between queries via
  /// Database::set_query_limits.
  QueryLimits query_limits;
  /// Deterministic disk-fault schedule. Rates of zero (the default)
  /// disable injection entirely; the buffer pool's read path is then
  /// unchanged.
  FaultInjectorConfig fault_injection;
};

/// Result of one query, with the energy/time the machine spent on it.
/// The result itself is columnar (ResultSet: typed column arrays + null
/// masks, identical across execution modes); `rows()` exposes the lazily
/// built boxed row view for row-oriented callers.
///
/// Lifetime: the result outlives the operator tree, but its string
/// columns may borrow Table storage (the PR 5 dedup contract — see
/// exec/result_set.h), so a QueryResult must not be read after the
/// Database that produced it is destroyed. Callers that need a
/// free-standing copy should TakeRows() (boxed Values own their bytes)
/// while the Database is alive.
///
/// Failed queries produce no QueryResult at all: ExecutePlanQuery
/// returns a bare error Status, every operator has been Close()d, the
/// partially-built result set (and everything it retained) has been
/// destroyed, and the Database is immediately reusable — a governed
/// kill or an injected hardware fault never leaves dangling state
/// behind. The machine's energy ledger keeps whatever the query charged
/// before it died (for a governor trip, frozen at the last flush-quantum
/// boundary; energy is spent even when no answer comes back).
struct QueryResult {
  ResultSet result;
  Schema schema;
  double seconds = 0;      ///< simulated response time
  double cpu_joules = 0;   ///< CPU package energy (what Figure 1 plots)
  double disk_joules = 0;
  double wall_joules = 0;
  QueryExecStats exec_stats;

  size_t num_rows() const { return result.num_rows(); }
  /// Boxed row view, built on first access and cached in the ResultSet.
  const std::vector<Row>& rows() const { return result.rows(); }
  /// Moves the boxed view out (for callers that keep per-query row sets).
  std::vector<Row> TakeRows() { return result.TakeRows(); }
};

class Database {
 public:
  explicit Database(DatabaseOptions options);

  /// Generates TPC-H data into the catalog.
  Status LoadTpch(const tpch::DbGenOptions& options);

  /// Applies a PVC operating point (validated for stability).
  Status ApplySettings(const SystemSettings& settings);
  const SystemSettings& settings() const { return machine_->settings(); }

  /// Applies a PVC operating point to one core only (per-core knob; see
  /// Machine::ApplyCoreSettings).
  Status ApplyCoreSettings(int core, const SystemSettings& settings) {
    return machine_->ApplyCoreSettings(core, settings);
  }

  /// Replaces the worker count for subsequent queries (same clamping
  /// rules as DatabaseOptions::exec_workers).
  void set_exec_workers(int n) { options_.exec_workers = n < 1 ? 1 : n; }
  int exec_workers() const { return options_.exec_workers; }

  /// Executes a physical plan, measuring the query's time and energy.
  Result<QueryResult> ExecutePlanQuery(const PlanNode& plan);

  /// Parses, binds, plans and executes a SQL statement.
  Result<QueryResult> ExecuteSql(const std::string& sql);

  /// Builds a physical plan for a SQL statement without executing it.
  /// Joins are ordered by the cost model at the current settings.
  Result<PlanNodePtr> PlanSql(const std::string& sql);

  /// This database's cost model, built on first use (not at load).
  /// Its table statistics follow the tables as they grow.
  const CostModel& cost_model();

  /// Drops all buffered pages (the paper's "immediately following a
  /// system reboot" cold state). No-op for memory-resident profiles.
  void ColdRestart();

  /// Pre-faults all tables through the buffer pool without measurement
  /// (warm state). No-op for memory-resident profiles.
  Status WarmUp();

  Machine* machine() { return machine_.get(); }
  Catalog* catalog() { return &catalog_; }
  BufferPool* buffer_pool() { return buffer_pool_.get(); }
  const EngineProfile& profile() const { return options_.profile; }
  const DatabaseOptions& options() const { return options_; }

  /// Replaces the per-query limits for subsequent queries (pass a
  /// default-constructed QueryLimits to lift them).
  void set_query_limits(const QueryLimits& limits) {
    options_.query_limits = limits;
  }
  const QueryLimits& query_limits() const { return options_.query_limits; }

  /// The fault injector attached at construction, or null when fault
  /// injection is disabled (test/bench introspection).
  FaultInjector* fault_injector() { return fault_injector_.get(); }

  /// Fresh ExecContext bound to this database's machine/profile/pool.
  std::unique_ptr<ExecContext> MakeExecContext();

 private:
  DatabaseOptions options_;
  std::unique_ptr<Machine> machine_;
  Catalog catalog_;
  std::unique_ptr<BufferPool> buffer_pool_;
  std::unique_ptr<FaultInjector> fault_injector_;  ///< null when disabled
  std::unique_ptr<CostModel> cost_model_;  ///< null until first used
};

}  // namespace ecodb

#endif  // ECODB_CORE_DATABASE_H_
