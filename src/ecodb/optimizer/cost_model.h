// Energy-aware cost model.
//
// The paper's framing: "For a DBMS to generate Figure 1, it must be aware
// of system hardware capabilities ... and take that into account during
// query optimization". This model predicts BOTH response time and energy
// for a physical plan under a given PVC operating point, without running
// it — the hook that makes energy a first-class optimizer metric. It uses
// simple table statistics (row counts, per-column NDV/min/max) for
// cardinalities and the same machine/profile constants the simulator
// charges, so predictions track measurements. The SQL planner orders
// joins with it (sql/planner.cc); the PVC chooser prices workloads with it
// (core/pvc.cc).

#ifndef ECODB_OPTIMIZER_COST_MODEL_H_
#define ECODB_OPTIMIZER_COST_MODEL_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ecodb/core/engine_profile.h"
#include "ecodb/exec/plan.h"
#include "ecodb/sim/machine.h"
#include "ecodb/storage/catalog.h"

namespace ecodb {

/// Per-column statistics.
struct ColumnStats {
  double ndv = 1.0;  ///< number of distinct values (estimated)
  double min = 0.0;  ///< numeric min (0 for strings)
  double max = 0.0;  ///< numeric max
  bool numeric = false;
};

struct TableStats {
  double rows = 0;
  std::vector<ColumnStats> columns;
};

/// Computes stats for a table from its typed arrays: min/max over every
/// row; NDV exact up to a sample cap, extrapolated past it for key-like
/// columns. A dictionary column's NDV is its dictionary size.
TableStats ComputeTableStats(const Table& table);

/// Predicted cost of a plan under specific PVC settings.
struct PlanCost {
  double est_rows = 0;       ///< output cardinality
  double cpu_cycles = 0;     ///< total cycles the plan will charge
  double mem_lines = 0;      ///< DRAM lines
  double io_seconds = 0;     ///< simulated disk time
  double est_seconds = 0;    ///< predicted response time
  double est_cpu_joules = 0; ///< predicted CPU package energy
  double est_edp = 0;        ///< est_cpu_joules * est_seconds
};

/// Not thread-safe: table statistics are computed on first use and
/// recomputed when the table has grown since (tables are append-only, so
/// the row count says whether they are current).
class CostModel {
 public:
  /// What a plan subtree charges and emits, composed bottom-up. The SQL
  /// planner accumulates these per table subset while it enumerates join
  /// orders.
  struct NodeEstimate {
    double rows = 0;
    double cycles = 0;
    double lines = 0;
    double io_seconds = 0;
  };

  /// The machine is used for frequency/power/latency queries only; it is
  /// not mutated (settings are passed per Estimate call).
  CostModel(const Catalog* catalog, const EngineProfile* profile,
            const MachineConfig& machine_config);

  /// Predicts cost for `plan` under `settings`, including delivery of the
  /// root's rows. Cardinality estimation is independent of settings;
  /// time/energy are not.
  Result<PlanCost> Estimate(const PlanNode& plan,
                            const SystemSettings& settings) const;

  /// Work and output rows of a subtree (no result delivery).
  Result<NodeEstimate> EstimateNode(const PlanNode& node) const;

  /// Hash join of two estimated inputs of the given row widths. Per key,
  /// `*_key_ndv` is the distinct count of that side's base column (0 when
  /// unknown); each is capped at its side's rows. Output rows are
  /// |B|·|P| / max(ndv_b, ndv_p), divided once per key.
  NodeEstimate EstimateHashJoin(const NodeEstimate& build, int build_width,
                                const NodeEstimate& probe, int probe_width,
                                const std::vector<double>& build_key_ndv,
                                const std::vector<double>& probe_key_ndv) const;

  /// Sort of an estimated input: the executor's charge for that many rows,
  /// SortCompareCharge(rows) sort compares (exec/sort_keys.h).
  NodeEstimate EstimateSort(const NodeEstimate& input) const;

  /// Nested-loop join; a null predicate is a cross product.
  NodeEstimate EstimateNestedLoopJoin(const NodeEstimate& outer,
                                      const NodeEstimate& inner,
                                      const Expr* predicate) const;

  /// A scratch machine at `settings` for Price. Building one is the
  /// expensive part of Estimate; a caller pricing many candidates at one
  /// operating point builds it once.
  Result<std::unique_ptr<Machine>> PricingMachine(
      const SystemSettings& settings) const;

  /// Seconds and CPU joules of `est` at `machine`'s settings.
  PlanCost Price(const NodeEstimate& est, const Machine& machine) const;

  /// Selectivity of a predicate over a table with known stats (null:
  /// heuristic fallbacks in the System-R tradition).
  double EstimateSelectivity(const Expr& predicate,
                             const TableStats* stats) const;

  /// Current statistics of a catalog table, or null when there is no
  /// such table. Valid until the table next grows.
  const TableStats* GetTableStats(const std::string& name) const;

 private:
  /// Base-table NDV of output column `pos` of `node`, traced through
  /// filters, joins and column passthroughs of projections to a scan; 0
  /// through any other node or computed column.
  double BaseColumnNdv(const PlanNode& node, int pos) const;

  struct CachedStats {
    size_t rows = 0;  ///< the table's row count when `stats` was computed
    TableStats stats;
  };

  const Catalog* catalog_;
  const EngineProfile* profile_;
  MachineConfig machine_config_;
  mutable std::unordered_map<const Table*, CachedStats> stats_;
};

}  // namespace ecodb

#endif  // ECODB_OPTIMIZER_COST_MODEL_H_
