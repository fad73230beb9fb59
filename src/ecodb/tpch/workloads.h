// Workload generators matching the paper's experimental setup. Each plans
// the SQL texts of tpch/queries.h with the SQL planner in one fixed
// context (the memory-resident MySQL profile on the paper's testbed at
// stock settings), so a workload depends on the catalog alone.

#ifndef ECODB_TPCH_WORKLOADS_H_
#define ECODB_TPCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "ecodb/exec/plan.h"
#include "ecodb/storage/catalog.h"
#include "ecodb/util/result.h"

namespace ecodb::tpch {

/// A named sequence of query plans, run back-to-back (zero think time).
struct Workload {
  std::string name;
  std::vector<PlanNodePtr> queries;
  /// For selection workloads: the predicate value of each query (used by
  /// QED's result splitter and the analytical model).
  std::vector<int64_t> selection_values;
  /// QED-mergeability tag per query, parallel to `queries` (empty: no
  /// query is mergeable). Entry >= 0 marks a Project(Filter(Scan))
  /// selection and carries its predicate literal; the workload scheduler
  /// only co-merges queries with *distinct* keys, because the merged
  /// result splitter assigns each row to the first member testing its
  /// value. -1 = not mergeable.
  std::vector<int64_t> merge_keys;
};

inline constexpr int64_t kNotMergeable = -1;

/// The paper's PVC workload (Section 3.3): ten TPC-H Q5 instances with
/// regions ASIA and AMERICA crossed with the five one-year date windows
/// 1993..1997 — equal work, non-overlapping predicates.
Result<Workload> MakeQ5Workload(const Catalog& catalog);

/// The paper's QED workload (Section 4): `n` single-table selections on
/// lineitem, each on a distinct l_quantity value (2 % selectivity each, no
/// predicate overlap; requires n <= 50).
Result<Workload> MakeSelectionWorkload(const Catalog& catalog, int n,
                                       uint64_t seed);

/// Extra mixed workload used by examples/ablations: Q1 + Q3 + Q6 + Q5.
Result<Workload> MakeMixedWorkload(const Catalog& catalog);

/// Sustained-traffic mix for the workload scheduler: `n` queries drawn
/// deterministically from (seed) — a `selection_fraction` share of QED-
/// mergeable l_quantity selections (values uniform in 1..50, merge_keys
/// set) interleaved with Q6/Q1/Q3/Q5 heavies for the rest. Unlike
/// MakeSelectionWorkload, selection values may repeat across the stream
/// (real traffic repeats queries); the scheduler's merge grouping keeps
/// duplicates out of any single QED batch.
Result<Workload> MakeSchedulerMixWorkload(const Catalog& catalog, int n,
                                          uint64_t seed,
                                          double selection_fraction = 0.7);

}  // namespace ecodb::tpch

#endif  // ECODB_TPCH_WORKLOADS_H_
