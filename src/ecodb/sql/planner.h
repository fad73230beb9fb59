// SQL planner: parsed statement -> physical plan.
//
// Single-table predicates are pushed below joins. Equi-join columns form
// equivalence classes, and join orders are enumerated by dynamic
// programming over table subsets (left-deep, connected; a cross product
// only where the join graph is disconnected), keeping the order the cost
// model prices at the fewest CPU joules at the given operating point.
// See docs/architecture.md "SQL planner".

#ifndef ECODB_SQL_PLANNER_H_
#define ECODB_SQL_PLANNER_H_

#include <string>

#include "ecodb/exec/plan.h"
#include "ecodb/optimizer/cost_model.h"
#include "ecodb/storage/catalog.h"
#include "ecodb/util/result.h"

namespace ecodb::sql {

/// Parses, binds and plans a SELECT statement. `model` must cover
/// `catalog`; joins are priced at `settings`.
Result<PlanNodePtr> PlanQuery(const std::string& sql_text,
                              const Catalog& catalog, const CostModel& model,
                              const SystemSettings& settings);

}  // namespace ecodb::sql

#endif  // ECODB_SQL_PLANNER_H_
