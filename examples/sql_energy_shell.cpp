// SQL energy shell: runs a scripted set of SQL statements, printing each
// result with its simulated time/energy bill and the EXPLAIN plan —
// a demo of the SQL front end and the energy-aware cost model's
// predict-then-measure loop.
//
//   ./build/examples/sql_energy_shell

#include <cstdio>

#include "ecodb/ecodb.h"

using namespace ecodb;

int main() {
  DatabaseOptions options;
  options.profile = EngineProfile::MySqlMemory();
  Database db(options);
  tpch::DbGenOptions gen;
  gen.scale_factor = 0.01;
  if (!db.LoadTpch(gen).ok()) return 1;

  const CostModel& model = db.cost_model();

  const char* statements[] = {
      "SELECT r_name, r_regionkey FROM region ORDER BY r_name",
      "SELECT COUNT(*) AS customers FROM customer",
      "SELECT n_name, COUNT(*) AS suppliers FROM supplier, nation "
      "WHERE s_nationkey = n_nationkey GROUP BY n_name "
      "ORDER BY suppliers DESC LIMIT 5",
      "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
      "WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < "
      "DATE '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 "
      "AND l_quantity < 24",
      "SELECT l_quantity, COUNT(*) AS n FROM lineitem "
      "WHERE l_quantity IN (1, 2, 3) GROUP BY l_quantity ORDER BY "
      "l_quantity",
  };

  for (const char* sql : statements) {
    std::printf("SQL> %s\n", sql);
    auto plan = db.PlanSql(sql);
    if (!plan.ok()) {
      std::printf("  ERROR: %s\n\n", plan.status().ToString().c_str());
      continue;
    }
    auto predicted = model.Estimate(*plan.value(), db.settings());
    auto result = db.ExecutePlanQuery(*plan.value());
    if (!result.ok()) {
      std::printf("  ERROR: %s\n\n", result.status().ToString().c_str());
      continue;
    }
    std::printf("%s", plan.value()->Explain(1).c_str());
    size_t shown = 0;
    for (const Row& row : result.value().rows()) {
      if (shown++ == 8) {
        std::printf("  ... (%zu rows total)\n", result.value().rows().size());
        break;
      }
      std::printf("  %s\n", RowToString(row).c_str());
    }
    std::printf("  -- %zu rows, %.5f s, %.4f J CPU", result.value().rows().size(),
                result.value().seconds, result.value().cpu_joules);
    if (predicted.ok()) {
      std::printf(" (predicted %.5f s, %.4f J)",
                  predicted.value().est_seconds,
                  predicted.value().est_cpu_joules);
    }
    std::printf("\n\n");
  }
  return 0;
}
