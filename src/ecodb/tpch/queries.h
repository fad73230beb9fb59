// TPC-H benchmark queries as SQL texts, with their parameters.
//
// Q5 is the paper's PVC workload query ("a six table join and a group by
// clause on one attribute"); Q1/Q3/Q6 round out the example workloads.
// SelectionSql is QED's 2 %-selectivity single-table select. There are no
// hand-built plans: every caller plans these texts with the SQL planner
// (Database::PlanSql, or sql::PlanQuery over a fixed planning context in
// tpch/workloads.cc), so the plans measured are the plans users run.

#ifndef ECODB_TPCH_QUERIES_H_
#define ECODB_TPCH_QUERIES_H_

#include <cstdint>
#include <string>

namespace ecodb::tpch {

/// TPC-H Q5 parameters: region name and a one-year date window.
struct Q5Params {
  std::string region = "ASIA";
  std::string date_lo = "1994-01-01";
  std::string date_hi = "1995-01-01";
};

/// Local-supplier volume query (six-way join, group by n_name).
std::string Q5Sql(const Q5Params& p);

/// Q1: pricing summary report over lineitem (shipdate <= cutoff).
std::string Q1Sql(const std::string& ship_cutoff);

/// Q3: shipping priority (customer x orders x lineitem, top 10).
struct Q3Params {
  std::string segment = "BUILDING";
  std::string date = "1995-03-15";
};
std::string Q3Sql(const Q3Params& p);

/// Q6: forecasting revenue change (selection + aggregate over lineitem).
struct Q6Params {
  std::string date_lo = "1994-01-01";
  std::string date_hi = "1995-01-01";
  double discount = 0.06;
  int64_t quantity = 24;
};
std::string Q6Sql(const Q6Params& p);

/// QED's workload query: SELECT l_orderkey, l_partkey, l_quantity,
/// l_extendedprice FROM lineitem WHERE l_quantity = `value` — one of the
/// 50 uniform values, i.e. 2 % selectivity (paper Section 4).
std::string SelectionSql(int64_t quantity_value);

}  // namespace ecodb::tpch

#endif  // ECODB_TPCH_QUERIES_H_
