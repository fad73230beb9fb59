#include "ecodb/tpch/queries.h"

#include "ecodb/util/strings.h"

namespace ecodb::tpch {

std::string Q5Sql(const Q5Params& p) {
  return StrFormat(
      "SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue "
      "FROM customer, orders, lineitem, supplier, nation, region "
      "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
      "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
      "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
      "AND r_name = '%s' AND o_orderdate >= DATE '%s' "
      "AND o_orderdate < DATE '%s' "
      "GROUP BY n_name ORDER BY revenue DESC",
      p.region.c_str(), p.date_lo.c_str(), p.date_hi.c_str());
}

std::string Q1Sql(const std::string& ship_cutoff) {
  return StrFormat(
      "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
      "SUM(l_extendedprice) AS sum_base_price, "
      "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
      "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
      "AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, "
      "AVG(l_discount) AS avg_disc, COUNT(*) AS count_order "
      "FROM lineitem WHERE l_shipdate <= DATE '%s' "
      "GROUP BY l_returnflag, l_linestatus "
      "ORDER BY l_returnflag, l_linestatus",
      ship_cutoff.c_str());
}

std::string Q3Sql(const Q3Params& p) {
  return StrFormat(
      "SELECT o_orderkey, o_orderdate, o_shippriority, "
      "SUM(l_extendedprice * (1 - l_discount)) AS revenue "
      "FROM customer, orders, lineitem "
      "WHERE c_mktsegment = '%s' AND c_custkey = o_custkey "
      "AND l_orderkey = o_orderkey AND o_orderdate < DATE '%s' "
      "AND l_shipdate > DATE '%s' "
      "GROUP BY o_orderkey, o_orderdate, o_shippriority "
      "ORDER BY revenue DESC, o_orderdate LIMIT 10",
      p.segment.c_str(), p.date.c_str(), p.date.c_str());
}

std::string Q6Sql(const Q6Params& p) {
  return StrFormat(
      "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
      "WHERE l_shipdate >= DATE '%s' AND l_shipdate < DATE '%s' "
      "AND l_discount BETWEEN %.2f AND %.2f AND l_quantity < %lld",
      p.date_lo.c_str(), p.date_hi.c_str(), p.discount - 0.01,
      p.discount + 0.01, static_cast<long long>(p.quantity));
}

std::string SelectionSql(int64_t quantity_value) {
  return StrFormat(
      "SELECT l_orderkey, l_partkey, l_quantity, l_extendedprice "
      "FROM lineitem WHERE l_quantity = %lld",
      static_cast<long long>(quantity_value));
}

}  // namespace ecodb::tpch
