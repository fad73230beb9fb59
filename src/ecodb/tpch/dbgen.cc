#include "ecodb/tpch/dbgen.h"

#include <algorithm>
#include <cmath>

#include "ecodb/util/rng.h"
#include "ecodb/util/strings.h"

namespace ecodb::tpch {

const char* const kOrderDateLo = "1992-01-01";
const char* const kOrderDateHi = "1998-08-02";

const char* const kRegionNames[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                     "MIDDLE EAST"};

const NationSpec kNations[25] = {
    {"ALGERIA", 0},      {"ARGENTINA", 1}, {"BRAZIL", 1},
    {"CANADA", 1},       {"EGYPT", 4},     {"ETHIOPIA", 0},
    {"FRANCE", 3},       {"GERMANY", 3},   {"INDIA", 2},
    {"INDONESIA", 2},    {"IRAN", 4},      {"IRAQ", 4},
    {"JAPAN", 2},        {"JORDAN", 4},    {"KENYA", 0},
    {"MOROCCO", 0},      {"MOZAMBIQUE", 0}, {"PERU", 1},
    {"CHINA", 2},        {"ROMANIA", 3},   {"SAUDI ARABIA", 4},
    {"VIETNAM", 2},      {"RUSSIA", 3},    {"UNITED KINGDOM", 3},
    {"UNITED STATES", 1},
};

uint64_t CustomerCount(double sf) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(150000.0 * sf));
}
uint64_t OrderCount(double sf) { return CustomerCount(sf) * 10; }
uint64_t SupplierCount(double sf) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(10000.0 * sf));
}
uint64_t PartCount(double sf) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(200000.0 * sf));
}

Schema RegionSchema() {
  return Schema({Field("r_regionkey", ValueType::kInt64),
                 Field("r_name", ValueType::kString, 12),
                 Field("r_comment", ValueType::kString, 20)});
}

Schema NationSchema() {
  return Schema({Field("n_nationkey", ValueType::kInt64),
                 Field("n_name", ValueType::kString, 16),
                 Field("n_regionkey", ValueType::kInt64),
                 Field("n_comment", ValueType::kString, 20)});
}

Schema SupplierSchema() {
  return Schema({Field("s_suppkey", ValueType::kInt64),
                 Field("s_name", ValueType::kString, 18),
                 Field("s_address", ValueType::kString, 20),
                 Field("s_nationkey", ValueType::kInt64),
                 Field("s_phone", ValueType::kString, 15),
                 Field("s_acctbal", ValueType::kDouble),
                 Field("s_comment", ValueType::kString, 24)});
}

Schema CustomerSchema() {
  return Schema({Field("c_custkey", ValueType::kInt64),
                 Field("c_name", ValueType::kString, 18),
                 Field("c_address", ValueType::kString, 20),
                 Field("c_nationkey", ValueType::kInt64),
                 Field("c_phone", ValueType::kString, 15),
                 Field("c_acctbal", ValueType::kDouble),
                 Field("c_mktsegment", ValueType::kString, 10),
                 Field("c_comment", ValueType::kString, 24)});
}

Schema OrdersSchema() {
  return Schema({Field("o_orderkey", ValueType::kInt64),
                 Field("o_custkey", ValueType::kInt64),
                 Field("o_orderstatus", ValueType::kString, 1),
                 Field("o_totalprice", ValueType::kDouble),
                 Field("o_orderdate", ValueType::kDate),
                 Field("o_orderpriority", ValueType::kString, 10),
                 Field("o_clerk", ValueType::kString, 15),
                 Field("o_shippriority", ValueType::kInt64),
                 Field("o_comment", ValueType::kString, 24)});
}

Schema LineitemSchema() {
  return Schema({Field("l_orderkey", ValueType::kInt64),
                 Field("l_partkey", ValueType::kInt64),
                 Field("l_suppkey", ValueType::kInt64),
                 Field("l_linenumber", ValueType::kInt64),
                 Field("l_quantity", ValueType::kInt64),
                 Field("l_extendedprice", ValueType::kDouble),
                 Field("l_discount", ValueType::kDouble),
                 Field("l_tax", ValueType::kDouble),
                 Field("l_returnflag", ValueType::kString, 1),
                 Field("l_linestatus", ValueType::kString, 1),
                 Field("l_shipdate", ValueType::kDate),
                 Field("l_commitdate", ValueType::kDate),
                 Field("l_receiptdate", ValueType::kDate),
                 Field("l_shipinstruct", ValueType::kString, 12),
                 Field("l_shipmode", ValueType::kString, 7),
                 Field("l_comment", ValueType::kString, 16)});
}

Schema PartSchema() {
  return Schema({Field("p_partkey", ValueType::kInt64),
                 Field("p_name", ValueType::kString, 20),
                 Field("p_mfgr", ValueType::kString, 14),
                 Field("p_brand", ValueType::kString, 10),
                 Field("p_type", ValueType::kString, 16),
                 Field("p_size", ValueType::kInt64),
                 Field("p_container", ValueType::kString, 10),
                 Field("p_retailprice", ValueType::kDouble),
                 Field("p_comment", ValueType::kString, 14)});
}

Schema PartsuppSchema() {
  return Schema({Field("ps_partkey", ValueType::kInt64),
                 Field("ps_suppkey", ValueType::kInt64),
                 Field("ps_availqty", ValueType::kInt64),
                 Field("ps_supplycost", ValueType::kDouble),
                 Field("ps_comment", ValueType::kString, 20)});
}

namespace {

const char* const kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                  "MACHINERY", "HOUSEHOLD"};
const char* const kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                    "4-NOT SPECI", "5-LOW"};
const char* const kShipModes[7] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                                   "TRUCK",   "MAIL", "FOB"};
const char* const kShipInstruct[4] = {"DELIVER IN P", "COLLECT COD",
                                      "NONE", "TAKE BACK RE"};

/// Deterministic per-part retail price (TPC-H-like range 900..2100) so
/// lineitem prices don't require a part-table lookup.
double RetailPrice(int64_t partkey) {
  return 900.0 + static_cast<double>((partkey * 2654435761ULL) % 120001) / 100.0;
}

std::string Phone(Rng* rng, int64_t nationkey) {
  return StrFormat("%02d-%03d-%03d-%04d", static_cast<int>(10 + nationkey),
                   static_cast<int>(rng->UniformInt(100, 999)),
                   static_cast<int>(rng->UniformInt(100, 999)),
                   static_cast<int>(rng->UniformInt(1000, 9999)));
}

Status GenerateRegion(Catalog* catalog, Rng* rng) {
  ECODB_ASSIGN_OR_RETURN(Table * t,
                         catalog->CreateTable("region", RegionSchema()));
  for (int64_t i = 0; i < 5; ++i) {
    ECODB_RETURN_NOT_OK(
        t->AppendCells({i, kRegionNames[i], rng->AlphaString(8, 16)}));
  }
  return catalog->FinalizeLoad("region");
}

Status GenerateNation(Catalog* catalog, Rng* rng) {
  ECODB_ASSIGN_OR_RETURN(Table * t,
                         catalog->CreateTable("nation", NationSchema()));
  for (int64_t i = 0; i < 25; ++i) {
    ECODB_RETURN_NOT_OK(
        t->AppendCells({i, kNations[i].name, kNations[i].region_key,
                        rng->AlphaString(8, 16)}));
  }
  return catalog->FinalizeLoad("nation");
}

Status GenerateSupplier(Catalog* catalog, Rng* rng, uint64_t count) {
  ECODB_ASSIGN_OR_RETURN(Table * t,
                         catalog->CreateTable("supplier", SupplierSchema()));
  t->Reserve(count);
  for (uint64_t i = 1; i <= count; ++i) {
    int64_t nation = rng->UniformInt(0, 24);
    ECODB_RETURN_NOT_OK(t->AppendCells(
        {static_cast<int64_t>(i),
         StrFormat("Supplier#%09llu", static_cast<unsigned long long>(i)),
         rng->AlphaString(10, 20), nation, Phone(rng, nation),
         rng->UniformDouble(-999.99, 9999.99), rng->AlphaString(10, 24)}));
  }
  return catalog->FinalizeLoad("supplier");
}

Status GenerateCustomer(Catalog* catalog, Rng* rng, uint64_t count) {
  ECODB_ASSIGN_OR_RETURN(Table * t,
                         catalog->CreateTable("customer", CustomerSchema()));
  t->Reserve(count);
  for (uint64_t i = 1; i <= count; ++i) {
    int64_t nation = rng->UniformInt(0, 24);
    ECODB_RETURN_NOT_OK(t->AppendCells(
        {static_cast<int64_t>(i),
         StrFormat("Customer#%09llu", static_cast<unsigned long long>(i)),
         rng->AlphaString(10, 20), nation, Phone(rng, nation),
         rng->UniformDouble(-999.99, 9999.99), kSegments[rng->NextBelow(5)],
         rng->AlphaString(10, 24)}));
  }
  return catalog->FinalizeLoad("customer");
}

Status GenerateOrdersAndLineitem(Catalog* catalog, Rng* rng,
                                 uint64_t order_count, uint64_t customer_count,
                                 uint64_t supplier_count,
                                 uint64_t part_count) {
  ECODB_ASSIGN_OR_RETURN(Table * orders,
                         catalog->CreateTable("orders", OrdersSchema()));
  ECODB_ASSIGN_OR_RETURN(Table * lineitem,
                         catalog->CreateTable("lineitem", LineitemSchema()));
  orders->Reserve(order_count);
  lineitem->Reserve(order_count * 4);

  const int32_t date_lo = ParseDateToDays(kOrderDateLo);
  const int32_t date_hi = ParseDateToDays(kOrderDateHi);

  for (uint64_t o = 1; o <= order_count; ++o) {
    int64_t custkey =
        rng->UniformInt(1, static_cast<int64_t>(customer_count));
    int32_t orderdate =
        static_cast<int32_t>(rng->UniformInt(date_lo, date_hi - 1));
    int64_t nlines = rng->UniformInt(1, 7);

    double totalprice = 0.0;
    // Lineitems first to compute o_totalprice.
    for (int64_t l = 1; l <= nlines; ++l) {
      int64_t partkey = rng->UniformInt(1, static_cast<int64_t>(part_count));
      int64_t suppkey =
          rng->UniformInt(1, static_cast<int64_t>(supplier_count));
      int64_t quantity = rng->UniformInt(1, kQuantityValues);
      double price = RetailPrice(partkey) * static_cast<double>(quantity);
      double discount = rng->UniformInt(0, 10) / 100.0;
      double tax = rng->UniformInt(0, 8) / 100.0;
      int32_t shipdate =
          orderdate + static_cast<int32_t>(rng->UniformInt(1, 121));
      int32_t commitdate =
          orderdate + static_cast<int32_t>(rng->UniformInt(30, 90));
      int32_t receiptdate =
          shipdate + static_cast<int32_t>(rng->UniformInt(1, 30));
      totalprice += price * (1.0 - discount) * (1.0 + tax);
      ECODB_RETURN_NOT_OK(lineitem->AppendCells(
          {static_cast<int64_t>(o), partkey, suppkey, l, quantity, price,
           discount, tax,
           rng->Bernoulli(0.25) ? "R" : (rng->Bernoulli(0.5) ? "A" : "N"),
           shipdate > date_hi - 200 ? "O" : "F", shipdate, commitdate,
           receiptdate, kShipInstruct[rng->NextBelow(4)],
           kShipModes[rng->NextBelow(7)], rng->AlphaString(8, 16)}));
    }
    ECODB_RETURN_NOT_OK(orders->AppendCells(
        {static_cast<int64_t>(o), custkey, rng->Bernoulli(0.5) ? "F" : "O",
         totalprice, orderdate, kPriorities[rng->NextBelow(5)],
         StrFormat("Clerk#%08d", static_cast<int>(rng->UniformInt(1, 1000))),
         0, rng->AlphaString(10, 24)}));
  }
  ECODB_RETURN_NOT_OK(catalog->FinalizeLoad("orders"));
  return catalog->FinalizeLoad("lineitem");
}

Status GeneratePartAndPartsupp(Catalog* catalog, Rng* rng,
                               uint64_t part_count, uint64_t supplier_count) {
  ECODB_ASSIGN_OR_RETURN(Table * part,
                         catalog->CreateTable("part", PartSchema()));
  ECODB_ASSIGN_OR_RETURN(Table * partsupp,
                         catalog->CreateTable("partsupp", PartsuppSchema()));
  part->Reserve(part_count);
  partsupp->Reserve(part_count * 4);
  static const char* kContainers[5] = {"SM CASE", "LG BOX", "MED BAG",
                                       "JUMBO JAR", "WRAP PKG"};
  static const char* kTypes[6] = {"STANDARD",  "SMALL",  "MEDIUM",
                                  "LARGE",     "ECONOMY", "PROMO"};
  for (uint64_t p = 1; p <= part_count; ++p) {
    ECODB_RETURN_NOT_OK(part->AppendCells(
        {static_cast<int64_t>(p), rng->AlphaString(12, 20),
         StrFormat("Manufacturer#%d", static_cast<int>(rng->UniformInt(1, 5))),
         StrFormat("Brand#%d%d", static_cast<int>(rng->UniformInt(1, 5)),
                   static_cast<int>(rng->UniformInt(1, 5))),
         kTypes[rng->NextBelow(6)], rng->UniformInt(1, 50),
         kContainers[rng->NextBelow(5)],
         RetailPrice(static_cast<int64_t>(p)), rng->AlphaString(8, 14)}));
    for (int s = 0; s < 4; ++s) {
      int64_t suppkey =
          1 + static_cast<int64_t>((p + static_cast<uint64_t>(s) *
                                            (supplier_count / 4 + 1)) %
                                   supplier_count);
      ECODB_RETURN_NOT_OK(partsupp->AppendCells(
          {static_cast<int64_t>(p), suppkey, rng->UniformInt(1, 9999),
           rng->UniformDouble(1.0, 1000.0), rng->AlphaString(10, 20)}));
    }
  }
  ECODB_RETURN_NOT_OK(catalog->FinalizeLoad("part"));
  return catalog->FinalizeLoad("partsupp");
}

}  // namespace

Status Generate(const DbGenOptions& options, Catalog* catalog) {
  if (options.scale_factor <= 0) {
    return Status::InvalidArgument("scale_factor must be positive");
  }
  Rng rng(options.seed);
  uint64_t customers = CustomerCount(options.scale_factor);
  uint64_t orders = OrderCount(options.scale_factor);
  uint64_t suppliers = SupplierCount(options.scale_factor);
  uint64_t parts = PartCount(options.scale_factor);

  ECODB_RETURN_NOT_OK(GenerateRegion(catalog, &rng));
  ECODB_RETURN_NOT_OK(GenerateNation(catalog, &rng));
  ECODB_RETURN_NOT_OK(GenerateSupplier(catalog, &rng, suppliers));
  ECODB_RETURN_NOT_OK(GenerateCustomer(catalog, &rng, customers));
  ECODB_RETURN_NOT_OK(GenerateOrdersAndLineitem(catalog, &rng, orders,
                                                customers, suppliers, parts));
  if (options.include_part_tables) {
    ECODB_RETURN_NOT_OK(
        GeneratePartAndPartsupp(catalog, &rng, parts, suppliers));
  }
  return Status::OK();
}

}  // namespace ecodb::tpch
