// ecoDB repository benchmark driver.
//
// Runs one workload against ecoDB's public API and prints, as its last
// stdout line, one JSON object {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set; with
// --trace 1 they are the per-layer set, taken from a run that also records
// spans around every call into a layer (see README.md for the metric map).
//
// ecoDB runs on two clocks. Host metrics (queries_per_s, host_latency_*,
// setup_s, peak_rss_mb and the per-layer *_ms / *_us timings) are
// steady_clock wall time on the machine running the benchmark. Simulated
// metrics (sim_*, sim.*, morsel.*, scheduler.* counts, exec.* counts) come
// from the simulated PaperTestbed and are pure functions of the seed.
//
// Workloads:
//   analytic_w1  closed loop, one client, memory-resident, exec_workers=1;
//                the traced run also replays the stream once at two workers
//                for the morsel layer's figures
//   qed_stream   open-loop Poisson arrivals through the WorkloadScheduler on
//                a disk-backed profile with a 64-page buffer pool and
//                transient disk faults
//
// Every answer is checked outside the timed intervals: analytic queries (at
// either worker count) against a reference computed at one worker during
// set-up; scheduled
// queries against solo runs, plus the scheduler's conservation identities
// and bit-identical reports on every repeated pass.
//
// Usage:
//   ecobench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-dir <dir>] [--tiny] [--corrupt-reference]
// --tiny shrinks scale factors and stream lengths for the self-test;
// --corrupt-reference perturbs one reference answer so the run must fail.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ecodb/ecodb.h"

namespace ecobench {
namespace {

using ecodb::Database;
using ecodb::DatabaseOptions;
using ecodb::EnergyLedger;
using ecodb::QueryResult;
using ecodb::Row;
using ecodb::Value;
using SteadyClock = std::chrono::steady_clock;

double SecondsSince(SteadyClock::time_point t) {
  return std::chrono::duration<double>(SteadyClock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Command line

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
  bool tiny = false;
  bool corrupt_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&](const char** out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    const char* v = nullptr;
    char* end = nullptr;
    if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
    } else if (flag == "--workload" && value(&v)) {
      args->workload = v;
      have_workload = true;
    } else if (flag == "--seed" && value(&v)) {
      args->seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0';
    } else if (flag == "--seconds" && value(&v)) {
      args->seconds = std::strtod(v, &end);
      have_seconds = *v != '\0' && *end == '\0' && args->seconds > 0 &&
                     args->seconds <= 600;
    } else if (flag == "--trace" && value(&v)) {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      args->trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--trace-dir" && value(&v)) {
      args->trace_dir = v;
    } else {
      std::fprintf(stderr, "bad argument: %s\n", flag.c_str());
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    std::fprintf(stderr,
                 "usage: ecobench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-dir <dir>] [--tiny] "
                 "[--corrupt-reference]\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Order statistics

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Tracing: spans recorded from this file around each call into a layer,
// kept in memory and written out when the run ends.

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  /// Opens a span; returns its handle (-1 when tracing is off).
  int Begin(const char* name, uint64_t id, int parent) {
    if (!on_) return -1;
    spans_.push_back(Span{name, id, parent, SteadyClock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end = SteadyClock::now();
  }

  size_t size() const { return spans_.size(); }

  /// Self time (duration minus the time covered by direct children), in
  /// milliseconds, grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimesMs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = DurationMs(i);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const int parent = spans_[i].parent;
      if (parent >= 0) self[static_cast<size_t>(parent)] -= DurationMs(i);
    }
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].push_back(self[i]);
    }
    return out;
  }

  /// Writes one JSON object per line: name, id, parent, start/end in
  /// microseconds from the first span.
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const SteadyClock::time_point t0 =
        spans_.empty() ? SteadyClock::now() : spans_.front().start;
    auto us = [&](SteadyClock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - t0).count();
    };
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"id\": %llu, \"parent\": %d, "
                   "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                   s.name, static_cast<unsigned long long>(s.id), s.parent,
                   us(s.start), us(s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    uint64_t id;  ///< query id shared by a query's spans (0: none)
    int parent;   ///< index of the enclosing span, -1 for a root
    SteadyClock::time_point start;
    SteadyClock::time_point end;
  };

  double DurationMs(size_t i) const {
    return std::chrono::duration<double, std::milli>(spans_[i].end -
                                                     spans_[i].start)
        .count();
  }

  bool on_;
  std::vector<Span> spans_;
};

/// Host cost of one Begin/End pair, measured on a scratch tracer.
double MeasureSpanCostNs() {
  constexpr int kPairs = 200000;
  Tracer scratch(true);
  auto t = SteadyClock::now();
  for (int i = 0; i < kPairs; ++i) scratch.End(scratch.Begin("x", 0, -1));
  return SecondsSince(t) * 1e9 / kPairs;
}

// ---------------------------------------------------------------------------
// Answers: row count, an order-insensitive checksum of every row, an ordered
// checksum of the sort-key columns (ORDER BY shapes only), and for small
// results the canonically sorted rows, so that aggregates whose
// floating-point summation order legitimately changes still compare equal
// within a relative 1e-9.

constexpr size_t kSmallResultRows = 256;

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

struct Answer {
  uint64_t rows = 0;
  uint64_t bag = 0;
  uint64_t key_order = 0;
  std::vector<Row> sorted_rows;  ///< filled for small results only
};

bool RowLess(const Row& a, const Row& b) {
  for (size_t c = 0; c < a.size() && c < b.size(); ++c) {
    int cmp = a[c].Compare(b[c]);
    if (cmp != 0) return cmp < 0;
  }
  return a.size() < b.size();
}

/// `cell(r, c)` returns a CellView; `row(r)` a boxed Row.
template <typename CellFn, typename RowFn>
Answer Fingerprint(size_t num_rows, int num_cols,
                   const std::vector<int>& key_cols, CellFn cell, RowFn row) {
  Answer a;
  a.rows = num_rows;
  for (size_t r = 0; r < num_rows; ++r) {
    uint64_t h = 0x51ED270B;
    for (int c = 0; c < num_cols; ++c) {
      h = Mix(h ^ ecodb::HashCellView(cell(r, c)));
    }
    a.bag += Mix(h);
    for (int c : key_cols) {
      a.key_order = Mix(a.key_order ^ ecodb::HashCellView(cell(r, c)));
    }
  }
  if (num_rows <= kSmallResultRows) {
    for (size_t r = 0; r < num_rows; ++r) a.sorted_rows.push_back(row(r));
    std::sort(a.sorted_rows.begin(), a.sorted_rows.end(), RowLess);
  }
  return a;
}

Answer FingerprintResult(const ecodb::ResultSet& rs,
                         const std::vector<int>& key_cols) {
  return Fingerprint(
      rs.num_rows(), rs.num_cols(), key_cols,
      [&](size_t r, int c) { return rs.At(r, c); },
      [&](size_t r) { return rs.RowAt(r); });
}

Answer FingerprintRows(const std::vector<Row>& rows) {
  const int cols = rows.empty() ? 0 : static_cast<int>(rows[0].size());
  return Fingerprint(
      rows.size(), cols, {},
      [&](size_t r, int c) {
        return ecodb::CellView::Of(rows[r][static_cast<size_t>(c)]);
      },
      [&](size_t r) { return rows[r]; });
}

bool CellsClose(const Value& a, const Value& b) {
  if (a.type() == ecodb::ValueType::kDouble &&
      b.type() == ecodb::ValueType::kDouble) {
    double x = a.AsDouble(), y = b.AsDouble();
    return std::fabs(x - y) <=
           1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
  }
  return a.Compare(b) == 0;
}

bool Matches(const Answer& ref, const Answer& got) {
  if (ref.rows != got.rows || ref.key_order != got.key_order) return false;
  if (ref.bag == got.bag) return true;
  if (ref.rows > kSmallResultRows) return false;
  for (size_t r = 0; r < ref.sorted_rows.size(); ++r) {
    const Row& a = ref.sorted_rows[r];
    const Row& b = got.sorted_rows[r];
    if (a.size() != b.size()) return false;
    for (size_t c = 0; c < a.size(); ++c) {
      if (!CellsClose(a[c], b[c])) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Metrics. The two lists below are the benchmark's metric contract and must
// match BENCHMARK.json; a workload sets the values that apply to it and the
// rest print as 0 (per-layer metrics only).

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"queries_per_s", "1/s"},
    {"host_latency_ms_p50", "ms"},
    {"host_latency_ms_p90", "ms"},
    {"sim_joules_per_query", "J"},
    {"sim_cpu_joules_per_query", "J"},
    {"sim_seconds_per_query", "s"},
    {"sim_latency_s_p50", "s"},
    {"sim_latency_s_p99", "s"},
    {"completed_fraction", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"sql.plan_us_p50", "us"},
    {"sql.plan_share", "ratio"},
    {"exec.execute_ms_p50.q1", "ms"},
    {"exec.execute_ms_p50.q3", "ms"},
    {"exec.execute_ms_p50.q5", "ms"},
    {"exec.execute_ms_p50.q6", "ms"},
    {"exec.execute_ms_p50.selection", "ms"},
    {"exec.execute_ms_p50.group_by_strings", "ms"},
    {"exec.execute_ms_p50.order_by", "ms"},
    {"exec.rows_scanned_per_host_s", "rows/s"},
    {"exec.tuples_scanned_per_query", "count"},
    {"exec.comparisons_per_query", "count"},
    {"exec.hash_probes_per_query", "count"},
    {"exec.agg_updates_per_query", "count"},
    {"exec.sort_compares_per_query", "count"},
    {"exec.cycles_per_query", "count"},
    {"exec.mem_lines_per_query", "count"},
    {"exec.peak_memory_bytes", "bytes"},
    {"morsel.execute_ms_p50.q1", "ms"},
    {"morsel.execute_ms_p50.q3", "ms"},
    {"morsel.execute_ms_p50.q5", "ms"},
    {"morsel.execute_ms_p50.q6", "ms"},
    {"morsel.execute_ms_p50.selection", "ms"},
    {"morsel.execute_ms_p50.group_by_strings", "ms"},
    {"morsel.execute_ms_p50.order_by", "ms"},
    {"morsel.sim_seconds_per_query", "s"},
    {"morsel.sim_joules_per_query", "J"},
    {"morsel.sim_core_speedup", "ratio"},
    {"morsel.phase.stream.busy_s", "s"},
    {"morsel.phase.stream.makespan_s", "s"},
    {"morsel.phase.stream.sim_core_speedup", "ratio"},
    {"morsel.phase.join_build.busy_s", "s"},
    {"morsel.phase.join_build.makespan_s", "s"},
    {"morsel.phase.join_build.sim_core_speedup", "ratio"},
    {"morsel.phase.agg.busy_s", "s"},
    {"morsel.phase.agg.makespan_s", "s"},
    {"morsel.phase.agg.sim_core_speedup", "ratio"},
    {"morsel.phase.sort.busy_s", "s"},
    {"morsel.phase.sort.makespan_s", "s"},
    {"morsel.phase.sort.sim_core_speedup", "ratio"},
    {"storage.buffer_pool.hit_rate", "ratio"},
    {"storage.buffer_pool.misses_per_query", "count"},
    {"storage.buffer_pool.evictions", "count"},
    {"storage.buffer_pool.transient_faults", "count"},
    {"storage.buffer_pool.retries", "count"},
    {"storage.buffer_pool.persistent_faults", "count"},
    {"sim.cpu_j_per_query", "J"},
    {"sim.mem_j_per_query", "J"},
    {"sim.disk_j_per_query", "J"},
    {"sim.mobo_j_per_query", "J"},
    {"sim.fan_j_per_query", "J"},
    {"sim.gpu_j_per_query", "J"},
    {"sim.psu_loss_j_per_query", "J"},
    {"sim.busy_s", "s"},
    {"sim.io_s", "s"},
    {"sim.idle_s", "s"},
    {"scheduler.run_host_s", "s"},
    {"scheduler.merged_batches", "count"},
    {"scheduler.merged_members", "count"},
    {"scheduler.merge_ratio", "ratio"},
    {"scheduler.escalations", "count"},
    {"scheduler.max_level_reached", "count"},
    {"scheduler.retries", "count"},
    {"scheduler.shed", "count"},
    {"scheduler.breaker_opens", "count"},
    {"scheduler.makespan_s", "s"},
    {"scheduler.retry_success_ratio", "ratio"},
    {"tpch.load_s", "s"},
    {"span.setup.self_ms_p50", "ms"},
    {"span.setup.self_ms_iqr", "ms"},
    {"span.tpch.load.self_ms_p50", "ms"},
    {"span.tpch.load.self_ms_iqr", "ms"},
    {"span.query.self_ms_p50", "ms"},
    {"span.query.self_ms_iqr", "ms"},
    {"span.sql.plan.self_ms_p50", "ms"},
    {"span.sql.plan.self_ms_iqr", "ms"},
    {"span.exec.execute.self_ms_p50", "ms"},
    {"span.exec.execute.self_ms_iqr", "ms"},
    {"span.check.self_ms_p50", "ms"},
    {"span.check.self_ms_iqr", "ms"},
    {"span.scheduler.run.self_ms_p50", "ms"},
    {"span.scheduler.run.self_ms_iqr", "ms"},
    {"trace.spans", "count"},
    {"trace.span_cost_ns", "ns"},
    {"trace.queries_per_s", "1/s"},
    {"trace.host_latency_ms_p50", "ms"},
};

const char* const kSpanNames[] = {"setup",  "tpch.load", "query",
                                  "sql.plan", "exec.execute", "check",
                                  "scheduler.run"};

/// Everything a run measured, keyed by metric name, plus its verdict.
struct Outcome {
  std::map<std::string, double> values;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool ok = true;  ///< false on any API error (no result is printed)

  void Set(const std::string& name, double v) { values[name] = v; }
};

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void AddTraceMetrics(const Tracer& tracer, Outcome* out) {
  const auto self = tracer.SelfTimesMs();
  for (const char* name : kSpanNames) {
    auto it = self.find(name);
    if (it == self.end()) continue;
    const std::string base = std::string("span.") + name + ".self_ms_";
    out->Set(base + "p50", Quantile(it->second, 0.5));
    out->Set(base + "iqr",
             Quantile(it->second, 0.75) - Quantile(it->second, 0.25));
  }
  out->Set("trace.spans", static_cast<double>(tracer.size()));
  out->Set("trace.span_cost_ns", MeasureSpanCostNs());
}

/// Prints the metric set the --trace flag selects; returns false if a
/// workload produced a name outside the contract or a non-finite value.
bool PrintResult(const Outcome& out, bool trace) {
  std::vector<MetricDef> defs;
  if (trace) {
    defs.assign(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  for (const auto& [name, v] : out.values) {
    bool known = false;
    for (const MetricDef& d : kEndToEnd) known |= name == d.name;
    for (const MetricDef& d : kPerLayer) known |= name == d.name;
    if (!known || !std::isfinite(v)) {
      std::fprintf(stderr, "internal error: metric %s = %g\n", name.c_str(),
                   v);
      return false;
    }
  }
  const bool correct = out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = out.values.find(defs[i].name);
    double v = it == out.values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
  return true;
}

/// Adds the per-query shares of the ledger delta (Table 1's split).
void AddLedgerMetrics(const EnergyLedger& before, const EnergyLedger& after,
                      double queries, Outcome* out) {
  auto per_q = [&](double a, double b) { return Ratio(a - b, queries); };
  out->Set("sim.cpu_j_per_query", per_q(after.cpu_j, before.cpu_j));
  out->Set("sim.mem_j_per_query", per_q(after.mem_j, before.mem_j));
  out->Set("sim.disk_j_per_query", per_q(after.DiskJ(), before.DiskJ()));
  out->Set("sim.mobo_j_per_query", per_q(after.mobo_j, before.mobo_j));
  out->Set("sim.fan_j_per_query", per_q(after.fan_j, before.fan_j));
  out->Set("sim.gpu_j_per_query", per_q(after.gpu_j, before.gpu_j));
  out->Set("sim.psu_loss_j_per_query",
           per_q(after.wall_j - after.dc_j, before.wall_j - before.dc_j));
  out->Set("sim.busy_s", after.busy_s - before.busy_s);
  out->Set("sim.io_s", after.io_s - before.io_s);
  out->Set("sim.idle_s", after.idle_s - before.idle_s);
}

void AddBufferPoolMetrics(const ecodb::BufferPoolStats& before,
                          const ecodb::BufferPoolStats& after, double queries,
                          Outcome* out) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  out->Set("storage.buffer_pool.hit_rate", Ratio(hits, hits + misses));
  out->Set("storage.buffer_pool.misses_per_query", Ratio(misses, queries));
  out->Set("storage.buffer_pool.evictions",
           static_cast<double>(after.evictions - before.evictions));
  out->Set("storage.buffer_pool.transient_faults",
           static_cast<double>(after.transient_faults -
                               before.transient_faults));
  out->Set("storage.buffer_pool.retries",
           static_cast<double>(after.retries - before.retries));
  out->Set("storage.buffer_pool.persistent_faults",
           static_cast<double>(after.persistent_faults -
                               before.persistent_faults));
}

/// Builds, loads and cold-restarts a database `repeats` times, keeping the
/// last one; records the median set-up and load times.
std::unique_ptr<Database> SetUp(const DatabaseOptions& options, double sf,
                                int repeats, Tracer* tracer, Outcome* out) {
  std::vector<double> setup_s, load_s;
  std::unique_ptr<Database> db;
  for (int i = 0; i < repeats; ++i) {
    db.reset();
    const int span = tracer->Begin("setup", 0, -1);
    auto t0 = SteadyClock::now();
    db = std::make_unique<Database>(options);
    ecodb::tpch::DbGenOptions gen;
    gen.scale_factor = sf;
    const int load_span = tracer->Begin("tpch.load", 0, span);
    auto t1 = SteadyClock::now();
    ecodb::Status st = db->LoadTpch(gen);
    load_s.push_back(SecondsSince(t1));
    tracer->End(load_span);
    db->ColdRestart();
    setup_s.push_back(SecondsSince(t0));
    tracer->End(span);
    if (!st.ok()) {
      std::fprintf(stderr, "LoadTpch failed: %s\n", st.ToString().c_str());
      out->ok = false;
      return nullptr;
    }
  }
  out->Set("setup_s", Quantile(setup_s, 0.5));
  out->Set("tpch.load_s", Quantile(load_s, 0.5));
  return db;
}

// ---------------------------------------------------------------------------
// analytic_w1: a closed loop of SQL queries, one client.

enum Shape {
  kQ1,
  kQ3,
  kQ5,
  kQ6,
  kSelection,
  kGroupByStrings,
  kOrderBy,
  kNumShapes
};

struct ShapeInfo {
  const char* name;
  /// Instances per cycle (40 queries). The lineitem ORDER BY costs ~40x the
  /// median query, so the cheap shapes are repeated until it takes under
  /// half of the host time. At one worker the shapes' host latencies rank
  /// selection < q6 < q3 < group_by_strings < q1 < q5 < order_by, and these
  /// counts put the p50 rank in the middle of Q3's block and the p90 rank in
  /// the middle of Q5's, so each reads a shape's median, not a boundary.
  int weight;
};

constexpr ShapeInfo kShapes[kNumShapes] = {
    {"q1", 5},        {"q3", 6},
    {"q5", 6},        {"q6", 7},
    {"selection", 10}, {"group_by_strings", 5},
    {"order_by", 1},
};

constexpr const char* kGroupByStringsSql =
    "SELECT l_shipmode, l_returnflag, l_linestatus, SUM(l_quantity) AS qty, "
    "COUNT(*) AS n, MIN(l_shipinstruct) AS min_instruct FROM lineitem "
    "GROUP BY l_shipmode, l_returnflag, l_linestatus";
/// The ship-date cutoff keeps ~98% of lineitem; it is seeded so that the
/// sort's simulated time, which sets sim_latency_s_p99, varies with the seed.
constexpr const char* kOrderBySql =
    "SELECT * FROM lineitem WHERE l_shipdate <= DATE '%s' "
    "ORDER BY l_shipdate DESC, l_orderkey";

struct QueryInstance {
  Shape shape;
  std::string sql;
};

std::string YearStart(int year) { return std::to_string(year) + "-01-01"; }

/// TPC-H Q1's ship-date cutoff, 1998-12-01 minus 60..120 days, as
/// 1998-08-03 plus `k` days (k in 0..60). Keeps ~98% of lineitem.
std::string ShipCutoff(int k) {
  if (k < 29) return ecodb::StrFormat("1998-08-%02d", 3 + k);
  if (k < 59) return ecodb::StrFormat("1998-09-%02d", k - 28);
  return ecodb::StrFormat("1998-10-%02d", k - 58);
}

/// `cycles` seeded cycles; each holds every shape `weight` times with its
/// own parameters, in a seeded order. Region, segment and year, which change
/// a query's work most, are dealt from balanced decks: every seed uses each
/// value equally often (to within one) and only the order and pairing vary,
/// so the host-time percentiles do not hinge on which regions a seed drew.
/// Only mt19937_64's output is used, which the standard fixes, so a seed
/// gives the same stream on every toolchain.
std::vector<std::vector<QueryInstance>> MakeCycles(uint64_t seed, int cycles) {
  static const char* const kRegions[] = {"AFRICA", "AMERICA", "ASIA",
                                         "EUROPE", "MIDDLE EAST"};
  static const char* const kSegments[] = {"AUTOMOBILE", "BUILDING",
                                          "FURNITURE", "HOUSEHOLD",
                                          "MACHINERY"};
  std::mt19937_64 rng(seed);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  auto shuffle = [&](auto& v) {
    for (size_t i = v.size() - 1; i > 0; --i) {
      std::swap(v[i], v[static_cast<size_t>(pick(0, static_cast<int>(i)))]);
    }
  };
  auto deck = [&](Shape shape) {
    std::vector<int> v(static_cast<size_t>(kShapes[shape].weight * cycles));
    for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i % 5);
    shuffle(v);
    return v;
  };
  const std::vector<int> q3_segment = deck(kQ3), q5_region = deck(kQ5),
                         q5_year = deck(kQ5), q6_year = deck(kQ6);
  int n_q3 = 0, n_q5 = 0, n_q6 = 0;
  std::vector<std::vector<QueryInstance>> out(static_cast<size_t>(cycles));
  for (auto& cycle : out) {
    for (int s = 0; s < kNumShapes; ++s) {
      for (int k = 0; k < kShapes[s].weight; ++k) {
        std::string sql;
        switch (static_cast<Shape>(s)) {
          case kQ1:
            sql = ecodb::tpch::Q1Sql(ShipCutoff(pick(0, 60)));
            break;
          case kQ3: {
            ecodb::tpch::Q3Params p;
            p.segment = kSegments[q3_segment[n_q3++]];
            p.date = ecodb::StrFormat("1995-03-%02d", pick(1, 31));
            sql = ecodb::tpch::Q3Sql(p);
            break;
          }
          case kQ5: {
            ecodb::tpch::Q5Params p;
            p.region = kRegions[q5_region[n_q5]];
            const int year = 1993 + q5_year[n_q5++];
            p.date_lo = YearStart(year);
            p.date_hi = YearStart(year + 1);
            sql = ecodb::tpch::Q5Sql(p);
            break;
          }
          case kQ6: {
            ecodb::tpch::Q6Params p;
            const int year = 1993 + q6_year[n_q6++];
            p.date_lo = YearStart(year);
            p.date_hi = YearStart(year + 1);
            sql = ecodb::tpch::Q6Sql(p);
            break;
          }
          case kSelection:
            sql = ecodb::tpch::SelectionSql(pick(1, 50));
            break;
          case kGroupByStrings:
            sql = kGroupByStringsSql;
            break;
          case kOrderBy:
          case kNumShapes:
            sql = ecodb::StrFormat(kOrderBySql, ShipCutoff(pick(0, 60)).c_str());
            break;
        }
        cycle.push_back(QueryInstance{static_cast<Shape>(s), sql});
      }
    }
    shuffle(cycle);
  }
  return out;
}

/// Sort-key columns whose order the answer check pins (ORDER BY shape).
std::vector<int> OrderKeyCols(Shape shape, const ecodb::Schema& schema) {
  if (shape != kOrderBy) return {};
  return {schema.FindField("l_shipdate"), schema.FindField("l_orderkey")};
}

/// One query's planned-and-executed result with its host times.
struct Timed {
  ecodb::Result<QueryResult> result = ecodb::Status::Internal("not run");
  double plan_s = 0;
  double exec_s = 0;
};

Timed PlanAndExecute(Database* db, const std::string& sql, uint64_t id,
                     int parent, Tracer* tracer) {
  Timed t;
  const int plan_span = tracer->Begin("sql.plan", id, parent);
  auto t0 = SteadyClock::now();
  ecodb::Result<ecodb::PlanNodePtr> plan = db->PlanSql(sql);
  auto t1 = SteadyClock::now();
  tracer->End(plan_span);
  t.plan_s = std::chrono::duration<double>(t1 - t0).count();
  if (!plan.ok()) {
    t.result = plan.status();
    return t;
  }
  const int exec_span = tracer->Begin("exec.execute", id, parent);
  auto t2 = SteadyClock::now();
  t.result = db->ExecutePlanQuery(*plan.value());
  t.exec_s = SecondsSince(t2);
  tracer->End(exec_span);
  return t;
}

struct PhaseTotals {
  double busy_s = 0;
  double makespan_s = 0;
};

/// What a run of analytic cycles measured. Host figures cover every query;
/// simulated figures and counts cover the first `sim_cycles` cycles only.
struct CycleStats {
  std::vector<double> latency_ms, plan_us;
  std::vector<double> host_ms[kNumShapes], exec_ms[kNumShapes];
  double plan_total_s = 0, exec_total_s = 0, rows_scanned = 0;
  uint64_t correct = 0;

  std::vector<double> sim_seconds, sim_wall_j, sim_cpu_j;
  ecodb::QueryExecStats exec_sum;
  uint64_t peak_memory = 0;
  double core_busy = 0, core_makespan = 0;
  std::map<std::string, PhaseTotals> phases;
  EnergyLedger ledger_before, ledger_after;

  /// Queries per host second of one weighted cycle with every shape at its
  /// median host time: the medians keep a few queries slowed by other load
  /// on the host from moving the figure.
  double QueriesPerSecond() const {
    double queries = 0, ms = 0;
    for (int s = 0; s < kNumShapes; ++s) {
      queries += kShapes[s].weight;
      ms += kShapes[s].weight * Quantile(host_ms[s], 0.5);
    }
    return Ratio(queries * 1e3, ms);
  }
};

/// Plays the cycles in order, wrapping around, until at least `sim_cycles`
/// cycles have run and `min_seconds` have passed; stops only at a cycle
/// boundary so every shape keeps its weight. Every answer is checked
/// against `reference` outside the timed interval.
void RunCycles(Database* db,
               const std::vector<std::vector<QueryInstance>>& cycles,
               const std::unordered_map<std::string, Answer>& reference,
               double min_seconds, Tracer* tracer, Outcome* out,
               CycleStats* st) {
  const int sim_cycles = static_cast<int>(cycles.size());
  st->ledger_before = db->machine()->ledger();
  auto start = SteadyClock::now();
  for (int c = 0;; ++c) {
    const bool sim_pass = c < sim_cycles;
    for (const QueryInstance& q : cycles[static_cast<size_t>(c % sim_cycles)]) {
      const uint64_t id = ++out->attempted;
      if (sim_pass) db->machine()->ResetCoreLedgers();
      const int span = tracer->Begin("query", id, -1);
      Timed t = PlanAndExecute(db, q.sql, id, span, tracer);
      if (!t.result.ok()) {
        tracer->End(span);
        std::fprintf(stderr, "query failed: %s\n",
                     t.result.status().ToString().c_str());
        ++out->failed;
        continue;
      }
      const QueryResult& r = t.result.value();
      const int check_span = tracer->Begin("check", id, span);
      const bool match =
          Matches(reference.at(q.sql),
                  FingerprintResult(r.result, OrderKeyCols(q.shape, r.schema)));
      tracer->End(check_span);
      tracer->End(span);
      if (match) {
        ++st->correct;
      } else {
        std::fprintf(stderr, "wrong answer for: %s\n", q.sql.c_str());
        ++out->failed;
      }

      const double host_s = t.plan_s + t.exec_s;
      st->plan_total_s += t.plan_s;
      st->exec_total_s += t.exec_s;
      st->latency_ms.push_back(host_s * 1e3);
      st->plan_us.push_back(t.plan_s * 1e6);
      st->host_ms[q.shape].push_back(host_s * 1e3);
      st->exec_ms[q.shape].push_back(t.exec_s * 1e3);
      st->rows_scanned += static_cast<double>(r.exec_stats.tuples_scanned);

      if (!sim_pass) continue;
      st->sim_seconds.push_back(r.seconds);
      st->sim_wall_j.push_back(r.wall_joules);
      st->sim_cpu_j.push_back(r.cpu_joules);
      const ecodb::QueryExecStats& s = r.exec_stats;
      ecodb::QueryExecStats& sum = st->exec_sum;
      sum.tuples_scanned += s.tuples_scanned;
      sum.comparisons += s.comparisons;
      sum.hash_probes += s.hash_probes;
      sum.agg_updates += s.agg_updates;
      sum.sort_compares += s.sort_compares;
      sum.cycles_charged += s.cycles_charged;
      sum.mem_lines_charged += s.mem_lines_charged;
      st->peak_memory = std::max(st->peak_memory, s.peak_memory_bytes);
      const ecodb::Machine& m = *db->machine();
      const ecodb::ParallelPhaseSummary all = m.SummarizeCorePhase();
      st->core_busy += all.busy_sum_s;
      st->core_makespan += all.makespan_s;
      for (const ecodb::CorePhase& p : m.core_phases()) {
        const ecodb::ParallelPhaseSummary ps =
            m.SummarizeCoreLedgers(p.ledgers);
        st->phases[p.label].busy_s += ps.busy_sum_s;
        st->phases[p.label].makespan_s += ps.makespan_s;
      }
    }
    if (c + 1 == sim_cycles) st->ledger_after = db->machine()->ledger();
    if (c + 1 >= sim_cycles && SecondsSince(start) >= min_seconds) break;
  }
}

/// analytic_w1. The timed loop runs at one worker. The traced run first
/// replays the simulated-metric cycles once at two workers (untraced) to
/// measure the morsel layer: its host times on this kind of shared VM are
/// bimodal from run to run (thread start-up and wake-up latency), too
/// unsteady for a bounded end-to-end workload, so they are reported as
/// per-layer figures only.
void RunAnalytic(const Args& args, Tracer* tracer, Outcome* out) {
  const double sf = args.tiny ? 0.005 : 0.05;
  const int sim_cycles = args.tiny ? 1 : 4;
  const int setups = args.tiny ? 2 : 5;
  constexpr int kMorselWorkers = 2;  // the PaperTestbed's core count

  DatabaseOptions options;
  options.profile = ecodb::EngineProfile::MySqlMemory();
  options.exec_workers = 1;
  std::unique_ptr<Database> db = SetUp(options, sf, setups, tracer, out);
  if (!db) return;

  const auto cycles = MakeCycles(args.seed, sim_cycles);
  std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"sf\": %g, \"exec_workers\": 1, \"host_cpus\": %u, "
              "\"buffer_pool_pages\": 0, \"queries_per_cycle\": %zu, "
              "\"sim_cycles\": %d, \"weights\": {",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), sf,
              std::thread::hardware_concurrency(), cycles[0].size(),
              sim_cycles);
  for (int s = 0; s < kNumShapes; ++s) {
    std::printf("%s\"%s\": %d", s ? ", " : "", kShapes[s].name,
                kShapes[s].weight);
  }
  std::printf("}}}\n");

  // Reference answers, computed once at one worker before anything is
  // timed.
  std::unordered_map<std::string, Answer> reference;
  for (const auto& cycle : cycles) {
    for (const QueryInstance& q : cycle) {
      if (reference.count(q.sql)) continue;
      auto r = db->ExecuteSql(q.sql);
      if (!r.ok()) {
        std::fprintf(stderr, "reference query failed: %s\n",
                     r.status().ToString().c_str());
        out->ok = false;
        return;
      }
      reference[q.sql] = FingerprintResult(
          r.value().result, OrderKeyCols(q.shape, r.value().schema));
    }
  }
  if (args.corrupt_reference) reference[cycles[0][0].sql].rows += 1;

  CycleStats par;
  if (args.trace) {
    Tracer untraced(false);
    db->set_exec_workers(kMorselWorkers);
    RunCycles(db.get(), cycles, reference, 0.0, &untraced, out, &par);
    db->set_exec_workers(1);
  }
  CycleStats st;
  RunCycles(db.get(), cycles, reference, args.seconds, tracer, out, &st);

  const double sim_queries = static_cast<double>(st.sim_seconds.size());
  out->Set("queries_per_s", st.QueriesPerSecond());
  out->Set("host_latency_ms_p50", Quantile(st.latency_ms, 0.5));
  out->Set("host_latency_ms_p90", Quantile(st.latency_ms, 0.9));
  out->Set("sim_joules_per_query", Mean(st.sim_wall_j));
  out->Set("sim_cpu_joules_per_query", Mean(st.sim_cpu_j));
  out->Set("sim_seconds_per_query", Mean(st.sim_seconds));
  out->Set("sim_latency_s_p50", Quantile(st.sim_seconds, 0.5));
  out->Set("sim_latency_s_p99", Quantile(st.sim_seconds, 0.99));
  out->Set("completed_fraction",
           Ratio(static_cast<double>(st.correct + par.correct),
                 static_cast<double>(out->attempted)));

  out->Set("sql.plan_us_p50", Quantile(st.plan_us, 0.5));
  out->Set("sql.plan_share",
           Ratio(st.plan_total_s, st.plan_total_s + st.exec_total_s));
  for (int s = 0; s < kNumShapes; ++s) {
    out->Set(std::string("exec.execute_ms_p50.") + kShapes[s].name,
             Quantile(st.exec_ms[s], 0.5));
    out->Set(std::string("morsel.execute_ms_p50.") + kShapes[s].name,
             Quantile(par.exec_ms[s], 0.5));
  }
  out->Set("exec.rows_scanned_per_host_s",
           Ratio(st.rows_scanned, st.exec_total_s));
  const ecodb::QueryExecStats& sum = st.exec_sum;
  auto per_q = [&](double v) { return Ratio(v, sim_queries); };
  out->Set("exec.tuples_scanned_per_query",
           per_q(static_cast<double>(sum.tuples_scanned)));
  out->Set("exec.comparisons_per_query",
           per_q(static_cast<double>(sum.comparisons)));
  out->Set("exec.hash_probes_per_query",
           per_q(static_cast<double>(sum.hash_probes)));
  out->Set("exec.agg_updates_per_query",
           per_q(static_cast<double>(sum.agg_updates)));
  out->Set("exec.sort_compares_per_query",
           per_q(static_cast<double>(sum.sort_compares)));
  out->Set("exec.cycles_per_query", per_q(sum.cycles_charged));
  out->Set("exec.mem_lines_per_query", per_q(sum.mem_lines_charged));
  out->Set("exec.peak_memory_bytes", static_cast<double>(st.peak_memory));
  out->Set("morsel.sim_seconds_per_query", Mean(par.sim_seconds));
  out->Set("morsel.sim_joules_per_query", Mean(par.sim_wall_j));
  out->Set("morsel.sim_core_speedup", Ratio(par.core_busy, par.core_makespan));
  for (const auto& [label, p] : par.phases) {
    const std::string base = "morsel.phase." + label + ".";
    out->Set(base + "busy_s", p.busy_s);
    out->Set(base + "makespan_s", p.makespan_s);
    out->Set(base + "sim_core_speedup", Ratio(p.busy_s, p.makespan_s));
  }
  AddLedgerMetrics(st.ledger_before, st.ledger_after, sim_queries, out);
  // Memory-resident profile: no buffer pool traffic, so these stay 0.
  const ecodb::BufferPoolStats none;
  AddBufferPoolMetrics(none, none, sim_queries, out);
  out->Set("trace.queries_per_s", st.QueriesPerSecond());
  out->Set("trace.host_latency_ms_p50", Quantile(st.latency_ms, 0.5));
}

// ---------------------------------------------------------------------------
// qed_stream: open-loop arrivals through the WorkloadScheduler.

constexpr double kArrivalQps = 5.0;
constexpr double kSelectionFraction = 0.8;
constexpr uint64_t kBufferPoolPages = 64;

/// Two SLA classes, as in bench/workload_scheduler.cc: "interactive" has an
/// absolute deadline and one retry, "batch" no deadline and two retries.
ecodb::SchedulerOptions MakeSchedulerOptions(uint64_t seed, bool keep_rows) {
  ecodb::SchedulerOptions opt;
  opt.seed = seed;
  opt.worker_slots = 2;
  opt.max_queue_depth = 8;
  opt.keep_rows = keep_rows;
  ecodb::SchedulerClass interactive;
  interactive.name = "interactive";
  interactive.sla.max_seconds = 30.0;
  interactive.retry_budget = 1;
  opt.classes.push_back(interactive);
  ecodb::SchedulerClass batch;
  batch.name = "batch";
  batch.retry_budget = 2;
  opt.classes.push_back(batch);
  return opt;
}

/// A window's simulated outcome, compared across passes: counts must repeat
/// exactly; times and energies accumulate thousands of small charges on the
/// machine's running clock and ledger, whose rounding depends on where a
/// pass starts (passes differ by ~1e-9 relative), so they must agree to a
/// relative 1e-6.
struct ReportSignature {
  std::vector<int64_t> counts;
  std::vector<double> amounts;

  explicit ReportSignature(const ecodb::ScheduleReport& r) {
    counts = {static_cast<int64_t>(r.completed),
              static_cast<int64_t>(r.failed),
              static_cast<int64_t>(r.shed_queue_full),
              static_cast<int64_t>(r.shed_projected_wait),
              static_cast<int64_t>(r.retries),
              static_cast<int64_t>(r.merged_members),
              static_cast<int64_t>(r.escalations)};
    amounts = {r.makespan_seconds, r.total_wall_j};
    for (const ecodb::QueryOutcome& o : r.outcomes) {
      counts.push_back(static_cast<int64_t>(o.status.code()));
      counts.push_back(o.attempts);
      counts.push_back(o.merged);
      amounts.push_back(o.latency_seconds);
    }
  }

  bool SameAs(const ReportSignature& other) const {
    if (counts != other.counts || amounts.size() != other.amounts.size()) {
      return false;
    }
    for (size_t i = 0; i < amounts.size(); ++i) {
      const double a = amounts[i], b = other.amounts[i];
      if (std::fabs(a - b) > 1e-6 * std::max(std::fabs(a), std::fabs(b))) {
        return false;
      }
    }
    return true;
  }
};

/// Checks the report's conservation identities and ladder contract.
bool ReportConsistent(const ecodb::ScheduleReport& r, size_t submitted) {
  return r.submitted == submitted &&
         r.submitted == r.admitted + r.shed_queue_full +
                            r.shed_projected_wait + r.breaker_rejected &&
         r.admitted == r.completed + r.failed &&
         r.sheds_below_max_level == 0 && r.outcomes.size() == submitted;
}

void RunQedStream(const Args& args, Tracer* tracer, Outcome* out) {
  const double sf = args.tiny ? 0.001 : 0.002;
  const int windows = args.tiny ? 2 : 10;
  const int window_queries = args.tiny ? 200 : 1000;
  const int setups = args.tiny ? 2 : 9;

  DatabaseOptions options;
  options.profile = ecodb::EngineProfile::Commercial();
  // A pool ~3x smaller than the data: scans keep reading the simulated
  // disk, where the injected transient faults land.
  options.profile.buffer_pool_pages = kBufferPoolPages;
  options.fault_injection.seed = Mix(args.seed ^ 0xFA17);
  options.fault_injection.transient_fault_rate = 1e-3;
  // No buffer-pool retries: a faulted read kills the query and the
  // scheduler's retry layer (backoff + per-class budget) recovers it.
  options.fault_injection.max_retries = 0;
  std::unique_ptr<Database> db = SetUp(options, sf, setups, tracer, out);
  if (!db) return;

  std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"sf\": %g, \"exec_workers\": 1, \"host_cpus\": %u, "
              "\"buffer_pool_pages\": %llu, \"arrival_qps\": %g, "
              "\"windows\": %d, \"window_queries\": %d, "
              "\"weights\": {\"selection\": %g, \"heavy\": %g}}}\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), sf,
              std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(kBufferPoolPages), kArrivalQps,
              windows, window_queries, kSelectionFraction,
              1.0 - kSelectionFraction);

  // Each window is an independent open-loop stream of `window_queries`
  // arrivals with its own seeded mix and arrival times; the queue drains
  // between windows, so each window's Run is one host-time sample.
  std::mt19937_64 rng(args.seed);
  std::vector<uint64_t> window_seeds;
  for (int w = 0; w < windows; ++w) window_seeds.push_back(rng());

  // The same mix built on a fault-free memory-resident copy of the data
  // gives every query's solo answer (deduplicated by plan).
  DatabaseOptions ref_options;
  ref_options.profile = ecodb::EngineProfile::MySqlMemory();
  Database ref_db(ref_options);
  ecodb::tpch::DbGenOptions gen;
  gen.scale_factor = sf;
  if (!ref_db.LoadTpch(gen).ok()) {
    out->ok = false;
    return;
  }
  std::vector<ecodb::tpch::Workload> mixes;
  std::vector<std::vector<Answer*>> solo(static_cast<size_t>(windows));
  std::unordered_map<std::string, Answer> solo_by_plan;
  double mergeable = 0;
  for (int w = 0; w < windows; ++w) {
    auto mix = ecodb::tpch::MakeSchedulerMixWorkload(
        *db->catalog(), window_queries, window_seeds[static_cast<size_t>(w)],
        kSelectionFraction);
    auto ref_mix = ecodb::tpch::MakeSchedulerMixWorkload(
        *ref_db.catalog(), window_queries,
        window_seeds[static_cast<size_t>(w)], kSelectionFraction);
    if (!mix.ok() || !ref_mix.ok()) {
      out->ok = false;
      return;
    }
    for (int64_t key : mix.value().merge_keys) mergeable += key >= 0;
    for (const ecodb::PlanNodePtr& plan : ref_mix.value().queries) {
      const std::string key = plan->Explain();
      auto it = solo_by_plan.find(key);
      if (it == solo_by_plan.end()) {
        auto r = ref_db.ExecutePlanQuery(*plan);
        if (!r.ok()) {
          out->ok = false;
          return;
        }
        it = solo_by_plan
                 .emplace(key, FingerprintRows(r.value().result.rows()))
                 .first;
      }
      solo[static_cast<size_t>(w)].push_back(&it->second);
    }
    mixes.push_back(std::move(mix).value());
  }
  if (args.corrupt_reference) {
    solo[0][0]->rows += 1;
  }

  // Pass 0 keeps rows and is the checking pass; it also gives the
  // simulated metrics. Later passes are timed and must reproduce pass 0's
  // reports exactly. Each pass starts cold with the fault schedule rewound.
  std::vector<ReportSignature> signatures;
  std::vector<double> run_host_s, window_qps, host_ms_per_query;
  std::vector<double> latencies;
  uint64_t completed = 0, submitted = 0, retried = 0, retry_completed = 0;
  uint64_t merged_batches = 0, merged_members = 0, escalations = 0;
  uint64_t retries = 0, shed = 0, breaker_opens = 0;
  int max_level = 0;
  double makespan_s = 0;
  EnergyLedger ledger_before, ledger_after;
  ecodb::BufferPoolStats pool_before, pool_after;

  auto timed_start = SteadyClock::now();
  bool done = false;
  for (int pass = 0; !done; ++pass) {
    db->ColdRestart();
    db->fault_injector()->Reset();
    const bool checking = pass == 0;
    if (checking) {
      ledger_before = db->machine()->ledger();
      pool_before = db->buffer_pool()->stats();
    }
    for (int w = 0; w < windows; ++w) {
      const auto specs = ecodb::WorkloadScheduler::SpecsFromWorkload(
          mixes[static_cast<size_t>(w)], /*num_classes=*/2);
      ecodb::WorkloadScheduler sched(
          db.get(),
          MakeSchedulerOptions(window_seeds[static_cast<size_t>(w)], checking));
      const int span = tracer->Begin("scheduler.run", 0, -1);
      auto t0 = SteadyClock::now();
      auto report =
          sched.Run(specs, ecodb::ArrivalProcess::OpenLoop(kArrivalQps));
      const double host_s = SecondsSince(t0);
      tracer->End(span);
      if (!report.ok()) {
        std::fprintf(stderr, "scheduler run failed: %s\n",
                     report.status().ToString().c_str());
        out->ok = false;
        return;
      }
      const ecodb::ScheduleReport& r = report.value();
      out->attempted += specs.size();
      if (!ReportConsistent(r, specs.size())) {
        std::fprintf(stderr, "window %d: report identities violated\n", w);
        ++out->failed;
      }
      if (!checking) {
        run_host_s.push_back(host_s);
        window_qps.push_back(Ratio(static_cast<double>(r.completed), host_s));
        host_ms_per_query.push_back(
            host_s * 1e3 / static_cast<double>(specs.size()));
        if (!ReportSignature(r).SameAs(signatures[static_cast<size_t>(w)])) {
          std::fprintf(stderr, "window %d: pass %d differs from pass 0\n", w,
                       pass);
          ++out->failed;
        }
        if (SecondsSince(timed_start) >= args.seconds) {
          done = true;
          break;
        }
        continue;
      }

      signatures.emplace_back(r);
      const int check_span = tracer->Begin("check", 0, -1);
      for (size_t i = 0; i < r.outcomes.size(); ++i) {
        const ecodb::QueryOutcome& o = r.outcomes[i];
        if (o.attempts > 1) {
          ++retried;
          retry_completed += o.status.ok();
        }
        if (!o.status.ok()) continue;
        if (Matches(*solo[static_cast<size_t>(w)][i], FingerprintRows(o.rows))) {
          ++completed;
          latencies.push_back(o.latency_seconds);
        } else {
          std::fprintf(stderr, "window %d query %zu: wrong answer\n", w, i);
          ++out->failed;
        }
      }
      tracer->End(check_span);
      submitted += r.submitted;
      merged_batches += r.merged_batches;
      merged_members += r.merged_members;
      escalations += r.escalations;
      retries += r.retries;
      shed += r.shed_queue_full + r.shed_projected_wait;
      breaker_opens += r.breaker_opens;
      max_level = std::max(max_level, r.max_level_reached);
      makespan_s += r.makespan_seconds;
    }
    if (checking) {
      ledger_after = db->machine()->ledger();
      pool_after = db->buffer_pool()->stats();
      timed_start = SteadyClock::now();
    }
  }

  const double done_q = static_cast<double>(completed);
  out->Set("queries_per_s", Quantile(window_qps, 0.5));
  out->Set("host_latency_ms_p50", Quantile(host_ms_per_query, 0.5));
  out->Set("host_latency_ms_p90", Quantile(host_ms_per_query, 0.9));
  out->Set("sim_joules_per_query",
           Ratio(ledger_after.wall_j - ledger_before.wall_j, done_q));
  out->Set("sim_cpu_joules_per_query",
           Ratio(ledger_after.cpu_j - ledger_before.cpu_j, done_q));
  out->Set("sim_seconds_per_query", Mean(latencies));
  out->Set("sim_latency_s_p50", Quantile(latencies, 0.5));
  out->Set("sim_latency_s_p99", Quantile(latencies, 0.99));
  out->Set("completed_fraction",
           Ratio(done_q, static_cast<double>(submitted)));

  AddLedgerMetrics(ledger_before, ledger_after, done_q, out);
  AddBufferPoolMetrics(pool_before, pool_after, static_cast<double>(submitted),
                       out);
  out->Set("scheduler.run_host_s", Quantile(run_host_s, 0.5));
  out->Set("scheduler.merged_batches", static_cast<double>(merged_batches));
  out->Set("scheduler.merged_members", static_cast<double>(merged_members));
  out->Set("scheduler.merge_ratio",
           Ratio(static_cast<double>(merged_members), mergeable));
  out->Set("scheduler.escalations", static_cast<double>(escalations));
  out->Set("scheduler.max_level_reached", max_level);
  out->Set("scheduler.retries", static_cast<double>(retries));
  out->Set("scheduler.shed", static_cast<double>(shed));
  out->Set("scheduler.breaker_opens", static_cast<double>(breaker_opens));
  out->Set("scheduler.makespan_s", makespan_s);
  out->Set("scheduler.retry_success_ratio",
           Ratio(static_cast<double>(retry_completed),
                 static_cast<double>(retried)));
  out->Set("trace.queries_per_s", Quantile(window_qps, 0.5));
  out->Set("trace.host_latency_ms_p50", Quantile(host_ms_per_query, 0.5));
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  Tracer tracer(args.trace);
  Outcome out;
  if (args.workload == "analytic_w1") {
    RunAnalytic(args, &tracer, &out);
  } else if (args.workload == "qed_stream") {
    RunQedStream(args, &tracer, &out);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  if (!out.ok) return 1;
  out.Set("peak_rss_mb", PeakRssMb());
  if (args.trace) {
    AddTraceMetrics(tracer, &out);
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/spans-" + args.workload +
                               "-seed" + std::to_string(args.seed) + ".jsonl";
      if (!tracer.Write(path)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
    }
  }
  if (!PrintResult(out, args.trace)) return 1;
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ecobench

int main(int argc, char** argv) { return ecobench::Main(argc, argv); }
