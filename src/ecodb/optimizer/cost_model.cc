#include "ecodb/optimizer/cost_model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>

#include "ecodb/exec/sort_keys.h"
#include "ecodb/storage/heap_file.h"
#include "ecodb/util/strings.h"

namespace ecodb {

namespace {

/// Distinct values among hash_at(0..n-1), counted as distinct hashes
/// (Value::Hash's functions) in a flat open-addressing set.
template <typename HashAt>
size_t CountDistinctHashes(size_t n, HashAt hash_at) {
  int bits = 4;
  while ((size_t{1} << bits) < 2 * n) ++bits;
  const size_t mask = (size_t{1} << bits) - 1;
  std::vector<size_t> slots(mask + 1);
  std::vector<uint8_t> used(mask + 1, 0);
  size_t distinct = 0;
  for (size_t r = 0; r < n; ++r) {
    const size_t h = hash_at(r);
    // std::hash<int64_t> is the identity: mix before taking slot bits.
    size_t i = (h * 0x9E3779B97F4A7C15ull) >> (64 - bits);
    while (used[i] && slots[i] != h) i = (i + 1) & mask;
    if (!used[i]) {
      used[i] = 1;
      slots[i] = h;
      ++distinct;
    }
  }
  return distinct;
}

template <typename T>
void SampleMinMax(const T* data, size_t n, ColumnStats* cs) {
  if (n == 0) return;
  const auto [lo, hi] = std::minmax_element(data, data + n);
  cs->numeric = true;
  cs->min = static_cast<double>(*lo);
  cs->max = static_cast<double>(*hi);
}

}  // namespace

TableStats ComputeTableStats(const Table& table) {
  constexpr size_t kSampleCap = 200000;
  TableStats stats;
  stats.rows = static_cast<double>(table.num_rows());
  const size_t n = std::min(table.num_rows(), kSampleCap);
  const double scale =
      n > 0 ? static_cast<double>(table.num_rows()) / static_cast<double>(n)
            : 1.0;
  for (int c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    ColumnStats cs;
    size_t distinct = 0;
    switch (col.type()) {
      case ValueType::kString:
        distinct = col.dict_encoded()
                       ? col.dict_size()
                       : CountDistinctHashes(n, [&](size_t r) {
                           return std::hash<std::string>{}(col.GetString(r));
                         });
        break;
      case ValueType::kDouble: {
        const double* d = col.doubles_data();
        distinct = CountDistinctHashes(
            n, [&](size_t r) { return Value::HashDouble(d[r]); });
        SampleMinMax(d, n, &cs);
        break;
      }
      default: {
        const int64_t* v = col.ints_data();
        distinct = CountDistinctHashes(
            n, [&](size_t r) { return std::hash<int64_t>{}(v[r]); });
        SampleMinMax(v, n, &cs);
        break;
      }
    }
    // If the sample saturated its key space, NDV is ~exact; if nearly all
    // sampled values were distinct, extrapolate linearly (key columns).
    const double d = static_cast<double>(distinct);
    if (n > 0 && d > 0.9 * static_cast<double>(n)) {
      cs.ndv = d * scale;
    } else {
      cs.ndv = std::max(1.0, d);
    }
    stats.columns.push_back(cs);
  }
  return stats;
}

CostModel::CostModel(const Catalog* catalog, const EngineProfile* profile,
                     const MachineConfig& machine_config)
    : catalog_(catalog),
      profile_(profile),
      machine_config_(machine_config) {}

const TableStats* CostModel::GetTableStats(const std::string& name) const {
  const Table* table = catalog_->FindTable(name);
  if (table == nullptr) return nullptr;
  auto [it, fresh] = stats_.try_emplace(table);
  CachedStats& cached = it->second;
  if (fresh || cached.rows != table->num_rows()) {
    cached.rows = table->num_rows();
    cached.stats = ComputeTableStats(*table);
  }
  return &cached.stats;
}

namespace {

/// Returns the ColumnExpr if e is a bare column, else nullptr.
const ColumnExpr* AsColumn(const Expr& e) {
  return e.kind() == ExprKind::kColumn ? static_cast<const ColumnExpr*>(&e)
                                       : nullptr;
}

}  // namespace

double CostModel::EstimateSelectivity(const Expr& predicate,
                                      const TableStats* stats) const {
  switch (predicate.kind()) {
    case ExprKind::kCompare: {
      const auto& cmp = static_cast<const CompareExpr&>(predicate);
      const ColumnExpr* col = AsColumn(*cmp.left());
      const Expr* rhs = cmp.right().get();
      if (col == nullptr) {
        col = AsColumn(*cmp.right());
        rhs = cmp.left().get();
      }
      const ColumnStats* cs = nullptr;
      if (col != nullptr && stats != nullptr &&
          static_cast<size_t>(col->index()) < stats->columns.size()) {
        cs = &stats->columns[static_cast<size_t>(col->index())];
      }
      switch (cmp.op()) {
        case CompareOp::kEq:
          return cs != nullptr ? 1.0 / std::max(1.0, cs->ndv) : 0.05;
        case CompareOp::kNe:
          return cs != nullptr ? 1.0 - 1.0 / std::max(1.0, cs->ndv) : 0.95;
        default: {
          // Range predicate: interpolate against min/max when the literal
          // side is a known constant.
          if (cs != nullptr && cs->numeric && rhs != nullptr &&
              rhs->kind() == ExprKind::kLiteral && cs->max > cs->min) {
            double v = static_cast<const LiteralExpr*>(rhs)->value().AsDouble();
            double frac = (v - cs->min) / (cs->max - cs->min);
            frac = std::clamp(frac, 0.0, 1.0);
            bool less = cmp.op() == CompareOp::kLt ||
                        cmp.op() == CompareOp::kLe;
            // If the column was on the right, the inequality flips.
            if (AsColumn(*cmp.left()) == nullptr) less = !less;
            return std::clamp(less ? frac : 1.0 - frac, 0.0001, 1.0);
          }
          return 1.0 / 3.0;
        }
      }
    }
    case ExprKind::kLogical: {
      const auto& lg = static_cast<const LogicalExpr&>(predicate);
      if (lg.op() == LogicalOp::kAnd) {
        double sel = 1.0;
        for (const ExprPtr& e : lg.operands()) {
          sel *= EstimateSelectivity(*e, stats);
        }
        return sel;
      }
      double keep = 1.0;
      for (const ExprPtr& e : lg.operands()) {
        keep *= 1.0 - EstimateSelectivity(*e, stats);
      }
      return 1.0 - keep;
    }
    case ExprKind::kNot:
      return 1.0 - EstimateSelectivity(
                       *static_cast<const NotExpr&>(predicate).operand(),
                       stats);
    case ExprKind::kBetween: {
      const auto& bt = static_cast<const BetweenExpr&>(predicate);
      const ColumnExpr* col = AsColumn(*bt.operand());
      if (col != nullptr && stats != nullptr &&
          static_cast<size_t>(col->index()) < stats->columns.size() &&
          bt.lo()->kind() == ExprKind::kLiteral &&
          bt.hi()->kind() == ExprKind::kLiteral) {
        const ColumnStats& cs =
            stats->columns[static_cast<size_t>(col->index())];
        if (cs.numeric && cs.max > cs.min) {
          double lo = static_cast<const LiteralExpr*>(bt.lo().get())
                          ->value().AsDouble();
          double hi = static_cast<const LiteralExpr*>(bt.hi().get())
                          ->value().AsDouble();
          return std::clamp((hi - lo) / (cs.max - cs.min), 0.0001, 1.0);
        }
      }
      return 0.1;
    }
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(predicate);
      const ColumnExpr* col = AsColumn(*in.operand());
      if (col != nullptr && stats != nullptr &&
          static_cast<size_t>(col->index()) < stats->columns.size()) {
        const ColumnStats& cs =
            stats->columns[static_cast<size_t>(col->index())];
        return std::clamp(
            static_cast<double>(in.values().size()) / std::max(1.0, cs.ndv),
            0.0, 1.0);
      }
      return std::min(1.0, 0.05 * static_cast<double>(in.values().size()));
    }
    default:
      return 0.5;
  }
}

namespace {

/// Average number of comparison ops one evaluation of `e` performs,
/// assuming short-circuit with per-term selectivity `term_sel` (used for
/// OR chains / IN lists where evaluation stops at the first hit).
double AvgComparisonsPerEval(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kCompare:
      return 1.0;
    case ExprKind::kBetween:
      return 2.0;
    case ExprKind::kNot:
      return AvgComparisonsPerEval(
          *static_cast<const NotExpr&>(e).operand());
    case ExprKind::kInList: {
      const auto& in = static_cast<const InListExpr&>(e);
      if (in.hashed()) return 1.0;
      // A matching tuple stops halfway on average; a non-matching tuple
      // scans the whole list. With k values each of selectivity ~1/ndv the
      // aggregate is dominated by non-matches for small k; use the
      // conservative midpoint between k/2 and k.
      double k = static_cast<double>(in.values().size());
      return 0.75 * k;
    }
    case ExprKind::kLogical: {
      const auto& lg = static_cast<const LogicalExpr&>(e);
      // Expected #terms inspected under short-circuit ~ (n+1)/2 for
      // uniformly-deciding terms; weight each term's own cost.
      double per_term = 0;
      for (const ExprPtr& op : lg.operands()) {
        per_term += AvgComparisonsPerEval(*op);
      }
      double n = static_cast<double>(lg.operands().size());
      return per_term * ((n + 1.0) / (2.0 * n));
    }
    default:
      return 0.0;
  }
}

}  // namespace

Result<CostModel::NodeEstimate> CostModel::EstimateNode(
    const PlanNode& node) const {
  NodeEstimate est;
  const EngineProfile& p = *profile_;
  switch (node.kind) {
    case PlanKind::kScan: {
      const TableStats* ts = GetTableStats(node.table_name);
      if (ts == nullptr) {
        return Status::NotFound(
            StrFormat("no stats for table %s", node.table_name.c_str()));
      }
      double rows = ts->rows;
      int width = node.output_schema.RowWidth();
      est.rows = rows;
      est.cycles = rows * (p.scan_tuple_cycles + p.scan_byte_cycles * width);
      est.lines = rows * width / 64.0 * p.scan_line_factor;
      if (p.disk_backed) {
        // Warm-run assumption: pages resident, no I/O. (Cold-run costing
        // would add num_pages * per-page read time; PVC experiments are
        // warm.)
        est.io_seconds = 0;
      }
      return est;
    }
    case PlanKind::kFilter: {
      ECODB_ASSIGN_OR_RETURN(NodeEstimate child,
                             EstimateNode(*node.children[0]));
      const PlanNode& scan_child = *node.children[0];
      const TableStats* ts = scan_child.kind == PlanKind::kScan
                                 ? GetTableStats(scan_child.table_name)
                                 : nullptr;
      double sel = EstimateSelectivity(*node.predicate, ts);
      double avg_cmp = AvgComparisonsPerEval(*node.predicate);
      est = child;
      est.cycles += child.rows * avg_cmp * p.compare_cycles;
      est.rows = child.rows * sel;
      return est;
    }
    case PlanKind::kProject: {
      ECODB_ASSIGN_OR_RETURN(NodeEstimate child,
                             EstimateNode(*node.children[0]));
      // A column passes through uncharged (the engine evaluates nothing
      // for it); each computed expression costs an arithmetic op per row.
      const auto computed = std::count_if(
          node.exprs.begin(), node.exprs.end(),
          [](const ExprPtr& e) { return AsColumn(*e) == nullptr; });
      est = child;
      est.cycles +=
          child.rows * p.arith_cycles * static_cast<double>(computed);
      return est;
    }
    case PlanKind::kHashJoin: {
      const PlanNode& build_node = *node.children[0];
      const PlanNode& probe_node = *node.children[1];
      ECODB_ASSIGN_OR_RETURN(NodeEstimate build, EstimateNode(build_node));
      ECODB_ASSIGN_OR_RETURN(NodeEstimate probe, EstimateNode(probe_node));
      std::vector<double> build_ndv, probe_ndv;
      for (size_t k = 0; k < node.build_keys.size(); ++k) {
        build_ndv.push_back(BaseColumnNdv(build_node, node.build_keys[k]));
        probe_ndv.push_back(BaseColumnNdv(probe_node, node.probe_keys[k]));
      }
      return EstimateHashJoin(build, build_node.output_schema.RowWidth(),
                              probe, probe_node.output_schema.RowWidth(),
                              build_ndv, probe_ndv);
    }
    case PlanKind::kNestedLoopJoin: {
      ECODB_ASSIGN_OR_RETURN(NodeEstimate outer,
                             EstimateNode(*node.children[0]));
      ECODB_ASSIGN_OR_RETURN(NodeEstimate inner,
                             EstimateNode(*node.children[1]));
      return EstimateNestedLoopJoin(outer, inner, node.predicate.get());
    }
    case PlanKind::kAggregate: {
      ECODB_ASSIGN_OR_RETURN(NodeEstimate child,
                             EstimateNode(*node.children[0]));
      est = child;
      est.cycles += child.rows *
                    (p.agg_update_cycles *
                         static_cast<double>(std::max<size_t>(1, node.aggs.size())) +
                     p.hash_probe_cycles);
      est.lines += child.rows * p.hash_op_lines;
      // Group count heuristic: sqrt of input, capped at input size, or 1
      // for global aggregates.
      est.rows = node.group_by.empty()
                     ? 1.0
                     : std::max(1.0, std::min(child.rows,
                                              std::sqrt(child.rows) * 2.0));
      return est;
    }
    case PlanKind::kSort: {
      ECODB_ASSIGN_OR_RETURN(NodeEstimate child,
                             EstimateNode(*node.children[0]));
      return EstimateSort(child);
    }
    case PlanKind::kLimit: {
      ECODB_ASSIGN_OR_RETURN(NodeEstimate child,
                             EstimateNode(*node.children[0]));
      est = child;
      if (node.limit >= 0) {
        est.rows = std::min(child.rows, static_cast<double>(node.limit));
      }
      return est;
    }
  }
  return Status::Internal("unknown plan kind in cost model");
}

CostModel::NodeEstimate CostModel::EstimateSort(
    const NodeEstimate& input) const {
  NodeEstimate est = input;
  const uint64_t n =
      static_cast<uint64_t>(std::llround(std::max(0.0, input.rows)));
  est.cycles += static_cast<double>(SortCompareCharge(n)) *
                profile_->sort_compare_cycles;
  return est;
}

CostModel::NodeEstimate CostModel::EstimateHashJoin(
    const NodeEstimate& build, int build_width, const NodeEstimate& probe,
    int probe_width, const std::vector<double>& build_key_ndv,
    const std::vector<double>& probe_key_ndv) const {
  const EngineProfile& p = *profile_;
  NodeEstimate est;
  est.cycles = build.cycles + probe.cycles +
               build.rows * (p.hash_build_cycles +
                             p.scan_byte_cycles * build_width) +
               probe.rows * (p.hash_probe_cycles +
                             p.scan_byte_cycles * probe_width);
  est.lines = build.lines + probe.lines +
              (build.rows + probe.rows) * p.hash_op_lines;
  est.io_seconds = build.io_seconds + probe.io_seconds;
  // A side holds at most as many distinct keys as rows; an unknown NDV
  // is taken as key-like (one row per value).
  auto side_ndv = [](double ndv, double rows) {
    rows = std::max(1.0, rows);
    return ndv > 0 ? std::min(ndv, rows) : rows;
  };
  double rows = build.rows * probe.rows;
  for (size_t k = 0; k < build_key_ndv.size(); ++k) {
    rows /= std::max(side_ndv(build_key_ndv[k], build.rows),
                     side_ndv(probe_key_ndv[k], probe.rows));
  }
  est.rows = std::max(1.0, rows);
  // A probe walks the chain of build rows sharing its key hash, one
  // comparison per entry, so the walks cost about one per output row.
  est.cycles += est.rows * p.compare_cycles;
  // Grace-hash spill I/O.
  if (p.disk_backed && p.spill_fraction > 0) {
    double bytes = (build.rows * build_width + probe.rows * probe_width) *
                   p.spill_fraction;
    double reqs = bytes / kPageSizeBytes;
    DiskModel disk(machine_config_.disk);
    DiskOpCost c = disk.ReadCost(static_cast<uint64_t>(2 * bytes),
                                 static_cast<uint64_t>(2 * reqs) + 1, false);
    est.io_seconds += c.total_s;
  }
  return est;
}

CostModel::NodeEstimate CostModel::EstimateNestedLoopJoin(
    const NodeEstimate& outer, const NodeEstimate& inner,
    const Expr* predicate) const {
  NodeEstimate est;
  est.cycles = outer.cycles + inner.cycles;
  est.lines = outer.lines + inner.lines;
  est.io_seconds = outer.io_seconds + inner.io_seconds;
  const double pairs = outer.rows * inner.rows;
  double sel = 1.0;
  double avg_cmp = 0.0;
  if (predicate != nullptr) {
    sel = EstimateSelectivity(*predicate, nullptr);
    avg_cmp = AvgComparisonsPerEval(*predicate);
  }
  est.cycles += pairs * avg_cmp * profile_->compare_cycles;
  est.rows = std::max(1.0, pairs * sel);
  return est;
}

double CostModel::BaseColumnNdv(const PlanNode& node, int pos) const {
  switch (node.kind) {
    case PlanKind::kScan: {
      const TableStats* ts = GetTableStats(node.table_name);
      if (ts == nullptr || pos < 0 ||
          static_cast<size_t>(pos) >= ts->columns.size()) {
        return 0;
      }
      return ts->columns[static_cast<size_t>(pos)].ndv;
    }
    case PlanKind::kFilter:
      return BaseColumnNdv(*node.children[0], pos);
    case PlanKind::kProject: {
      const ColumnExpr* col =
          pos >= 0 && static_cast<size_t>(pos) < node.exprs.size()
              ? AsColumn(*node.exprs[static_cast<size_t>(pos)])
              : nullptr;
      return col != nullptr ? BaseColumnNdv(*node.children[0], col->index())
                            : 0;
    }
    case PlanKind::kHashJoin:
    case PlanKind::kNestedLoopJoin: {
      const int left = node.children[0]->output_schema.num_fields();
      return pos < left ? BaseColumnNdv(*node.children[0], pos)
                        : BaseColumnNdv(*node.children[1], pos - left);
    }
    default:
      return 0;
  }
}

Result<PlanCost> CostModel::Estimate(const PlanNode& plan,
                                     const SystemSettings& settings) const {
  ECODB_ASSIGN_OR_RETURN(NodeEstimate est, EstimateNode(plan));
  // Output delivery cost for the root.
  int width = plan.output_schema.RowWidth();
  est.cycles += est.rows * (profile_->output_tuple_cycles +
                            profile_->output_byte_cycles * width);
  est.lines += est.rows * profile_->output_tuple_lines;
  ECODB_ASSIGN_OR_RETURN(std::unique_ptr<Machine> machine,
                         PricingMachine(settings));
  return Price(est, *machine);
}

Result<std::unique_ptr<Machine>> CostModel::PricingMachine(
    const SystemSettings& settings) const {
  auto machine = std::make_unique<Machine>(machine_config_);
  ECODB_RETURN_NOT_OK(machine->ApplySettings(settings));
  machine->SetLoadClass(profile_->load_class);
  return machine;
}

PlanCost CostModel::Price(const NodeEstimate& est,
                          const Machine& machine) const {
  // Underclock CPI penalty, as the execution engine charges it.
  const double uc = machine.settings().underclock;
  const double cycles =
      est.cycles * (1.0 + profile_->underclock_cpi_penalty * uc * uc * uc);
  PlanCost cost;
  cost.est_rows = est.rows;
  cost.cpu_cycles = cycles;
  cost.mem_lines = est.lines;
  cost.io_seconds = est.io_seconds;
  const double busy_s = machine.PredictExecuteSeconds(cycles, est.lines);
  cost.est_seconds = busy_s + est.io_seconds;
  cost.est_cpu_joules =
      busy_s * machine.PredictExecutePowerW(cycles, est.lines) +
      est.io_seconds * machine.cpu_model().IdlePowerW();
  cost.est_edp = cost.est_cpu_joules * cost.est_seconds;
  return cost;
}

}  // namespace ecodb
