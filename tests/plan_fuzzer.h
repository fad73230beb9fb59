// Random physical-plan generator shared by the differential fuzz
// harnesses (reference-evaluator and LIMIT-twin parity, governor/fault
// robustness).
//
// Generates random plans over the dbgen TPC-H tables — scans, typed
// predicates (compare / BETWEEN / IN-list / AND-OR-NOT chains,
// column-vs-column and column-vs-sampled-literal, dictionary-string
// equality/ordered/IN shapes with present AND absent literals),
// projections with arithmetic (including NULL-producing division) and
// column-vs-literal filters over computed and aggregate columns, FK
// hash-join chains, string-keyed joins, nested-loop joins, group-by
// aggregation (biased toward string keys: low-cardinality dict columns
// drive the per-code group memo, free-text comments the abandoned-dict
// fallback; MIN/MAX over DATE and string columns, COUNT over nullable
// arguments), sort (on columns and on computed keys with NULLs, negative
// doubles and -0.0) and limit. Every plan is a deterministic function of
// its seed and the catalog contents, so a failing seed reproduces
// exactly.

#ifndef ECODB_TESTS_PLAN_FUZZER_H_
#define ECODB_TESTS_PLAN_FUZZER_H_

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "ecodb/ecodb.h"

namespace ecodb {
namespace testing {

/// A plan under construction: the node plus, per output field, where its
/// values come from (for sampling realistic literals). Fields produced by
/// expressions have no source.
struct SubPlan {
  PlanNodePtr node;
  std::vector<std::optional<std::pair<const Table*, int>>> sources;
};

class PlanFuzzer {
 public:
  PlanFuzzer(uint64_t seed, const Catalog& catalog)
      : rng_(seed), filter_rng_(~seed), catalog_(catalog) {}

  PlanNodePtr Generate() {
    SubPlan sp = GenerateBase();
    ApplyUnaries(&sp);
    return std::move(sp.node);
  }

  /// A plan guaranteed to end in a pipeline breaker — aggregation root,
  /// sort root, or both — over a base that is itself join-heavy half the
  /// time (so the parallel partitioned hash build, the partial-agg merge
  /// and the sorted-run merge all get dense coverage at any worker
  /// count). Same determinism contract as Generate().
  PlanNodePtr GenerateBreakerRoot() {
    SubPlan sp = Coin(0.5) ? GenerateBase()
                           : (Coin(0.5) ? GenerateJoin(Coin(0.4) ? 2 : 1)
                                        : GenerateStringKeyJoin());
    MaybeFilter(&sp, 0.4);
    if (Coin(0.3)) ApplyPassthroughProject(&sp);
    switch (Roll(3)) {
      case 0:
        ApplyAggregate(&sp);
        break;
      case 1:
        ApplySort(&sp);
        break;
      default:  // agg-root under a sort root: both breakers stacked
        ApplyAggregate(&sp);
        ApplySort(&sp);
        break;
    }
    if (Coin(0.3)) {
      sp.node = MakeLimit(std::move(sp.node), RandomLimitValue());
    }
    return std::move(sp.node);
  }

 private:
  size_t Roll(size_t n) { return Roll(n, rng_); }
  bool Coin(double p) { return Coin(p, rng_); }
  static size_t Roll(size_t n, std::mt19937_64& g) {
    return n == 0 ? 0 : g() % n;
  }
  static bool Coin(double p, std::mt19937_64& g) {
    return std::uniform_real_distribution<double>(0, 1)(g) < p;
  }

  const Table* TableOf(const std::string& name) {
    const TableEntry* e = catalog_.FindEntry(name);
    return e == nullptr ? nullptr : e->table.get();
  }

  SubPlan ScanOf(const std::string& name) {
    SubPlan sp;
    sp.node = MakeScan(catalog_, name).value();
    const Table* t = TableOf(name);
    for (int c = 0; c < sp.node->output_schema.num_fields(); ++c) {
      sp.sources.emplace_back(std::make_pair(t, c));
    }
    return sp;
  }

  ExprPtr ColOf(const SubPlan& sp, int idx) {
    const Field& f = sp.node->output_schema.field(idx);
    return Col(idx, f.type, f.name);
  }

  /// A literal sampled from the column backing field `idx` (realistic
  /// selectivity), or nullopt when the field has no table source.
  std::optional<Value> SampleLiteral(const SubPlan& sp, int idx) {
    const auto& src = sp.sources[static_cast<size_t>(idx)];
    if (!src.has_value()) return std::nullopt;
    const Table* t = src->first;
    if (t->num_rows() == 0) return std::nullopt;
    return t->GetValue(Roll(t->num_rows()), src->second);
  }

  bool IsNumericType(ValueType t) {
    return t == ValueType::kInt64 || t == ValueType::kDouble ||
           t == ValueType::kDate || t == ValueType::kBool;
  }

  std::vector<int> FieldsOfClass(const SubPlan& sp, bool numeric) {
    std::vector<int> out;
    for (int c = 0; c < sp.node->output_schema.num_fields(); ++c) {
      if (IsNumericType(sp.node->output_schema.field(c).type) == numeric) {
        out.push_back(c);
      }
    }
    return out;
  }

  /// A string literal for dictionary-predicate shapes: usually sampled
  /// from the backing column (present in its dictionary), sometimes
  /// perturbed so it is absent (exercising the boundary translation:
  /// Eq => const-false, Ne => const-true, ordered ops => lower-bound
  /// code compares) — both directions of the sort order.
  std::optional<Value> SampleStringLiteral(const SubPlan& sp, int idx) {
    auto lit = SampleLiteral(sp, idx);
    if (!lit.has_value() || lit->type() != ValueType::kString) {
      return std::nullopt;
    }
    if (Coin(0.3)) {
      std::string s = lit->AsString();
      if (Coin(0.5)) {
        s += "~";  // sorts just after the sampled entry
      } else if (!s.empty()) {
        s.pop_back();  // a (usually absent) proper prefix, sorts before
      }
      return Value::Str(std::move(s));
    }
    return lit;
  }

  CompareOp RandomCompareOp() { return RandomCompareOp(rng_); }
  static CompareOp RandomCompareOp(std::mt19937_64& g) {
    static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                     CompareOp::kLt, CompareOp::kLe,
                                     CompareOp::kGt, CompareOp::kGe};
    return kOps[Roll(6, g)];
  }

  /// One atomic predicate over the sub-plan's schema, or null when no
  /// sampleable field exists.
  ExprPtr AtomicPredicate(const SubPlan& sp) {
    const int n = sp.node->output_schema.num_fields();
    for (int attempt = 0; attempt < 8; ++attempt) {
      const int idx = static_cast<int>(Roll(static_cast<size_t>(n)));
      const ValueType t = sp.node->output_schema.field(idx).type;
      switch (Roll(7)) {
        case 0:
        case 1: {  // column <op> sampled literal
          auto lit = SampleLiteral(sp, idx);
          if (!lit.has_value()) continue;
          return Cmp(RandomCompareOp(), ColOf(sp, idx), Lit(*lit));
        }
        case 2: {  // column BETWEEN two sampled literals
          auto lo = SampleLiteral(sp, idx);
          auto hi = SampleLiteral(sp, idx);
          if (!lo.has_value() || !hi.has_value()) continue;
          if (lo->Compare(*hi) > 0) std::swap(*lo, *hi);
          return Between(ColOf(sp, idx), Lit(*lo), Lit(*hi));
        }
        case 3: {  // column IN (sampled list), linear or hashed
          auto first = SampleLiteral(sp, idx);
          if (!first.has_value()) continue;
          std::vector<Value> vals{*first};
          const size_t extra = 1 + Roll(4);
          for (size_t i = 0; i < extra; ++i) {
            auto v = SampleLiteral(sp, idx);
            if (v.has_value()) vals.push_back(*v);
          }
          return InList(ColOf(sp, idx), std::move(vals),
                        /*hashed=*/Coin(0.5));
        }
        case 4:
        case 5: {  // dictionary-string predicate over a string column:
                   // equality/ordered compares and IN-lists, with
                   // present and absent literals (SampleStringLiteral).
                   // Low-cardinality columns (flags, modes, priorities)
                   // hit the code-compare paths; free-text comments the
                   // abandoned-dict byte fallback.
          std::vector<int> strs = FieldsOfClass(sp, /*numeric=*/false);
          if (strs.empty()) continue;
          const int sidx = strs[Roll(strs.size())];
          auto lit = SampleStringLiteral(sp, sidx);
          if (!lit.has_value()) continue;
          if (Coin(0.6)) {
            const CompareOp op =
                Coin(0.6) ? (Coin(0.5) ? CompareOp::kEq : CompareOp::kNe)
                          : RandomCompareOp();
            return Cmp(op, ColOf(sp, sidx), Lit(*lit));
          }
          std::vector<Value> vals{*lit};
          const size_t extra = 1 + Roll(4);
          for (size_t i = 0; i < extra; ++i) {
            auto v = SampleStringLiteral(sp, sidx);
            if (v.has_value()) vals.push_back(*v);
          }
          return InList(ColOf(sp, sidx), std::move(vals),
                        /*hashed=*/Coin(0.5));
        }
        default: {  // column <op> column of the same type
          std::vector<int> same;
          for (int c = 0; c < n; ++c) {
            if (c != idx && sp.node->output_schema.field(c).type == t) {
              same.push_back(c);
            }
          }
          if (same.empty()) continue;
          return Cmp(RandomCompareOp(), ColOf(sp, idx),
                     ColOf(sp, same[Roll(same.size())]));
        }
      }
    }
    return nullptr;
  }

  ExprPtr RandomPredicate(const SubPlan& sp) {
    ExprPtr first = AtomicPredicate(sp);
    if (first == nullptr) return nullptr;
    if (Coin(0.25)) first = Not(first);
    if (!Coin(0.4)) return first;
    std::vector<ExprPtr> operands{first};
    const size_t extra = 1 + Roll(2);
    for (size_t i = 0; i < extra; ++i) {
      ExprPtr p = AtomicPredicate(sp);
      if (p != nullptr) operands.push_back(std::move(p));
    }
    if (operands.size() == 1) return operands[0];
    return Coin(0.5) ? And(std::move(operands)) : Or(std::move(operands));
  }

  /// Random arithmetic over numeric fields; division is included on
  /// purpose (divide-by-zero yields NULL, exercising null lanes and the
  /// Value-packing projection path). Returns null when the schema has no
  /// numeric field.
  ExprPtr RandomArith(const SubPlan& sp, int depth = 0) {
    std::vector<int> numeric = FieldsOfClass(sp, /*numeric=*/true);
    if (numeric.empty()) return nullptr;
    static const ArithOp kOps[] = {ArithOp::kAdd, ArithOp::kSub,
                                   ArithOp::kMul, ArithOp::kDiv};
    const ArithOp op = kOps[Roll(4)];
    ExprPtr left = ColOf(sp, numeric[Roll(numeric.size())]);
    ExprPtr right;
    if (depth < 1 && Coin(0.35)) {
      right = RandomArith(sp, depth + 1);
    }
    if (right == nullptr) {
      if (Coin(0.5)) {
        right = ColOf(sp, numeric[Roll(numeric.size())]);
      } else {
        right = Coin(0.5) ? LitDbl((static_cast<double>(Roll(200)) - 100.0) /
                                   7.0)
                          : LitInt(static_cast<int64_t>(Roll(50)));
      }
    }
    return Arith(op, std::move(left), std::move(right));
  }

  void MaybeFilter(SubPlan* sp, double p) {
    if (!Coin(p)) return;
    ExprPtr pred = RandomPredicate(*sp);
    if (pred == nullptr) return;
    sp->node = MakeFilter(std::move(sp->node), std::move(pred));
  }

  /// FK pairs (parent key, child key) that keep join output linear in the
  /// child's cardinality, mirroring the TPC-H constellation.
  struct FkEdge {
    const char* parent;
    const char* parent_key;
    const char* child;
    const char* child_key;
  };

  SubPlan GenerateJoin(int n_joins) {
    static const FkEdge kEdges[] = {
        {"orders", "o_orderkey", "lineitem", "l_orderkey"},
        {"customer", "c_custkey", "orders", "o_custkey"},
        {"nation", "n_nationkey", "customer", "c_nationkey"},
        {"nation", "n_nationkey", "supplier", "s_nationkey"},
        {"region", "r_regionkey", "nation", "n_regionkey"},
    };
    const FkEdge& e = kEdges[Roll(5)];
    SubPlan build = ScanOf(e.parent);
    MaybeFilter(&build, 0.5);
    SubPlan probe = ScanOf(e.child);
    MaybeFilter(&probe, 0.4);
    int bk = build.node->output_schema.FindField(e.parent_key);
    int pk = probe.node->output_schema.FindField(e.child_key);
    SubPlan joined;
    joined.sources = build.sources;
    joined.sources.insert(joined.sources.end(), probe.sources.begin(),
                          probe.sources.end());
    joined.node = MakeHashJoin(std::move(build.node), std::move(probe.node),
                               {bk}, {pk});
    if (n_joins < 2) return joined;
    // Second hop up the constellation: join the combined row back to the
    // parent of the current parent, when one exists.
    static const FkEdge kSecond[] = {
        {"customer", "c_custkey", "orders", "o_custkey"},
        {"nation", "n_nationkey", "customer", "c_nationkey"},
        {"region", "r_regionkey", "nation", "n_regionkey"},
    };
    for (const FkEdge& s : kSecond) {
      int ck = joined.node->output_schema.FindField(s.child_key);
      if (ck < 0) continue;
      SubPlan parent = ScanOf(s.parent);
      MaybeFilter(&parent, 0.5);
      int bk2 = parent.node->output_schema.FindField(s.parent_key);
      SubPlan two;
      two.sources = parent.sources;
      two.sources.insert(two.sources.end(), joined.sources.begin(),
                         joined.sources.end());
      two.node = MakeHashJoin(std::move(parent.node), std::move(joined.node),
                              {bk2}, {ck});
      return two;
    }
    return joined;
  }

  /// A projection that passes every field of `sp` through by column
  /// reference — in batch mode this re-emits typed lanes over the child's
  /// lanes, stacking another producer between a join and its consumer.
  void ApplyPassthroughProject(SubPlan* sp) {
    const int n = sp->node->output_schema.num_fields();
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (int c = 0; c < n; ++c) {
      exprs.push_back(ColOf(*sp, c));
      names.push_back(sp->node->output_schema.field(c).name);
    }
    sp->node = MakeProject(std::move(sp->node), std::move(exprs),
                           std::move(names));
  }

  /// String-keyed hash join whose probe child is itself a join (and,
  /// half the time, a typed projection over that join): the probe-side
  /// string key and payload reach the outer join through string-ref
  /// lanes whose backing batch is replaced mid-call — the arena-retention
  /// path. n_name / r_name are unique, so output stays linear in the
  /// probe cardinality.
  SubPlan GenerateStringKeyJoin() {
    const bool via_region = Coin(0.4);
    SubPlan inner_build = ScanOf(via_region ? "region" : "nation");
    MaybeFilter(&inner_build, 0.4);
    static const char* kNationChildren[] = {"customer", "supplier"};
    SubPlan inner_probe =
        ScanOf(via_region ? "nation" : kNationChildren[Roll(2)]);
    MaybeFilter(&inner_probe, 0.4);
    const char* parent_key = via_region ? "r_regionkey" : "n_nationkey";
    const char* child_key = via_region ? "n_regionkey"
                                       : (inner_probe.node->output_schema
                                                  .FindField("c_nationkey") >= 0
                                              ? "c_nationkey"
                                              : "s_nationkey");
    int ibk = inner_build.node->output_schema.FindField(parent_key);
    int ipk = inner_probe.node->output_schema.FindField(child_key);
    SubPlan probe;
    probe.sources = inner_build.sources;
    probe.sources.insert(probe.sources.end(), inner_probe.sources.begin(),
                         inner_probe.sources.end());
    probe.node = MakeHashJoin(std::move(inner_build.node),
                              std::move(inner_probe.node), {ibk}, {ipk});
    if (Coin(0.5)) ApplyPassthroughProject(&probe);
    MaybeFilter(&probe, 0.3);

    const char* str_key = via_region ? "r_name" : "n_name";
    SubPlan build = ScanOf(via_region ? "region" : "nation");
    MaybeFilter(&build, 0.4);
    int bk = build.node->output_schema.FindField(str_key);
    int pk = probe.node->output_schema.FindField(str_key);
    SubPlan joined;
    joined.sources = build.sources;
    joined.sources.insert(joined.sources.end(), probe.sources.begin(),
                          probe.sources.end());
    joined.node = MakeHashJoin(std::move(build.node), std::move(probe.node),
                               {bk}, {pk});
    return joined;
  }

  SubPlan GenerateNestedLoop() {
    SubPlan outer = ScanOf("nation");
    SubPlan inner = ScanOf("region");
    SubPlan joined;
    joined.sources = outer.sources;
    joined.sources.insert(joined.sources.end(), inner.sources.begin(),
                          inner.sources.end());
    ExprPtr pred = nullptr;
    if (Coin(0.7)) {
      int nk = joined.sources.size() > 2
                   ? outer.node->output_schema.FindField("n_regionkey")
                   : -1;
      int rk_local = inner.node->output_schema.FindField("r_regionkey");
      int rk = outer.node->output_schema.num_fields() + rk_local;
      if (nk >= 0 && rk_local >= 0) {
        pred = Eq(Col(nk, ValueType::kInt64, "n_regionkey"),
                  Col(rk, ValueType::kInt64, "r_regionkey"));
      }
    }
    joined.node = MakeNestedLoopJoin(std::move(outer.node),
                                     std::move(inner.node), std::move(pred));
    return joined;
  }

  SubPlan GenerateBase() {
    const size_t shape = Roll(100);
    if (shape < 40) {  // single table
      static const char* kTables[] = {"lineitem", "orders",   "customer",
                                      "supplier", "nation",   "region"};
      return ScanOf(kTables[Roll(6)]);
    }
    if (shape < 65) return GenerateJoin(1);
    if (shape < 78) return GenerateJoin(2);
    if (shape < 92) return GenerateStringKeyJoin();
    return GenerateNestedLoop();
  }

  void ApplyProject(SubPlan* sp) {
    const int n = sp->node->output_schema.num_fields();
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    std::vector<std::optional<std::pair<const Table*, int>>> sources;
    const size_t keep = 1 + Roll(static_cast<size_t>(std::min(n, 6)));
    for (size_t i = 0; i < keep; ++i) {
      const int idx = static_cast<int>(Roll(static_cast<size_t>(n)));
      exprs.push_back(ColOf(*sp, idx));
      names.push_back("p" + std::to_string(i));
      sources.push_back(sp->sources[static_cast<size_t>(idx)]);
    }
    const size_t arith = Roll(3);
    for (size_t i = 0; i < arith; ++i) {
      ExprPtr e = RandomArith(*sp);
      if (e == nullptr) break;
      exprs.push_back(std::move(e));
      names.push_back("a" + std::to_string(i));
      sources.push_back(std::nullopt);
    }
    sp->node = MakeProject(std::move(sp->node), std::move(exprs),
                           std::move(names));
    sp->sources = std::move(sources);
  }

  void ApplyAggregate(SubPlan* sp) {
    const int n = sp->node->output_schema.num_fields();
    std::vector<ExprPtr> group_by;
    const size_t n_keys = Roll(3);  // 0 => global aggregate
    for (size_t i = 0; i < n_keys; ++i) {
      group_by.push_back(ColOf(*sp, static_cast<int>(Roll(n))));
    }
    // Bias toward string group-by keys: the single-string-key shape
    // drives the dictionary-code group memo (low-cardinality columns)
    // and its generic fallback (abandoned-dict comments); the
    // two-key variant keeps the multi-key path honest.
    std::vector<int> strs = FieldsOfClass(*sp, /*numeric=*/false);
    if (!strs.empty() && Coin(0.35)) {
      group_by.clear();
      group_by.push_back(ColOf(*sp, strs[Roll(strs.size())]));
      if (Coin(0.3)) {
        group_by.push_back(ColOf(*sp, static_cast<int>(Roll(n))));
      }
    }
    std::vector<AggSpec> aggs;
    static const AggSpec::Kind kKinds[] = {
        AggSpec::Kind::kSum, AggSpec::Kind::kCount, AggSpec::Kind::kAvg,
        AggSpec::Kind::kMin, AggSpec::Kind::kMax};
    const size_t n_aggs = 1 + Roll(3);
    for (size_t i = 0; i < n_aggs; ++i) {
      AggSpec a;
      a.kind = kKinds[Roll(5)];
      a.name = "agg" + std::to_string(i);
      const bool extreme =
          a.kind == AggSpec::Kind::kMin || a.kind == AggSpec::Kind::kMax;
      if (a.kind == AggSpec::Kind::kCount && Coin(0.5)) {
        a.arg = nullptr;  // COUNT(*)
      } else if (extreme && Coin(0.5) &&
                 (a.arg = OrderedNonNumericColumn(*sp)) != nullptr) {
        // MIN/MAX over a DATE or string column (dictionary codes, or the
        // plain strings of an abandoned-dictionary comment column).
      } else if (a.kind == AggSpec::Kind::kCount && Coin(0.5) &&
                 (a.arg = NullableArg(*sp)) != nullptr) {
        // COUNT(arg) skips the argument's NULLs.
      } else {
        std::vector<int> numeric = FieldsOfClass(*sp, /*numeric=*/true);
        if (!numeric.empty() && Coin(0.6)) {
          a.arg = ColOf(*sp, numeric[Roll(numeric.size())]);
        } else {
          a.arg = RandomArith(*sp);
          if (a.arg == nullptr) {
            a.kind = AggSpec::Kind::kCount;  // no numeric fields at all
          }
        }
      }
      aggs.push_back(std::move(a));
    }
    sp->node = MakeAggregate(std::move(sp->node), std::move(group_by),
                             std::move(aggs));
    sp->sources.assign(
        static_cast<size_t>(sp->node->output_schema.num_fields()),
        std::nullopt);
  }

  /// A DATE or string field of `sp`, or null when it has none.
  ExprPtr OrderedNonNumericColumn(const SubPlan& sp) {
    std::vector<int> fields;
    for (int c = 0; c < sp.node->output_schema.num_fields(); ++c) {
      const ValueType t = sp.node->output_schema.field(c).type;
      if (t == ValueType::kDate || t == ValueType::kString) {
        fields.push_back(c);
      }
    }
    if (fields.empty()) return nullptr;
    return ColOf(sp, fields[Roll(fields.size())]);
  }

  /// A numeric argument that can be NULL: a computed projection output
  /// (arithmetic, NULL where it divided by zero), or a column divided by
  /// a column. Null when `sp` has no numeric field.
  ExprPtr NullableArg(const SubPlan& sp) {
    std::vector<int> computed;
    for (int c = 0; c < sp.node->output_schema.num_fields(); ++c) {
      if (!sp.sources[static_cast<size_t>(c)].has_value() &&
          IsNumericType(sp.node->output_schema.field(c).type)) {
        computed.push_back(c);
      }
    }
    if (!computed.empty() && Coin(0.6)) {
      return ColOf(sp, computed[Roll(computed.size())]);
    }
    std::vector<int> numeric = FieldsOfClass(sp, /*numeric=*/true);
    if (numeric.empty()) return nullptr;
    return Arith(ArithOp::kDiv, ColOf(sp, numeric[Roll(numeric.size())]),
                 ColOf(sp, numeric[Roll(numeric.size())]));
  }

  void ApplySort(SubPlan* sp) {
    const int n = sp->node->output_schema.num_fields();
    std::vector<SortKey> keys;
    // Bias the leading key toward a string column when one exists: the
    // columnar sort's string arenas and unboxed string compares are the
    // freshest surface.
    std::vector<int> strs = FieldsOfClass(*sp, /*numeric=*/false);
    const size_t n_keys = 1 + Roll(2);
    for (size_t i = 0; i < n_keys; ++i) {
      ExprPtr key = Coin(0.3) ? ComputedSortKey(*sp) : nullptr;
      if (key == nullptr) {
        int f = static_cast<int>(Roll(static_cast<size_t>(n)));
        if (i == 0 && !strs.empty() && Coin(0.5)) f = strs[Roll(strs.size())];
        key = ColOf(*sp, f);
      }
      keys.push_back(SortKey{std::move(key), Coin(0.5)});
    }
    sp->node = MakeSort(std::move(sp->node), std::move(keys));
  }

  /// A computed sort key for the normalized-key encoder's double and null
  /// paths: random arithmetic, a column-by-column division (division by
  /// zero yields NULL), or a product with -1.0 or -0.0 (negative doubles,
  /// and -0.0 next to +0.0, which compare equal). Null when the schema
  /// has no numeric field.
  ExprPtr ComputedSortKey(const SubPlan& sp) {
    std::vector<int> numeric = FieldsOfClass(sp, /*numeric=*/true);
    if (numeric.empty()) return nullptr;
    ExprPtr col = ColOf(sp, numeric[Roll(numeric.size())]);
    switch (Roll(3)) {
      case 0:
        return RandomArith(sp);
      case 1:
        return Arith(ArithOp::kDiv, std::move(col),
                     ColOf(sp, numeric[Roll(numeric.size())]));
      default:
        return Arith(ArithOp::kMul, std::move(col),
                     LitDbl(Coin(0.5) ? -0.0 : -1.0));
    }
  }

  /// Limits spanning every truncation regime: 0, a handful (smaller than
  /// most child cardinalities), around the group-count scale of the
  /// aggregate shapes, mid-scale, and far above any child cardinality
  /// (the no-truncation case).
  int64_t RandomLimitValue() {
    switch (Roll(5)) {
      case 0:
        return 0;
      case 1:
        return static_cast<int64_t>(1 + Roll(5));
      case 2:
        return static_cast<int64_t>(Roll(60));
      case 3:
        return static_cast<int64_t>(Roll(400));
      default:
        return static_cast<int64_t>(100000 + Roll(100000));
    }
  }

  /// With probability `p`, filters on `computed column <op> literal` over
  /// a numeric field an expression or aggregate produced (no table
  /// source). Such columns are double lanes without nulls (arithmetic
  /// without division) or lanes that may carry NULLs (division, whose /0
  /// yields NULL, and columns above an aggregate or a sort), so the
  /// column-vs-literal compare fast path meets non-scan lanes and must
  /// skip the ones with NULLs. Draws from its own stream, so the rest of
  /// each seed's plan is the plan that seed generated before this shape
  /// existed.
  void MaybeComputedFilter(SubPlan* sp, double p) {
    std::mt19937_64& g = filter_rng_;
    if (!Coin(p, g)) return;
    std::vector<int> computed;
    for (int c : FieldsOfClass(*sp, /*numeric=*/true)) {
      if (!sp->sources[static_cast<size_t>(c)].has_value()) {
        computed.push_back(c);
      }
    }
    if (computed.empty()) return;
    ExprPtr lit;
    switch (Roll(4, g)) {
      case 0:
        lit = LitInt(static_cast<int64_t>(Roll(50, g)) - 10);
        break;
      case 1:
        lit = LitDbl(Coin(0.5, g) ? -0.0 : 0.0);
        break;
      case 2:
        lit = Lit(Value::Null());
        break;
      default:
        lit = LitDbl((static_cast<double>(Roll(400, g)) - 100.0) / 7.0);
        break;
    }
    const int col = computed[Roll(computed.size(), g)];
    sp->node = MakeFilter(
        std::move(sp->node),
        Cmp(RandomCompareOp(g), ColOf(*sp, col), std::move(lit)));
  }

  void ApplyUnaries(SubPlan* sp) {
    MaybeFilter(sp, 0.55);
    if (Coin(0.35)) {
      ApplyProject(sp);
      MaybeComputedFilter(sp, 0.4);
    }
    bool breaker = false;  // sort/aggregate tail => batched-LimitOp path
    if (Coin(0.45)) {
      ApplyAggregate(sp);
      MaybeComputedFilter(sp, 0.4);
      breaker = true;
    }
    if (Coin(0.4)) {
      ApplySort(sp);
      MaybeComputedFilter(sp, 0.6);
      breaker = true;
    }
    // LIMIT over aggregate / sort exercises the truncating batched
    // LimitOp (capped pulls from materialized emission); LIMIT straight
    // over joins/scans/filters gates its one-row pulls.
    if (Coin(breaker ? 0.4 : 0.3)) {
      sp->node = MakeLimit(std::move(sp->node), RandomLimitValue());
    }
  }

  std::mt19937_64 rng_;
  std::mt19937_64 filter_rng_;  ///< MaybeComputedFilter's own stream
  const Catalog& catalog_;
};

}  // namespace testing
}  // namespace ecodb

#endif  // ECODB_TESTS_PLAN_FUZZER_H_
