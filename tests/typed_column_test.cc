// Column-at-a-time appends (TypedColumn::AppendLane / AppendColumn)
// against the per-cell appends they replace: for every kind of source
// column — a scan's borrowed lanes, typed and dictionary-code lanes with
// and without nulls — the bulk append must leave the same cells, the same
// tracked bytes (current and peak), the same retained arenas and the same
// own-arena contents as one Append / AppendStable per cell under the same
// borrow rule.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ecodb/exec/operators.h"
#include "ecodb/exec/typed_column.h"
#include "ecodb/storage/table.h"

namespace ecodb {
namespace {

/// How the per-cell reference appends a source's string cells.
enum class Ref {
  kCopy,          ///< Append (cells without string payloads)
  kBorrowTable,   ///< AppendStable: table storage / dictionary entries
  kBorrowArenas,  ///< RetainStorageOf(batch) + AppendStable: arena lanes
};

void ExpectSameColumn(const TypedColumn& got, const TypedColumn& want,
                      bool same_string_addresses, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(got.type(), want.type()) << what;
  EXPECT_EQ(got.has_nulls(), want.has_nulls()) << what;
  for (uint32_t i = 0; i < got.size(); ++i) {
    const CellView g = got.View(i);
    const CellView w = want.View(i);
    ASSERT_EQ(g.type, w.type) << what << " row " << i;
    switch (g.type) {
      case ValueType::kNull:
        break;
      case ValueType::kDouble:
        EXPECT_EQ(std::memcmp(&g.d, &w.d, sizeof(double)), 0)
            << what << " row " << i;
        break;
      case ValueType::kString:
        EXPECT_EQ(*g.s, *w.s) << what << " row " << i;
        if (same_string_addresses) {
          EXPECT_EQ(g.s, w.s) << what << " row " << i;
        }
        break;
      default:
        EXPECT_EQ(g.i, w.i) << what << " row " << i;
        break;
    }
  }
  EXPECT_EQ(got.retained_arenas(), want.retained_arenas()) << what;
  ASSERT_EQ(got.strings() == nullptr, want.strings() == nullptr) << what;
  if (got.strings() != nullptr) {
    EXPECT_EQ(got.strings()->size(), want.strings()->size()) << what;
  }
}

/// Appends column `c` of `batch` twice (the second append lands after
/// existing cells) with AppendLane and with per-cell appends under
/// `ref`, and compares the two columns and their trackers.
void CheckAppendLane(const RowBatch& batch, int c, ValueType declared,
                         Ref ref, const std::string& what,
                         const Column* want_dict = nullptr) {
  MemoryTracker got_bytes, want_bytes;
  TypedColumn got, want;
  got.Reset(declared);
  want.Reset(declared);
  got.set_memory_tracker(&got_bytes);
  want.set_memory_tracker(&want_bytes);
  for (int rep = 0; rep < 2; ++rep) {
    got.AppendLane(batch, batch.lane(c));
    if (ref == Ref::kBorrowArenas) want.RetainStorageOf(batch);
    for (uint32_t r : batch.sel()) {
      if (ref == Ref::kCopy) {
        want.Append(batch.ViewCell(c, r));
      } else {
        want.AppendStable(batch.ViewCell(c, r));
      }
    }
  }
  ExpectSameColumn(got, want, ref != Ref::kCopy, what);
  EXPECT_EQ(got_bytes.current_bytes(), want_bytes.current_bytes()) << what;
  EXPECT_EQ(got_bytes.peak_bytes(), want_bytes.peak_bytes()) << what;
  EXPECT_EQ(got.string_dict(), want_dict) << what;
}

/// The per-cell absorb AppendColumn replaces: string fragments by pointer
/// (retaining the fragment's arenas), everything else by value.
void ReferenceAbsorb(TypedColumn* dst, const TypedColumn& frag) {
  if (frag.type() == ValueType::kString) {
    dst->RetainStorageOfColumn(frag);
    for (uint32_t i = 0; i < frag.size(); ++i) {
      const CellView v = frag.View(i);
      if (v.is_null()) {
        dst->Append(v);
      } else {
        dst->AppendStable(v);
      }
    }
    return;
  }
  for (uint32_t i = 0; i < frag.size(); ++i) dst->Append(frag.View(i));
}

/// Builds a fragment from column `c` of `batch`, then absorbs it twice
/// into a pool with AppendColumn and with the per-cell reference.
void CheckAppendColumn(const RowBatch& batch, int c, ValueType type,
                       const std::string& what) {
  TypedColumn frag;
  frag.Reset(type);
  frag.AppendLane(batch, batch.lane(c));
  MemoryTracker got_bytes, want_bytes;
  TypedColumn got, want;
  got.Reset(type);
  want.Reset(type);
  got.set_memory_tracker(&got_bytes);
  want.set_memory_tracker(&want_bytes);
  for (int rep = 0; rep < 2; ++rep) {
    got.AppendColumn(frag);
    ReferenceAbsorb(&want, frag);
  }
  ExpectSameColumn(got, want, /*same_string_addresses=*/true, what);
  EXPECT_EQ(got_bytes.current_bytes(), want_bytes.current_bytes()) << what;
  EXPECT_EQ(got_bytes.peak_bytes(), want_bytes.peak_bytes()) << what;
  EXPECT_EQ(got.string_dict(), frag.string_dict()) << what;
}

class TypedColumnAppendTest : public ::testing::Test {
 protected:
  // Columns: i INT64, d DOUBLE, sd STRING (dictionary), sp STRING (too
  // many distinct values for a dictionary), dt DATE.
  static constexpr int kRows = 1500;

  TypedColumnAppendTest()
      : machine_(MachineConfig::PaperTestbed()),
        profile_(EngineProfile::MySqlMemory()),
        pool_(&machine_, 0),
        ctx_(&machine_, &profile_, &catalog_, &pool_) {}

  void SetUp() override {
    auto created = catalog_.CreateTable(
        "t", Schema({Field("i", ValueType::kInt64),
                     Field("d", ValueType::kDouble),
                     Field("sd", ValueType::kString),
                     Field("sp", ValueType::kString),
                     Field("dt", ValueType::kDate)}));
    ASSERT_TRUE(created.ok());
    table_ = created.value();
    static const char* kModes[] = {"AIR", "FOB", "MAIL", "RAIL", "SHIP"};
    for (int r = 0; r < kRows; ++r) {
      ASSERT_TRUE(table_
                      ->AppendRow({Value::Int(r * 7 - 3000),
                                   Value::Dbl(r % 3 == 0 ? -0.0 : r * -0.5),
                                   Value::Str(kModes[r % 5]),
                                   Value::Str("payload-" + std::to_string(r)),
                                   Value::Date(9000 + r % 400)})
                      .ok());
    }
    ASSERT_TRUE(catalog_.FinalizeLoad("t").ok());
    ASSERT_TRUE(table_->column(2).dict_encoded());
    ASSERT_FALSE(table_->column(3).dict_encoded());
  }

  /// The first batch a scan of table rows [begin, end) emits, at most
  /// `max_rows` rows.
  RowBatch ScanFirstBatch(uint64_t begin, uint64_t end, size_t max_rows) {
    SeqScanOp scan(&ctx_, "t", begin, end);
    RowBatch b;
    bool has = false;
    EXPECT_TRUE(scan.Open().ok());
    EXPECT_TRUE(scan.NextBatch(&b, &has, max_rows).ok());
    EXPECT_TRUE(has);
    scan.Close();
    return b;
  }

  /// A scan batch of table rows [200, 200 + 600), its selection narrowed
  /// to a sparse subset as a filter would.
  RowBatch ScanBatch() {
    RowBatch b = ScanFirstBatch(200, 800, 600);
    EXPECT_EQ(b.num_rows(), 600u);
    b.sel().clear();
    for (uint32_t r = 0; r < 600; r += (r % 7 == 0 ? 3 : 1)) {
      b.sel().push_back(r);
    }
    return b;
  }

  /// A lane batch: int, double, string-ref (strings in the batch's own
  /// arena and a retained foreign arena), code (dictionary of column
  /// sd) and date lanes; every fifth row null when `nulls`.
  RowBatch LaneBatch(bool nulls) {
    RowBatch b;
    b.Reset(5);
    const size_t n = 300;
    foreign_ = std::make_shared<StringArena>();
    RowBatch::TypedLane* li = b.StartLane(0, ValueType::kInt64);
    RowBatch::TypedLane* ld = b.StartLane(1, ValueType::kDouble);
    RowBatch::TypedLane* ls = b.StartLane(2, ValueType::kString);
    RowBatch::TypedLane* lc = b.StartCodeLane(3, &table_->column(2));
    RowBatch::TypedLane* lt = b.StartLane(4, ValueType::kDate);
    for (RowBatch::TypedLane* l : {li, ld, ls, lc, lt}) l->has_nulls = nulls;
    for (size_t r = 0; r < n; ++r) {
      const bool null = nulls && r % 5 == 0;
      li->i64.push_back(null ? 0 : static_cast<int64_t>(r) - 150);
      ld->f64.push_back(null ? 0.0 : r * 0.25 - 3.0);
      const std::string s = "s" + std::to_string(r % 40);
      ls->str.push_back(null ? nullptr
                             : (r % 2 ? b.arena()->Intern(s)
                                      : foreign_->Intern(s)));
      lc->codes.push_back(null ? 0 : static_cast<int32_t>(r % 5));
      lt->i64.push_back(null ? 0 : 8000 + static_cast<int64_t>(r));
      for (RowBatch::TypedLane* l : {li, ld, ls, lc, lt}) {
        if (nulls) l->nulls.push_back(null ? 1 : 0);
      }
    }
    b.RetainArena(foreign_);  // retention skips empty arenas: fill first
    b.set_num_rows(n);
    for (uint32_t r = 0; r < n; r += (r % 11 == 0 ? 2 : 1)) {
      b.sel().push_back(r);
    }
    return b;
  }

  Machine machine_;
  EngineProfile profile_;
  Catalog catalog_;
  BufferPool pool_;
  ExecContext ctx_;
  Table* table_ = nullptr;
  StringArenaPtr foreign_;
};

// Scans copy nothing: every lane of a scan batch points at the table's
// own array for the batch's first row, and every cell reads back as the
// table's value.
TEST_F(TypedColumnAppendTest, ScanLanesBorrowTableArrays) {
  const Column& dict = table_->column(2);
  const Column& plain = table_->column(3);
  for (uint64_t start : {0u, 200u, 1337u}) {
    const RowBatch b = ScanFirstBatch(start, kRows, 256);
    const std::string at = " at row " + std::to_string(start);
    ASSERT_EQ(b.num_rows(), std::min<size_t>(256, kRows - start)) << at;
    for (int c = 0; c < table_->num_columns(); ++c) {
      ASSERT_EQ(b.lane(c).table, &table_->column(c)) << "column " << c << at;
      EXPECT_EQ(b.lane(c).table_row, start) << c << at;
      EXPECT_EQ(b.lane(c).type, table_->column(c).type()) << c << at;
      EXPECT_FALSE(b.lane(c).has_nulls) << c << at;
    }
    EXPECT_EQ(b.lane(0).i64_data(), table_->column(0).ints_data() + start)
        << "int" << at;
    EXPECT_EQ(b.lane(1).f64_data(), table_->column(1).doubles_data() + start)
        << "double" << at;
    EXPECT_EQ(b.lane(2).kind, RowBatch::LaneKind::kStringCode) << at;
    EXPECT_EQ(b.lane(2).dict, &dict) << at;
    EXPECT_EQ(b.lane(2).code_data(), dict.codes_data() + start)
        << "dictionary string" << at;
    EXPECT_EQ(b.lane(3).kind, RowBatch::LaneKind::kStringRef) << at;
    EXPECT_EQ(b.lane(3).str_data(), plain.string_ptrs_data() + start)
        << "plain string" << at;
    EXPECT_EQ(b.lane(4).i64_data(), table_->column(4).ints_data() + start)
        << "date" << at;
    for (int c = 0; c < table_->num_columns(); ++c) {
      for (uint32_t r = 0; r < b.num_rows(); ++r) {
        const Value want = table_->GetValue(start + r, c);
        ASSERT_EQ(BoxCellView(b.ViewCell(c, r)), want)
            << "column " << c << " row " << r << at;
        ASSERT_EQ(b.ViewCell(c, r).type, want.type()) << c << " " << r << at;
      }
    }
    // Plain strings are the column's own, at stable addresses.
    EXPECT_EQ(b.ViewCell(3, 0).s, &plain.GetString(start)) << at;

    // A projection over a filtered scan passes the table-borrowed lanes
    // on: the projected columns point at the same table arrays.
    auto scan = std::make_unique<SeqScanOp>(&ctx_, "t", start, kRows);
    auto filter = std::make_unique<FilterOp>(
        &ctx_, std::move(scan),
        Cmp(CompareOp::kNe, Col(4, ValueType::kDate, "dt"),
            LitDate("1995-01-01")));
    ProjectOp project(&ctx_, std::move(filter),
                      {Col(3, ValueType::kString, "sp"),
                       Col(0, ValueType::kInt64, "i"),
                       Col(2, ValueType::kString, "sd")},
                      {"sp", "i", "sd"});
    ASSERT_TRUE(project.Open().ok());
    RowBatch p;
    bool has = false;
    ASSERT_TRUE(project.NextBatch(&p, &has, 256).ok());
    ASSERT_TRUE(has);
    ASSERT_EQ(p.num_rows(), b.num_rows()) << at;
    EXPECT_EQ(p.lane(0).str_data(), plain.string_ptrs_data() + start)
        << "projected plain string" << at;
    EXPECT_EQ(p.lane(1).i64_data(), table_->column(0).ints_data() + start)
        << "projected int" << at;
    EXPECT_EQ(p.lane(2).kind, RowBatch::LaneKind::kStringCode) << at;
    EXPECT_EQ(p.lane(2).code_data(), dict.codes_data() + start)
        << "projected dictionary string" << at;
    for (uint32_t r : p.sel()) {
      ASSERT_EQ(BoxCellView(p.ViewCell(1, r)), table_->GetValue(start + r, 0))
          << "row " << r << at;
    }
    project.Close();
  }
}

TEST_F(TypedColumnAppendTest, ScanLanes) {
  const RowBatch b = ScanBatch();
  CheckAppendLane(b, 0, ValueType::kInt64, Ref::kCopy, "scan int");
  CheckAppendLane(b, 1, ValueType::kDouble, Ref::kCopy, "scan double");
  CheckAppendLane(b, 2, ValueType::kString, Ref::kBorrowTable,
                      "scan dict string", &table_->column(2));
  CheckAppendLane(b, 3, ValueType::kString, Ref::kBorrowTable,
                      "scan plain string");
  CheckAppendLane(b, 4, ValueType::kDate, Ref::kCopy, "scan date");
}

TEST_F(TypedColumnAppendTest, TypedAndCodeLanesWithAndWithoutNulls) {
  for (bool nulls : {false, true}) {
    const RowBatch b = LaneBatch(nulls);
    ASSERT_EQ(b.retained_arenas().size(), 1u);
    ASSERT_NE(b.own_arena_handle(), nullptr);
    const std::string tag = nulls ? " with nulls" : " without nulls";
    CheckAppendLane(b, 0, ValueType::kInt64, Ref::kCopy, "int lane" + tag);
    CheckAppendLane(b, 1, ValueType::kDouble, Ref::kCopy,
                        "double lane" + tag);
    CheckAppendLane(b, 2, ValueType::kString, Ref::kBorrowArenas,
                        "string-ref lane" + tag);
    CheckAppendLane(b, 3, ValueType::kString, Ref::kBorrowTable,
                        "code lane" + tag, &table_->column(2));
    CheckAppendLane(b, 4, ValueType::kDate, Ref::kCopy,
                        "date lane" + tag);
  }
}

TEST_F(TypedColumnAppendTest, FragmentAbsorbMatchesPerCell) {
  const RowBatch scan = ScanBatch();
  CheckAppendColumn(scan, 0, ValueType::kInt64, "scan int fragment");
  CheckAppendColumn(scan, 2, ValueType::kString, "scan dict string fragment");
  CheckAppendColumn(scan, 3, ValueType::kString,
                    "scan plain string fragment");
  for (bool nulls : {false, true}) {
    const RowBatch b = LaneBatch(nulls);
    const std::string tag = nulls ? " with nulls" : " without nulls";
    CheckAppendColumn(b, 0, ValueType::kInt64, "int fragment" + tag);
    CheckAppendColumn(b, 1, ValueType::kDouble, "double fragment" + tag);
    CheckAppendColumn(b, 2, ValueType::kString, "string-ref fragment" + tag);
    CheckAppendColumn(b, 3, ValueType::kString, "code fragment" + tag);
    CheckAppendColumn(b, 4, ValueType::kDate, "date fragment" + tag);
  }
}

/// Null flag of every cell of `col`, read through IsNullAt.
std::vector<bool> NullFlags(const TypedColumn& col) {
  std::vector<bool> flags;
  for (uint32_t i = 0; i < col.size(); ++i) flags.push_back(col.IsNullAt(i));
  return flags;
}

// The null mask is empty until the first null, which zero-fills it for
// the cells before; from then on it holds one byte per cell. Every append
// path keeps that, so has_nulls() says whether a null exists.
TEST(TypedColumnNullMaskTest, MaskExistsOnlyWhereANullDoes) {
  TypedColumn col;
  col.Reset(ValueType::kInt64);
  col.AppendNonNullInt64(1);
  col.Append(CellView::Int64(2, ValueType::kInt64));
  EXPECT_FALSE(col.has_nulls());
  EXPECT_TRUE(col.nulls().empty());
  col.Append(CellView::Null());
  col.AppendNonNullInt64(4);
  ASSERT_TRUE(col.has_nulls());
  EXPECT_EQ(col.nulls().size(), col.size());
  EXPECT_EQ(NullFlags(col), (std::vector<bool>{false, false, true, false}));

  // AppendColumn: a null-free column takes a mask with its first null.
  TypedColumn whole, clean;
  whole.Reset(ValueType::kInt64);
  clean.Reset(ValueType::kInt64);
  whole.AppendNonNullInt64(0);
  clean.AppendNonNullInt64(0);
  whole.AppendColumn(clean);
  EXPECT_FALSE(whole.has_nulls());
  whole.AppendColumn(col);
  ASSERT_TRUE(whole.has_nulls());
  EXPECT_EQ(whole.nulls().size(), whole.size());
  EXPECT_EQ(NullFlags(whole), (std::vector<bool>{false, false, false, false,
                                                 true, false}));

  // AppendGather: gathering only non-null cells of a source that holds
  // nulls leaves no mask; gathering a null adds one.
  TypedColumn gathered;
  gathered.Reset(ValueType::kInt64);
  const uint32_t non_null[] = {3, 0};
  gathered.AppendGather(CellSource{&col, nullptr, non_null}, 2);
  EXPECT_FALSE(gathered.has_nulls());
  EXPECT_TRUE(gathered.nulls().empty());
  const uint32_t with_null[] = {1, 2};
  gathered.AppendGather(CellSource{&col, nullptr, with_null}, 2);
  ASSERT_TRUE(gathered.has_nulls());
  EXPECT_EQ(gathered.nulls().size(), gathered.size());
  EXPECT_EQ(NullFlags(gathered), (std::vector<bool>{false, false, false,
                                                    true}));
  EXPECT_EQ(gathered.i64()[0], 4);
  EXPECT_EQ(gathered.i64()[2], 2);
}

}  // namespace
}  // namespace ecodb
