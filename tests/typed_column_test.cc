// Column-at-a-time appends (TypedColumn::AppendColumnOf / AppendColumn)
// against the per-cell appends they replace: for every kind of source
// column — lazy table ranges, typed and dictionary-code lanes with and
// without nulls, boxed cells, pool-backed lanes, tag mismatches — the
// bulk append must leave the same cells, the same tracked bytes (current
// and peak), the same retained arenas and the same own-arena contents as
// one Append / AppendStable per cell under the same borrow-or-copy rule.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ecodb/exec/typed_column.h"
#include "ecodb/storage/table.h"

namespace ecodb {
namespace {

/// How the per-cell reference appends a source's string cells.
enum class Ref {
  kCopy,          ///< Append: copy (boxed cells, pool-backed lanes)
  kBorrowTable,   ///< AppendStable: table storage / dictionary entries
  kBorrowArenas,  ///< RetainStorageOf(batch) + AppendStable: arena lanes
};

void ExpectSameColumn(const TypedColumn& got, const TypedColumn& want,
                      bool same_string_addresses, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(got.type(), want.type()) << what;
  EXPECT_EQ(got.boxed(), want.boxed()) << what;
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
    EXPECT_EQ(got.strings()->dedup_hits(), want.strings()->dedup_hits())
        << what;
    EXPECT_EQ(got.strings()->dedup_misses(), want.strings()->dedup_misses())
        << what;
  }
}

/// Appends column `c` of `batch` twice (the second append lands after
/// existing cells) with AppendColumnOf and with per-cell appends under
/// `ref`, and compares the two columns and their trackers.
void CheckAppendColumnOf(const RowBatch& batch, int c, ValueType declared,
                         Ref ref, const std::string& what,
                         const Column* want_dict = nullptr,
                         bool dedup = false) {
  MemoryTracker got_bytes, want_bytes;
  TypedColumn got, want;
  got.Reset(declared);
  want.Reset(declared);
  if (dedup) {
    got.EnableDictDedup();
    want.EnableDictDedup();
  }
  got.set_memory_tracker(&got_bytes);
  want.set_memory_tracker(&want_bytes);
  for (int rep = 0; rep < 2; ++rep) {
    got.AppendColumnOf(batch, c);
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

/// The per-cell absorb AppendColumn replaces: unboxed string fragments by
/// pointer (retaining the fragment's arenas), everything else by value.
void ReferenceAbsorb(TypedColumn* dst, const TypedColumn& frag) {
  if (!frag.boxed() && frag.type() == ValueType::kString) {
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
void CheckAppendColumn(const RowBatch& batch, int c, ValueType frag_type,
                       ValueType dst_type, const std::string& what) {
  TypedColumn frag;
  frag.Reset(frag_type);
  frag.AppendColumnOf(batch, c);
  MemoryTracker got_bytes, want_bytes;
  TypedColumn got, want;
  got.Reset(dst_type);
  want.Reset(dst_type);
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

  void SetUp() override {
    table_ = std::make_unique<Table>(
        "t", Schema({Field("i", ValueType::kInt64),
                     Field("d", ValueType::kDouble),
                     Field("sd", ValueType::kString),
                     Field("sp", ValueType::kString),
                     Field("dt", ValueType::kDate)}));
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
    ASSERT_TRUE(table_->column(2).dict_encoded());
    ASSERT_FALSE(table_->column(3).dict_encoded());
  }

  /// A batch bound to table rows [200, 200 + 600) with a sparse selection.
  RowBatch LazyBatch() const {
    RowBatch b;
    b.Reset(table_->num_columns());
    b.set_num_rows(600);
    b.BindLazySource(table_.get(), 200);
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

  std::unique_ptr<Table> table_;
  StringArenaPtr foreign_;
};

TEST_F(TypedColumnAppendTest, LazyTableRanges) {
  const RowBatch b = LazyBatch();
  CheckAppendColumnOf(b, 0, ValueType::kInt64, Ref::kCopy, "lazy int");
  CheckAppendColumnOf(b, 1, ValueType::kDouble, Ref::kCopy, "lazy double");
  CheckAppendColumnOf(b, 2, ValueType::kString, Ref::kBorrowTable,
                      "lazy dict string", &table_->column(2));
  CheckAppendColumnOf(b, 3, ValueType::kString, Ref::kBorrowTable,
                      "lazy plain string");
  CheckAppendColumnOf(b, 4, ValueType::kDate, Ref::kCopy, "lazy date");
  // The result surface deduplicates copies; borrowed cells never copy.
  CheckAppendColumnOf(b, 3, ValueType::kString, Ref::kBorrowTable,
                      "lazy plain string, dedup", nullptr, /*dedup=*/true);
  // Declared type differs from the table's: both demote at the first cell.
  CheckAppendColumnOf(b, 4, ValueType::kInt64, Ref::kCopy,
                      "lazy date into int");
}

TEST_F(TypedColumnAppendTest, TypedAndCodeLanesWithAndWithoutNulls) {
  for (bool nulls : {false, true}) {
    const RowBatch b = LaneBatch(nulls);
    ASSERT_EQ(b.retained_arenas().size(), 1u);
    ASSERT_NE(b.own_arena_handle(), nullptr);
    const std::string tag = nulls ? " with nulls" : " without nulls";
    CheckAppendColumnOf(b, 0, ValueType::kInt64, Ref::kCopy, "int lane" + tag);
    CheckAppendColumnOf(b, 1, ValueType::kDouble, Ref::kCopy,
                        "double lane" + tag);
    CheckAppendColumnOf(b, 2, ValueType::kString, Ref::kBorrowArenas,
                        "string-ref lane" + tag);
    CheckAppendColumnOf(b, 3, ValueType::kString, Ref::kBorrowTable,
                        "code lane" + tag, &table_->column(2));
    CheckAppendColumnOf(b, 4, ValueType::kDate, Ref::kCopy,
                        "date lane" + tag);
    // Tag mismatches demote exactly where the per-cell appends do.
    CheckAppendColumnOf(b, 0, ValueType::kDouble, Ref::kCopy,
                        "int lane into double" + tag);
    CheckAppendColumnOf(b, 4, ValueType::kInt64, Ref::kCopy,
                        "date lane into int" + tag);
  }
}

TEST_F(TypedColumnAppendTest, PoolBackedLanesAreCopied) {
  for (bool nulls : {false, true}) {
    RowBatch b = LaneBatch(nulls);
    b.MarkStringsPoolBacked();
    const std::string tag = nulls ? " with nulls" : " without nulls";
    CheckAppendColumnOf(b, 2, ValueType::kString, Ref::kCopy,
                        "pool-backed string-ref lane" + tag);
    CheckAppendColumnOf(b, 2, ValueType::kString, Ref::kCopy,
                        "pool-backed string-ref lane, dedup" + tag, nullptr,
                        /*dedup=*/true);
    // Dictionary entries are table storage whatever the batch's marker.
    CheckAppendColumnOf(b, 3, ValueType::kString, Ref::kBorrowTable,
                        "pool-backed code lane" + tag, &table_->column(2));
    CheckAppendColumnOf(b, 0, ValueType::kInt64, Ref::kCopy,
                        "pool-backed int lane" + tag);
  }
}

TEST_F(TypedColumnAppendTest, BoxedCellsAreCopiedOneByOne) {
  RowBatch b;
  b.Reset(3);
  const size_t n = 200;
  for (size_t r = 0; r < n; ++r) {
    const int64_t v = static_cast<int64_t>(r);
    b.col(0).push_back(r % 9 == 0 ? Value::Null() : Value::Int(v));
    b.col(1).push_back(r % 4 == 0 ? Value::Date(static_cast<int32_t>(v))
                                  : Value::Int(v));
    b.col(2).push_back(r % 6 == 0 ? Value::Null()
                                  : Value::Str("v" + std::to_string(r % 13)));
  }
  b.set_num_rows(n);
  for (uint32_t r = 0; r < n; r += (r % 5 == 0 ? 2 : 1)) b.sel().push_back(r);
  CheckAppendColumnOf(b, 0, ValueType::kInt64, Ref::kCopy, "boxed int");
  CheckAppendColumnOf(b, 1, ValueType::kInt64, Ref::kCopy,
                      "boxed int/date mix");
  CheckAppendColumnOf(b, 2, ValueType::kString, Ref::kCopy, "boxed strings");
  CheckAppendColumnOf(b, 2, ValueType::kString, Ref::kCopy,
                      "boxed strings, dedup", nullptr, /*dedup=*/true);
}

TEST_F(TypedColumnAppendTest, FragmentAbsorbMatchesPerCell) {
  const RowBatch lazy = LazyBatch();
  CheckAppendColumn(lazy, 0, ValueType::kInt64, ValueType::kInt64,
                    "lazy int fragment");
  CheckAppendColumn(lazy, 2, ValueType::kString, ValueType::kString,
                    "lazy dict string fragment");
  CheckAppendColumn(lazy, 3, ValueType::kString, ValueType::kString,
                    "lazy plain string fragment");
  for (bool nulls : {false, true}) {
    const RowBatch b = LaneBatch(nulls);
    const std::string tag = nulls ? " with nulls" : " without nulls";
    CheckAppendColumn(b, 1, ValueType::kDouble, ValueType::kDouble,
                      "double fragment" + tag);
    CheckAppendColumn(b, 2, ValueType::kString, ValueType::kString,
                      "string-ref fragment" + tag);
    CheckAppendColumn(b, 3, ValueType::kString, ValueType::kString,
                      "code fragment" + tag);
    // A demoted (boxed) fragment, and a typed fragment into a pool of
    // another declared type: both go cell by cell.
    CheckAppendColumn(b, 4, ValueType::kInt64, ValueType::kInt64,
                      "boxed fragment" + tag);
    CheckAppendColumn(b, 0, ValueType::kInt64, ValueType::kDouble,
                      "int fragment into double pool" + tag);
  }
}

}  // namespace
}  // namespace ecodb
