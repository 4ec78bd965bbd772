#include "storage/index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "storage/datasets.h"
#include "storage/table.h"

namespace vq {
namespace {

Table MakeSeasonsTable() {
  Table table("seasons");
  table.AddDimColumn("season");
  table.AddDimColumn("region");
  table.AddTargetColumn("delay");
  table.AddTargetColumn("cancelled");
  const char* seasons[] = {"Winter", "Spring", "Summer", "Fall"};
  const char* regions[] = {"North", "South"};
  for (int r = 0; r < 24; ++r) {
    (void)table.AppendRow({seasons[r % 4], regions[r % 2]},
                          {static_cast<double>(r), static_cast<double>(r % 3)});
  }
  return table;
}

TEST(TableIndexTest, PostingsAreSortedAndComplete) {
  Table table = MakeSeasonsTable();
  const TableIndex& index = table.index();
  ASSERT_EQ(index.num_dims(), 2u);
  EXPECT_EQ(index.num_rows(), 24u);
  size_t total = 0;
  for (size_t d = 0; d < table.NumDims(); ++d) {
    for (ValueId v = 0; v < table.dict(d).size(); ++v) {
      auto postings = index.Postings(d, v);
      EXPECT_EQ(postings.size(), index.Count(d, v));
      EXPECT_TRUE(std::is_sorted(postings.begin(), postings.end()));
      for (uint32_t row : postings) EXPECT_EQ(table.DimCode(row, d), v);
      if (d == 0) total += postings.size();
    }
  }
  EXPECT_EQ(total, table.NumRows());
}

/// On every dataset generator, each value's posting list is exactly the
/// rows a row-at-a-time pass finds, and Count is its length.
TEST(TableIndexTest, PostingsAndCountsMatchARowScanOnEveryDataset) {
  std::vector<Table> tables;
  tables.push_back(MakeRunningExampleTable());
  tables.push_back(MakeFlightsTable(3000, 11));
  tables.push_back(MakeAcsTable(2000, 12));
  tables.push_back(MakeStackOverflowTable(3000, 13));
  tables.push_back(MakePrimariesTable(2000, 14));
  for (const Table& table : tables) {
    SCOPED_TRACE(table.name());
    const TableIndex& index = table.index();
    ASSERT_EQ(index.num_dims(), table.NumDims());
    ASSERT_EQ(index.num_rows(), table.NumRows());
    for (size_t d = 0; d < table.NumDims(); ++d) {
      std::vector<std::vector<uint32_t>> expected(table.dict(d).size());
      for (size_t r = 0; r < table.NumRows(); ++r) {
        expected[table.DimCode(r, d)].push_back(static_cast<uint32_t>(r));
      }
      for (ValueId v = 0; v < expected.size(); ++v) {
        auto postings = index.Postings(d, v);
        EXPECT_EQ(std::vector<uint32_t>(postings.begin(), postings.end()),
                  expected[v]);
        EXPECT_EQ(index.Count(d, v), expected[v].size());
      }
    }
  }
}

TEST(TableIndexTest, UnknownValueIsEmpty) {
  Table table = MakeSeasonsTable();
  const TableIndex& index = table.index();
  ValueId beyond = static_cast<ValueId>(table.dict(0).size()) + 3;
  EXPECT_EQ(index.Count(0, beyond), 0u);
  EXPECT_TRUE(index.Postings(0, beyond).empty());
  // The kNoValue sentinel must not wrap the bounds check.
  EXPECT_EQ(index.Count(0, kNoValue), 0u);
  EXPECT_TRUE(index.Postings(0, kNoValue).empty());
}

TEST(TableIndexTest, LazyBuildIsCachedAndCountedInEstimateBytes) {
  Table table = MakeSeasonsTable();
  EXPECT_FALSE(table.has_index());
  size_t raw = table.EstimateBytes();
  const TableIndex& first = table.index();
  EXPECT_TRUE(table.has_index());
  EXPECT_EQ(&first, &table.index());  // cached, not rebuilt
  EXPECT_GT(table.EstimateBytes(), raw);
  EXPECT_GT(first.EstimateBytes(), 0u);
}

TEST(TableIndexTest, AppendInvalidatesCachedIndex) {
  Table table = MakeSeasonsTable();
  EXPECT_EQ(table.index().num_rows(), 24u);
  (void)table.AppendRow({"Winter", "North"}, {99.0, 1.0});
  EXPECT_FALSE(table.has_index());
  const TableIndex& rebuilt = table.index();
  EXPECT_EQ(rebuilt.num_rows(), 25u);
  EXPECT_EQ(rebuilt.Postings(0, 0).back(), 24u);
}

TEST(TableIndexTest, CopiedTableRebuildsItsOwnIndex) {
  Table table = MakeSeasonsTable();
  (void)table.index();
  Table copy = table;
  EXPECT_FALSE(copy.has_index());
  EXPECT_TRUE(table.has_index());
  EXPECT_NE(&copy.index(), &table.index());
  EXPECT_EQ(copy.index().num_rows(), table.index().num_rows());
}

}  // namespace
}  // namespace vq
