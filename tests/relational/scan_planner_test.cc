#include "relational/scan_planner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "relational/predicate.h"
#include "storage/table.h"
#include "util/rng.h"

namespace vq {
namespace {

/// The seed implementation: one RowMatches check per row. The planner's two
/// execution paths must reproduce this bit for bit.
std::vector<uint32_t> NaiveFilterRows(const Table& table,
                                      const PredicateSet& predicates) {
  std::vector<uint32_t> out;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    if (RowMatches(table, r, predicates)) out.push_back(static_cast<uint32_t>(r));
  }
  return out;
}

Table RandomTable(Rng* rng, size_t num_rows, size_t num_dims, size_t max_card) {
  Table table("random");
  std::vector<size_t> cards;
  for (size_t d = 0; d < num_dims; ++d) {
    table.AddDimColumn("d" + std::to_string(d));
    cards.push_back(2 + rng->NextBelow(max_card - 1));
  }
  table.AddTargetColumn("y");
  std::vector<std::string> dims(num_dims);
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t d = 0; d < num_dims; ++d) {
      // Zipf skew plants both hot (unselective) and rare (selective) values.
      dims[d] = "v" + std::to_string(rng->NextZipf(cards[d], 1.0));
    }
    (void)table.AppendRow(dims, {static_cast<double>(rng->NextInt(0, 50))});
  }
  return table;
}

PredicateSet RandomPredicates(Rng* rng, const Table& table, size_t max_preds) {
  PredicateSet predicates;
  size_t num_preds = rng->NextBelow(max_preds + 1);
  std::vector<size_t> dims(table.NumDims());
  for (size_t d = 0; d < dims.size(); ++d) dims[d] = d;
  rng->Shuffle(&dims);
  for (size_t i = 0; i < num_preds && i < dims.size(); ++i) {
    size_t dim = dims[i];
    // Occasionally pick a value id no row carries (tests kEmptyResult).
    ValueId value = rng->NextBool(0.1)
                        ? static_cast<ValueId>(table.dict(dim).size() + 1)
                        : static_cast<ValueId>(rng->NextBelow(table.dict(dim).size()));
    predicates.push_back(EqPredicate{static_cast<int>(dim), value});
  }
  EXPECT_TRUE(NormalizePredicates(&predicates).ok());
  return predicates;
}

/// Property: for random tables and predicate sets, the posting-list path,
/// the column scan, the planner-routed FilterRows and the naive RowMatches
/// loop all return identical row ids.
TEST(ScanPlannerPropertyTest, AllFilterPathsAgree) {
  Rng rng(20210318);
  for (int trial = 0; trial < 60; ++trial) {
    size_t num_rows = 1 + rng.NextBelow(400);
    size_t num_dims = 1 + rng.NextBelow(4);
    Table table = RandomTable(&rng, num_rows, num_dims, 12);
    for (int q = 0; q < 12; ++q) {
      PredicateSet predicates = RandomPredicates(&rng, table, num_dims);
      std::vector<uint32_t> naive = NaiveFilterRows(table, predicates);
      EXPECT_EQ(FilterRowsColumnScan(table, predicates), naive);
      if (!predicates.empty()) {
        EXPECT_EQ(FilterRowsPostings(table, predicates), naive);
      }
      EXPECT_EQ(FilterRows(table, predicates), naive);
      EXPECT_LE(naive.size(), PlanScan(table, predicates).estimated_rows);
    }
  }
}

/// FilterRowsMultiPartials answers each set as FilterRows does, and
/// MergeScanPartials flattens each answer back to FilterRows' row ids (the
/// pair perfbench's serve replay calls).
TEST(ScanPlannerPropertyTest, MultiPartialsMergeToFilterRows) {
  Rng rng(5);
  for (int trial = 0; trial < 12; ++trial) {
    size_t num_dims = 1 + rng.NextBelow(4);
    Table table = RandomTable(&rng, 64 + rng.NextBelow(500), num_dims, 12);
    std::vector<PredicateSet> sets;
    for (int q = 0; q < 8; ++q) sets.push_back(RandomPredicates(&rng, table, num_dims));
    std::vector<const PredicateSet*> pointers;
    for (const PredicateSet& set : sets) pointers.push_back(&set);
    std::vector<ScanPartials> partials = FilterRowsMultiPartials(table, pointers);
    ASSERT_EQ(partials.size(), sets.size());
    for (size_t q = 0; q < sets.size(); ++q) {
      std::vector<uint32_t> naive = NaiveFilterRows(table, sets[q]);
      EXPECT_EQ(FilterRows(table, sets[q]), naive) << "set " << q;
      EXPECT_EQ(MergeScanPartials(std::move(partials[q])), naive) << "set " << q;
    }
  }
}

TEST(ScanPlannerTest, PlanStrategies) {
  // 8 rows: value 0 on 6 rows and value 1 on 2 rows of both dimensions.
  Table table("fixed");
  table.AddDimColumn("a");
  table.AddDimColumn("b");
  table.AddTargetColumn("y");
  for (int r = 0; r < 8; ++r) {
    std::string value = r < 6 ? "v0" : "v1";
    ASSERT_TRUE(table.AppendRow({value, value}, {static_cast<double>(r)}).ok());
  }
  ASSERT_EQ(table.index().Count(0, 0), 6u);

  EXPECT_EQ(PlanScan(table, {}).strategy, ScanStrategy::kAllRows);

  PredicateSet missing{EqPredicate{0, static_cast<ValueId>(table.dict(0).size())}};
  EXPECT_EQ(PlanScan(table, missing).strategy, ScanStrategy::kEmptyResult);

  // A single predicate always answers from its posting list, however
  // unselective.
  PredicateSet single{EqPredicate{0, 0}};
  ScanPlan plan = PlanScan(table, single);
  EXPECT_EQ(plan.strategy, ScanStrategy::kPostings);
  EXPECT_EQ(plan.estimated_rows, 6u);

  // A conjunction intersects postings while shortest list * 4 <= rows
  // (2 * 4 = 8: the boundary is inclusive) ...
  PredicateSet rare{EqPredicate{0, 1}, EqPredicate{1, 1}};
  EXPECT_EQ(PlanScan(table, rare).strategy, ScanStrategy::kPostings);
  // ... and scans the columns otherwise (6 * 4 > 8).
  PredicateSet hot{EqPredicate{0, 0}, EqPredicate{1, 0}};
  EXPECT_EQ(PlanScan(table, hot).strategy, ScanStrategy::kColumnScan);
  EXPECT_EQ(FilterRows(table, hot), NaiveFilterRows(table, hot));
}

/// GlobalScanStats() reads the plan counters: one per planned filter, by
/// the path it took.
TEST(ScanPlannerTest, GlobalScanStatsCountsPlans) {
  Rng rng(7);
  Table table = RandomTable(&rng, 200, 3, 6);
  const ScanStats& stats = GlobalScanStats();
  uint64_t postings = stats.postings_samples();
  uint64_t scans = stats.scan_samples();
  (void)FilterRows(table, {EqPredicate{0, 0}});
  EXPECT_EQ(stats.postings_samples(), postings + 1);
  EXPECT_EQ(stats.scan_samples(), scans);
  (void)FilterRowsColumnScan(table, {EqPredicate{0, 0}});  // plans nothing
  EXPECT_EQ(stats.scan_samples(), scans);
  EXPECT_EQ(stats.probes(), 0u);
}

}  // namespace
}  // namespace vq
