// FilterRows (relational/predicate.h) against the row-at-a-time reference,
// and the partial-list helpers left in relational/scan_planner.h.
#include "relational/scan_planner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "relational/predicate.h"
#include "storage/index.h"
#include "storage/table.h"
#include "util/rng.h"

namespace vq {
namespace {

/// The seed implementation: one RowMatches check per row. FilterRows must
/// reproduce this bit for bit.
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
    // Occasionally pick a value id no row carries (an empty posting list).
    ValueId value = rng->NextBool(0.1)
                        ? static_cast<ValueId>(table.dict(dim).size() + 1)
                        : static_cast<ValueId>(rng->NextBelow(table.dict(dim).size()));
    predicates.push_back(EqPredicate{static_cast<int>(dim), value});
  }
  EXPECT_TRUE(NormalizePredicates(&predicates).ok());
  return predicates;
}

/// Property: for random tables and predicate sets (none, one, several, and
/// values no row carries), FilterRows returns the naive RowMatches loop's
/// row ids.
TEST(ScanPlannerPropertyTest, FilterRowsMatchesNaive) {
  Rng rng(20210318);
  for (int trial = 0; trial < 60; ++trial) {
    size_t num_rows = 1 + rng.NextBelow(400);
    size_t num_dims = 1 + rng.NextBelow(4);
    Table table = RandomTable(&rng, num_rows, num_dims, 12);
    for (int q = 0; q < 12; ++q) {
      PredicateSet predicates = RandomPredicates(&rng, table, num_dims);
      EXPECT_EQ(FilterRows(table, predicates), NaiveFilterRows(table, predicates));
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

/// The walk starts from the rarest posting list wherever it sits in the
/// dimension-sorted set, and the other predicates still filter.
TEST(ScanPlannerTest, RarestPredicateNotFirst) {
  // 12 rows: a = v0 on rows 0-9; b = v0 on rows 0-5; c = v0 where row % 3 == 0.
  Table table("fixed");
  table.AddDimColumn("a");
  table.AddDimColumn("b");
  table.AddDimColumn("c");
  table.AddTargetColumn("y");
  for (int r = 0; r < 12; ++r) {
    ASSERT_TRUE(table
                    .AppendRow({r < 10 ? "v0" : "v1", r < 6 ? "v0" : "v1",
                                r % 3 == 0 ? "v0" : "v1"},
                               {static_cast<double>(r)})
                    .ok());
  }
  // Row 0 interns v0 first in every column, so the codes agree across dims.
  const ValueId v0 = 0;
  const ValueId v1 = 1;
  ASSERT_EQ(table.dict(2).Find("v1"), v1);
  struct Case {
    PredicateSet predicates;
    size_t rarest;
    std::vector<uint32_t> rows;
  };
  const std::vector<Case> cases = {
      {{{0, v0}, {1, v1}, {2, v1}}, 1, {7, 8}},
      {{{0, v0}, {2, v1}}, 1, {1, 2, 4, 5, 7, 8}},
      {{{0, v0}, {1, v0}, {2, v0}}, 2, {0, 3}},
      {{{0, v0}, {1, v1}, {2, v0}}, 2, {6, 9}},
  };
  const TableIndex& index = table.index();
  for (const Case& c : cases) {
    SCOPED_TRACE(PredicatesToString(table, c.predicates));
    for (size_t i = 0; i < c.predicates.size(); ++i) {
      if (i == c.rarest) continue;
      const EqPredicate& p = c.predicates[i];
      const EqPredicate& rarest = c.predicates[c.rarest];
      EXPECT_LT(index.Count(static_cast<size_t>(rarest.dim), rarest.value),
                index.Count(static_cast<size_t>(p.dim), p.value));
    }
    EXPECT_EQ(FilterRows(table, c.predicates), c.rows);
    EXPECT_EQ(NaiveFilterRows(table, c.predicates), c.rows);
  }
}

}  // namespace
}  // namespace vq
