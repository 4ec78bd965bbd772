// Property tests for the sharded scan path: filters over a table split into
// {1, 3, 8, ragged} shards must return bit-identical results to the naive
// row-at-a-time loop, and the per-shard partials must obey the ScanPartial
// contract (ascending shard order, shard-local ascending ids, exact
// base/shard metadata).
#include "relational/scan_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "relational/predicate.h"
#include "relational/scan_partial.h"
#include "storage/table.h"
#include "util/rng.h"

namespace vq {
namespace {

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
    ValueId value = rng->NextBool(0.1)
                        ? static_cast<ValueId>(table.dict(dim).size() + 1)
                        : static_cast<ValueId>(rng->NextBelow(table.dict(dim).size()));
    predicates.push_back(EqPredicate{static_cast<int>(dim), value});
  }
  EXPECT_TRUE(NormalizePredicates(&predicates).ok());
  return predicates;
}

/// Shard-size configurations applied to each table: whole-table (1 shard),
/// an even-ish 3-way split, a small 8-way split, and a size that leaves a
/// ragged (shorter) last shard.
std::vector<size_t> ShardSizeConfigs(size_t num_rows) {
  std::vector<size_t> configs = {num_rows,                 // 1 shard
                                 (num_rows + 2) / 3,       // ~3 shards
                                 (num_rows + 7) / 8};      // ~8 shards
  // A divisor-unfriendly size: last shard holds num_rows % size rows.
  size_t ragged = num_rows / 5 + 1;
  if (num_rows % ragged == 0) ++ragged;
  configs.push_back(ragged);
  for (size_t& c : configs) c = std::max<size_t>(c, 1);
  return configs;
}

/// Validates the ScanPartial contract against the table's shard layout and
/// returns the merged global ids.
std::vector<uint32_t> CheckedMerge(const Table& table, const ScanPartials& partials) {
  const TableIndex& index = table.index();
  EXPECT_EQ(partials.size(), index.num_shards());
  for (size_t s = 0; s < partials.size(); ++s) {
    const ScanPartial& partial = partials[s];
    EXPECT_EQ(partial.shard, s);
    EXPECT_EQ(partial.base, index.shard(s).base());
    EXPECT_TRUE(std::is_sorted(partial.rows.begin(), partial.rows.end()));
    if (!partial.rows.empty()) {
      EXPECT_LT(partial.rows.back(), index.shard(s).num_rows());
    }
  }
  return MergeScanPartials(partials);
}

/// Property: every filter path agrees with the naive loop for every shard
/// count, and the partials respect the shard layout.
TEST(ShardedScanPropertyTest, FilterPathsBitIdenticalAcrossShardCounts) {
  Rng rng(20210318);
  for (int trial = 0; trial < 12; ++trial) {
    size_t num_rows = 64 + rng.NextBelow(500);
    size_t num_dims = 1 + rng.NextBelow(4);
    Table table = RandomTable(&rng, num_rows, num_dims, 12);
    // Queries are generated once per trial so every shard configuration
    // answers the exact same filters.
    std::vector<PredicateSet> queries;
    for (int q = 0; q < 8; ++q) queries.push_back(RandomPredicates(&rng, table, num_dims));

    std::vector<std::vector<uint32_t>> expected;
    for (const PredicateSet& predicates : queries) {
      expected.push_back(NaiveFilterRows(table, predicates));
    }

    for (size_t shard_rows : ShardSizeConfigs(num_rows)) {
      table.SetTargetShardRows(shard_rows);
      size_t want_shards = (num_rows + shard_rows - 1) / shard_rows;
      ASSERT_EQ(table.index().num_shards(), want_shards)
          << num_rows << " rows @ " << shard_rows;
      for (size_t q = 0; q < queries.size(); ++q) {
        const PredicateSet& predicates = queries[q];
        EXPECT_EQ(FilterRows(table, predicates), expected[q]);
        EXPECT_EQ(FilterRowsColumnScan(table, predicates), expected[q]);
        if (!predicates.empty()) {
          EXPECT_EQ(FilterRowsPostings(table, predicates), expected[q]);
        }
        ScanPartials partials = FilterRowsPartials(table, predicates);
        EXPECT_EQ(CheckedMerge(table, partials), expected[q]);
      }
    }
  }
}

/// FilterRowsMultiPartials is a per-set loop over FilterRowsPartials: each
/// set's partials obey the contract and merge to FilterRows' answer.
TEST(ShardedScanTest, MultiPartialsMatchFilterRows) {
  Rng rng(5);
  Table table = RandomTable(&rng, 300, 3, 8);
  table.SetTargetShardRows(64);  // 5 shards, ragged last (300 = 4*64 + 44)
  std::vector<PredicateSet> sets;
  for (int q = 0; q < 6; ++q) sets.push_back(RandomPredicates(&rng, table, 3));
  std::vector<const PredicateSet*> pointers;
  for (const auto& set : sets) pointers.push_back(&set);
  std::vector<ScanPartials> partials = FilterRowsMultiPartials(table, pointers);
  ASSERT_EQ(partials.size(), sets.size());
  for (size_t q = 0; q < sets.size(); ++q) {
    EXPECT_EQ(CheckedMerge(table, partials[q]), FilterRows(table, sets[q]))
        << "set " << q;
  }
}

}  // namespace
}  // namespace vq
