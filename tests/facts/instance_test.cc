#include "facts/instance.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "storage/datasets.h"
#include "util/rng.h"

namespace vq {
namespace {

class InstanceTest : public ::testing::Test {
 protected:
  Table table_ = MakeRunningExampleTable();
};

TEST_F(InstanceTest, UnrestrictedQueryKeepsAllDims) {
  InstanceOptions options;
  options.prior_kind = PriorKind::kZero;
  auto inst = BuildInstance(table_, {}, 0, options);
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ(inst.value().dims.size(), 2u);
  EXPECT_DOUBLE_EQ(inst.value().total_weight, 16.0);
  EXPECT_DOUBLE_EQ(inst.value().prior, 0.0);
  // Zero prior -> base error equals the total delay mass, 120 (Example 4).
  EXPECT_DOUBLE_EQ(inst.value().BaseError(), 120.0);
}

TEST_F(InstanceTest, QueryPredicateRemovesDimAndFiltersRows) {
  PredicateSet preds = {MakePredicate(table_, "season", "Winter").value()};
  InstanceOptions options;
  options.prior_kind = PriorKind::kZero;
  auto inst = BuildInstance(table_, preds, 0, options);
  ASSERT_TRUE(inst.ok());
  ASSERT_EQ(inst.value().dims.size(), 1u);
  EXPECT_EQ(inst.value().dim_names[0], "region");
  EXPECT_DOUBLE_EQ(inst.value().total_weight, 4.0);
}

TEST_F(InstanceTest, PriorKinds) {
  InstanceOptions options;
  options.prior_kind = PriorKind::kGlobalAverage;
  EXPECT_DOUBLE_EQ(BuildInstance(table_, {}, 0, options).value().prior, 120.0 / 16.0);

  options.prior_kind = PriorKind::kSubsetAverage;
  PredicateSet winter = {MakePredicate(table_, "season", "Winter").value()};
  EXPECT_DOUBLE_EQ(BuildInstance(table_, winter, 0, options).value().prior, 15.0);
  // Global average stays global under the subset query.
  options.prior_kind = PriorKind::kGlobalAverage;
  EXPECT_DOUBLE_EQ(BuildInstance(table_, winter, 0, options).value().prior, 7.5);

  options.prior_kind = PriorKind::kConstant;
  options.prior_value = 42.0;
  EXPECT_DOUBLE_EQ(BuildInstance(table_, {}, 0, options).value().prior, 42.0);
}

TEST_F(InstanceTest, MergeDuplicatesPreservesWeightAndError) {
  // Duplicate the whole table to force merging.
  Table doubled("doubled");
  doubled.AddDimColumn("region");
  doubled.AddDimColumn("season");
  doubled.AddTargetColumn("delay", "minutes");
  for (int copy = 0; copy < 2; ++copy) {
    for (size_t r = 0; r < table_.NumRows(); ++r) {
      ASSERT_TRUE(doubled
                      .AppendRow({table_.DimValue(r, 0), table_.DimValue(r, 1)},
                                 {table_.TargetValue(r, 0)})
                      .ok());
    }
  }
  InstanceOptions merged_options;
  merged_options.prior_kind = PriorKind::kZero;
  auto merged = BuildInstance(doubled, {}, 0, merged_options);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().num_rows, 16u);  // merged back to 16 distinct rows
  EXPECT_DOUBLE_EQ(merged.value().total_weight, 32.0);
  EXPECT_DOUBLE_EQ(merged.value().BaseError(), 240.0);

  merged_options.merge_duplicates = false;
  auto unmerged = BuildInstance(doubled, {}, 0, merged_options);
  ASSERT_TRUE(unmerged.ok());
  EXPECT_EQ(unmerged.value().num_rows, 32u);
  EXPECT_DOUBLE_EQ(unmerged.value().BaseError(), 240.0);

  // Seeded random tables, whole and filtered: merged rows are pairwise
  // distinct in (codes, target), appear in first-seen order, and each
  // weight counts exactly the subset rows carrying its key.
  using Key = std::pair<std::vector<ValueId>, double>;
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Table random("random");
    std::vector<size_t> cards;
    for (int d = 0; d < 4; ++d) {
      random.AddDimColumn("d" + std::to_string(d));
      cards.push_back(static_cast<size_t>(rng.NextInt(1, 6)));
    }
    random.AddTargetColumn("y");
    std::vector<std::string> values(cards.size());
    for (int r = 0; r < 2000; ++r) {
      for (size_t d = 0; d < cards.size(); ++d) {
        values[d] = "v" + std::to_string(rng.NextBelow(cards[d]));
      }
      ASSERT_TRUE(
          random.AppendRow(values, {static_cast<double>(rng.NextInt(0, 4))}).ok());
    }
    PredicateSet filtered = {MakePredicate(random, "d1", random.DimValue(0, 1)).value()};
    for (const PredicateSet& query : {PredicateSet{}, filtered}) {
      auto inst = BuildInstance(random, query, 0);
      ASSERT_TRUE(inst.ok());
      const SummaryInstance& got = inst.value();
      std::vector<uint32_t> subset = FilterRows(random, query);
      std::map<Key, double> count;
      std::vector<Key> first_seen;
      for (uint32_t r : subset) {
        Key key{{}, random.TargetValue(r, 0)};
        for (int d : got.dims) key.first.push_back(random.DimCode(r, static_cast<size_t>(d)));
        if (count[key]++ == 0) first_seen.push_back(key);
      }
      ASSERT_EQ(got.num_rows, first_seen.size());
      std::set<Key> distinct;
      double weight_sum = 0.0;
      for (size_t m = 0; m < got.num_rows; ++m) {
        Key key{{got.codes.begin() + static_cast<ptrdiff_t>(m * got.dims.size()),
                 got.codes.begin() + static_cast<ptrdiff_t>((m + 1) * got.dims.size())},
                got.target[m]};
        EXPECT_TRUE(distinct.insert(key).second) << "merged row " << m << " repeats";
        EXPECT_EQ(key, first_seen[m]) << "merged row " << m;
        EXPECT_EQ(got.weight[m], count[key]) << "merged row " << m;
        weight_sum += got.weight[m];
      }
      EXPECT_EQ(weight_sum, static_cast<double>(subset.size()));
      EXPECT_EQ(got.total_weight, static_cast<double>(subset.size()));
    }
  }
}

TEST_F(InstanceTest, EmptySubsetFails) {
  // Filter twice on different seasons is impossible; fake it with a value
  // that exists but combination that does not: running example has all
  // combinations, so use two predicates on the same dim rejected earlier.
  // Instead: query a season value on a single-season copy.
  Table tiny("tiny");
  tiny.AddDimColumn("season");
  tiny.AddTargetColumn("delay");
  ASSERT_TRUE(tiny.AppendRow({"Winter"}, {1.0}).ok());
  tiny.mutable_dict(0).Intern("Summer");  // value exists, no row carries it
  PredicateSet preds = {MakePredicate(tiny, "season", "Summer").value()};
  auto inst = BuildInstance(tiny, preds, 0);
  EXPECT_FALSE(inst.ok());
  EXPECT_EQ(inst.status().code(), StatusCode::kNotFound);
}

TEST_F(InstanceTest, BadTargetIndexFails) {
  EXPECT_FALSE(BuildInstance(table_, {}, 7).ok());
  EXPECT_FALSE(BuildInstance(table_, {}, -1).ok());
}

}  // namespace
}  // namespace vq
