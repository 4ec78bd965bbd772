#include "facts/instance.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "relational/group_by.h"
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
        Key key{{}, got.target[m]};
        for (size_t d = 0; d < got.dims.size(); ++d) key.first.push_back(got.CodeAt(m, d));
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

// ---------------------------------------------------------------------------
// TableMerge::Slice against BuildInstance, bit for bit.

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

std::vector<uint64_t> Bits(const std::vector<double>& xs) {
  std::vector<uint64_t> bits;
  for (double x : xs) bits.push_back(Bits(x));
  return bits;
}

/// Both results agree in status or, when ok, in every field and every bit.
void ExpectSameInstance(const Result<SummaryInstance>& got,
                        const Result<SummaryInstance>& want) {
  ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString() << " vs "
                                 << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status(), want.status());
    return;
  }
  const SummaryInstance& a = got.value();
  const SummaryInstance& b = want.value();
  EXPECT_EQ(a.dims, b.dims);
  EXPECT_EQ(a.dim_names, b.dim_names);
  EXPECT_EQ(a.dim_cardinalities, b.dim_cardinalities);
  EXPECT_EQ(a.num_rows, b.num_rows);
  EXPECT_EQ(Bits(a.total_weight), Bits(b.total_weight));
  EXPECT_EQ(a.codes, b.codes);
  EXPECT_EQ(Bits(a.target), Bits(b.target));
  EXPECT_EQ(Bits(a.weight), Bits(b.weight));
  EXPECT_EQ(Bits(a.prior), Bits(b.prior));
  EXPECT_EQ(a.target_name, b.target_name);
  EXPECT_EQ(a.target_unit, b.target_unit);
}

/// Every predicate set of at most `max_predicates` predicates, each value
/// ranging over its dimension's whole dictionary (values no row carries
/// included), capped at the first `max_values` codes.
std::vector<PredicateSet> AllPredicateSets(const Table& table, size_t max_predicates,
                                           ValueId max_values) {
  std::vector<PredicateSet> sets = {{}};
  for (size_t d = 0; d < table.NumDims(); ++d) {
    size_t existing = sets.size();
    ValueId values = std::min<ValueId>(static_cast<ValueId>(table.dict(d).size()),
                                       max_values);
    for (size_t i = 0; i < existing; ++i) {
      if (sets[i].size() == max_predicates) continue;
      for (ValueId v = 0; v < values; ++v) {
        PredicateSet extended = sets[i];
        extended.push_back({static_cast<int>(d), v});
        sets.push_back(std::move(extended));
      }
    }
  }
  return sets;
}

struct RandomTableSpec {
  uint64_t seed = 1;
  size_t rows = 400;
  size_t num_dims = 4;
  int max_cardinality = 4;
  /// Targets drawn from {NaN, +0.0, -0.0, 1, 2} (many duplicate keys) or
  /// from a continuous range (no two rows alike).
  bool duplicates = true;
  /// Extra dictionary entries no row carries, per dimension.
  int unused_values = 1;
};

Table RandomTable(const RandomTableSpec& spec) {
  Rng rng(spec.seed);
  Table table("random");
  std::vector<size_t> cards;
  for (size_t d = 0; d < spec.num_dims; ++d) {
    table.AddDimColumn("d" + std::to_string(d));
    cards.push_back(static_cast<size_t>(rng.NextInt(1, spec.max_cardinality)));
  }
  table.AddTargetColumn("y", "units");
  table.AddTargetColumn("z");
  const double kTargets[] = {std::numeric_limits<double>::quiet_NaN(), 0.0, -0.0, 1.0,
                             2.0};
  std::vector<std::string> values(cards.size());
  for (size_t r = 0; r < spec.rows; ++r) {
    for (size_t d = 0; d < cards.size(); ++d) {
      values[d] = "v" + std::to_string(rng.NextBelow(cards[d]));
    }
    std::vector<double> targets(2);
    for (double& t : targets) {
      t = spec.duplicates ? kTargets[rng.NextBelow(5)] : rng.NextUniform(-1.0, 1.0);
    }
    EXPECT_TRUE(table.AppendRow(values, targets).ok());
  }
  for (size_t d = 0; d < cards.size(); ++d) {
    for (int u = 0; u < spec.unused_values; ++u) {
      table.mutable_dict(d).Intern("unused" + std::to_string(u));
    }
  }
  return table;
}

/// Slices every predicate set of up to three predicates, for every target
/// (and two bad ones), every prior kind and both merge settings, against
/// BuildInstance.
void ExpectSlicesMatch(const Table& table, ValueId max_values = 64) {
  std::vector<PredicateSet> sets = AllPredicateSets(table, 3, max_values);
  std::vector<InstanceOptions> all_options;
  for (PriorKind kind : {PriorKind::kGlobalAverage, PriorKind::kSubsetAverage,
                         PriorKind::kZero, PriorKind::kConstant}) {
    for (bool merge : {true, false}) {
      InstanceOptions options;
      options.prior_kind = kind;
      options.prior_value = 0.25;
      options.merge_duplicates = merge;
      all_options.push_back(options);
    }
  }
  int num_targets = static_cast<int>(table.NumTargets());
  for (int target = -1; target <= num_targets; ++target) {
    TableMerge merge(table, target);
    for (const PredicateSet& predicates : sets) {
      for (const InstanceOptions& options : all_options) {
        SCOPED_TRACE("target " + std::to_string(target) + " predicates " +
                     PredicatesKey(predicates) + " prior " +
                     std::to_string(static_cast<int>(options.prior_kind)) +
                     (options.merge_duplicates ? " merged" : " unmerged"));
        ExpectSameInstance(merge.Slice(predicates, options),
                           BuildInstance(table, predicates, target, options));
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(TableMergeTest, SlicesMatchBuildInstance) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    for (bool duplicates : {true, false}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (duplicates ? " duplicates" : " distinct"));
      RandomTableSpec spec;
      spec.seed = seed;
      spec.duplicates = duplicates;
      ExpectSlicesMatch(RandomTable(spec));
    }
  }
}

TEST(TableMergeTest, SlicesMatchOnEmptyAndWideTables) {
  // No rows at all: every subset is empty.
  RandomTableSpec empty;
  empty.rows = 0;
  ExpectSlicesMatch(RandomTable(empty));

  // One dimension wider than the packable limit: free, it fails Unsupported
  // (before NotFound on an empty subset); fixed by a predicate, it is fine.
  RandomTableSpec wide;
  wide.seed = 6;
  wide.num_dims = 3;
  Table table = RandomTable(wide);
  for (ValueId v = 0; table.dict(1).size() <= kMaxPackableCode; ++v) {
    table.mutable_dict(1).Intern("wide" + std::to_string(v));
  }
  ExpectSlicesMatch(table, /*max_values=*/8);
  PredicateSet empty_subset = {{1, static_cast<ValueId>(table.dict(1).size() - 1)}};
  EXPECT_EQ(TableMerge(table, 0).Slice({}).status().code(), StatusCode::kUnsupported);
  EXPECT_EQ(TableMerge(table, 0).Slice(empty_subset).status().code(),
            StatusCode::kNotFound);
}

TEST(TableMergeTest, SliceReportsABadTarget) {
  Table table = MakeRunningExampleTable();
  for (int target : {-1, 1, 7}) {
    auto sliced = TableMerge(table, target).Slice({});
    ASSERT_FALSE(sliced.ok());
    EXPECT_EQ(sliced.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(sliced.status(), BuildInstance(table, {}, target).status());
  }
}

}  // namespace
}  // namespace vq
