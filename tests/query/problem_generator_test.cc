#include "query/problem_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

#include "relational/group_by.h"
#include "storage/datasets.h"

namespace vq {
namespace {

Configuration RunningExampleConfig(int max_preds = 2) {
  Configuration config;
  config.table = "running_example";
  config.dimensions = {"region", "season"};
  config.targets = {"delay"};
  config.max_query_predicates = max_preds;
  return config;
}

TEST(ProblemGeneratorTest, CountsOnRunningExample) {
  Table table = MakeRunningExampleTable();
  auto generator = ProblemGenerator::Create(&table, RunningExampleConfig());
  ASSERT_TRUE(generator.ok());
  // Queries: 1 empty + 4 regions + 4 seasons + 16 pairs = 25 per target.
  std::vector<VoiceQuery> queries = generator.value().GenerateQueries();
  EXPECT_EQ(queries.size(), 25u);
}

TEST(ProblemGeneratorTest, MaxPredicatesOneDropsPairs) {
  Table table = MakeRunningExampleTable();
  auto generator = ProblemGenerator::Create(&table, RunningExampleConfig(1));
  ASSERT_TRUE(generator.ok());
  EXPECT_EQ(generator.value().GenerateQueries().size(), 9u);
}

TEST(ProblemGeneratorTest, QueriesAreDistinctAndNormalized) {
  Table table = MakeRunningExampleTable();
  auto generator = ProblemGenerator::Create(&table, RunningExampleConfig());
  std::set<std::string> keys;
  for (const auto& query : generator.value().GenerateQueries()) {
    EXPECT_TRUE(keys.insert(query.Key()).second) << query.Key();
    for (size_t i = 1; i < query.predicates.size(); ++i) {
      EXPECT_LT(query.predicates[i - 1].dim, query.predicates[i].dim);
    }
  }
}

TEST(ProblemGeneratorTest, MultipleTargetsMultiply) {
  Table table = MakeAcsTable(500, 3);
  Configuration config;
  config.table = "acs";
  config.dimensions = {"borough", "age_group"};
  config.targets = {"visual", "hearing"};
  config.max_query_predicates = 1;
  auto generator = ProblemGenerator::Create(&table, config);
  ASSERT_TRUE(generator.ok());
  // Per target: 1 + 5 + 3 = 9; two targets -> 18.
  EXPECT_EQ(generator.value().GenerateQueries().size(), 18u);
}

TEST(ProblemGeneratorTest, OnlyExistingCombinationsGenerated) {
  // A table where one (a, b) combination is absent.
  Table table("t");
  table.AddDimColumn("a");
  table.AddDimColumn("b");
  table.AddTargetColumn("y");
  ASSERT_TRUE(table.AppendRow({"a1", "b1"}, {1.0}).ok());
  ASSERT_TRUE(table.AppendRow({"a1", "b2"}, {2.0}).ok());
  ASSERT_TRUE(table.AppendRow({"a2", "b1"}, {3.0}).ok());
  Configuration config;
  config.table = "t";
  config.dimensions = {"a", "b"};
  config.targets = {"y"};
  config.max_query_predicates = 2;
  auto generator = ProblemGenerator::Create(&table, config);
  ASSERT_TRUE(generator.ok());
  // 1 empty + 2 a-values + 2 b-values + 3 present pairs = 8 (not 9).
  EXPECT_EQ(generator.value().GenerateQueries().size(), 8u);
}

TEST(ProblemGeneratorTest, TheoremTenBound) {
  // The number of queries is O(t * C(d, l) * n^l): on the running example
  // with t=1, d=2, l=2 and 4 distinct values per dimension, the bound's
  // dominant term is C(2,2) * 16 pairs; the generated count must stay below
  // the worst case sum over all lengths.
  Table table = MakeRunningExampleTable();
  auto generator = ProblemGenerator::Create(&table, RunningExampleConfig());
  size_t upper = 1 + 2 * 4 + 1 * 16;  // lengths 0, 1, 2 worst case
  EXPECT_LE(generator.value().GenerateQueries().size(), upper);
}

/// GenerateQueries as a row-at-a-time enumeration: per dimension subset of
/// at most `max_predicates` (and kMaxGroupDims) of `dims`, in mask order,
/// each value combination the rows carry, in first-row order, found by
/// walking the rows one by one through a std::set of seen combinations.
std::vector<VoiceQuery> ReferenceQueries(const Table& table, const std::vector<int>& dims,
                                         const std::vector<int>& targets,
                                         int max_predicates) {
  std::vector<PredicateSet> sets;
  for (uint32_t mask = 0; mask < (1u << dims.size()); ++mask) {
    int bits = std::popcount(mask);
    if (bits > max_predicates || static_cast<size_t>(bits) > kMaxGroupDims) continue;
    std::vector<int> subset;
    for (size_t d = 0; d < dims.size(); ++d) {
      if (mask & (1u << d)) subset.push_back(dims[d]);
    }
    if (subset.empty()) {
      sets.push_back({});
      continue;
    }
    std::set<std::vector<ValueId>> seen;
    for (size_t r = 0; r < table.NumRows(); ++r) {
      std::vector<ValueId> combo;
      for (int d : subset) combo.push_back(table.DimCode(r, static_cast<size_t>(d)));
      if (!seen.insert(combo).second) continue;
      PredicateSet predicates;
      for (size_t i = 0; i < subset.size(); ++i) {
        predicates.push_back(EqPredicate{subset[i], combo[i]});
      }
      std::sort(predicates.begin(), predicates.end(),
                [](const EqPredicate& a, const EqPredicate& b) { return a.dim < b.dim; });
      sets.push_back(std::move(predicates));
    }
  }
  std::vector<VoiceQuery> queries;
  for (int target : targets) {
    for (const PredicateSet& predicates : sets) {
      queries.push_back(VoiceQuery{target, predicates});
    }
  }
  return queries;
}

TEST(ProblemGeneratorTest, MatchesARowAtATimeReferenceOnEveryDataset) {
  std::vector<Table> tables;
  tables.push_back(MakeRunningExampleTable());
  tables.push_back(MakeFlightsTable(3000, 11));
  tables.push_back(MakeAcsTable(2000, 12));
  tables.push_back(MakeStackOverflowTable(3000, 13));
  tables.push_back(MakePrimariesTable(2000, 14));
  // No rows: every value combination is absent, so only the empty predicate
  // set remains, once per target.
  tables.push_back(MakeFlightsTable(0, 15));
  for (const Table& table : tables) {
    // Every dimension and target, dimensions configured in reverse table
    // order so that each predicate set must be normalized.
    Configuration config;
    config.table = table.name();
    std::vector<int> dims;
    for (size_t d = table.NumDims(); d-- > 0;) {
      config.dimensions.push_back(table.DimName(d));
      dims.push_back(static_cast<int>(d));
    }
    std::vector<int> targets;
    for (size_t t = 0; t < table.NumTargets(); ++t) {
      config.targets.push_back(table.TargetName(t));
      targets.push_back(static_cast<int>(t));
    }
    for (int max_predicates = 0; max_predicates <= 3; ++max_predicates) {
      SCOPED_TRACE(table.name() + " max_query_predicates " + std::to_string(max_predicates));
      config.max_query_predicates = max_predicates;
      auto generator = ProblemGenerator::Create(&table, config);
      ASSERT_TRUE(generator.ok());
      std::vector<VoiceQuery> want = ReferenceQueries(
          table, dims, targets, std::min<int>(max_predicates, static_cast<int>(dims.size())));
      std::vector<VoiceQuery> got = generator.value().GenerateQueries();
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].target_index, want[i].target_index) << "query " << i;
        EXPECT_EQ(got[i].predicates, want[i].predicates) << "query " << i;
      }
    }
  }
}

TEST(ProblemGeneratorTest, UnknownColumnsFail) {
  Table table = MakeRunningExampleTable();
  Configuration config = RunningExampleConfig();
  config.dimensions = {"region", "bogus"};
  EXPECT_FALSE(ProblemGenerator::Create(&table, config).ok());
  config = RunningExampleConfig();
  config.targets = {"bogus"};
  EXPECT_FALSE(ProblemGenerator::Create(&table, config).ok());
  // A target name passed as dimension must fail too.
  config = RunningExampleConfig();
  config.dimensions = {"delay"};
  EXPECT_FALSE(ProblemGenerator::Create(&table, config).ok());
}

TEST(ProblemGeneratorTest, KeyEncodesTargetAndPredicates) {
  VoiceQuery q1;
  q1.target_index = 0;
  VoiceQuery q2;
  q2.target_index = 1;
  EXPECT_NE(q1.Key(), q2.Key());
  q1.predicates.push_back(EqPredicate{2, 5});
  VoiceQuery q3 = q1;
  q3.predicates[0].value = 6;
  EXPECT_NE(q1.Key(), q3.Key());
}

}  // namespace
}  // namespace vq
