#include "facts/catalog.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "relational/group_by.h"
#include "storage/datasets.h"
#include "util/rng.h"

namespace vq {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    InstanceOptions options;
    options.prior_kind = PriorKind::kZero;
    instance_ = BuildInstance(table_, {}, 0, options).value();
  }

  Table table_ = MakeRunningExampleTable();
  SummaryInstance instance_;
};

TEST_F(CatalogTest, GroupAndFactCounts) {
  auto catalog = FactCatalog::Build(instance_, 2);
  ASSERT_TRUE(catalog.ok());
  // Groups: {}, {region}, {season}, {region, season}.
  EXPECT_EQ(catalog.value().NumGroups(), 4u);
  // Facts: 1 overall + 4 regions + 4 seasons + 16 combos = 25 (Theorem 9's
  // bound with d=2, l=2 and 4 values each).
  EXPECT_EQ(catalog.value().NumFacts(), 25u);
}

TEST_F(CatalogTest, MaxFactDimsOneDropsPairGroup) {
  auto catalog = FactCatalog::Build(instance_, 1);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(catalog.value().NumGroups(), 3u);
  EXPECT_EQ(catalog.value().NumFacts(), 9u);
  EXPECT_EQ(catalog.value().GroupIndexForMask(0b11), -1);
  EXPECT_GE(catalog.value().GroupIndexForMask(0b01), 0);
}

TEST_F(CatalogTest, TypicalValuesAreScopeAverages) {
  auto catalog = FactCatalog::Build(instance_, 2).value();
  // Find the Winter fact: the season dim is position 1 in the instance.
  int season_group = catalog.GroupIndexForMask(1u << 1);
  ASSERT_GE(season_group, 0);
  bool found_winter = false;
  const FactGroup& group = catalog.group(static_cast<uint32_t>(season_group));
  for (uint32_t i = 0; i < group.num_facts; ++i) {
    FactId id = group.first_fact + i;
    auto scope = catalog.DescribeScope(table_, instance_, id);
    ASSERT_EQ(scope.size(), 1u);
    if (scope[0].second == "Winter") {
      found_winter = true;
      EXPECT_DOUBLE_EQ(catalog.fact(id).value, 15.0);  // Example 2
      EXPECT_DOUBLE_EQ(catalog.fact(id).scope_weight, 4.0);
    }
  }
  EXPECT_TRUE(found_winter);
}

TEST_F(CatalogTest, OverallFactIsGlobalAverage) {
  auto catalog = FactCatalog::Build(instance_, 2).value();
  int overall_group = catalog.GroupIndexForMask(0);
  ASSERT_GE(overall_group, 0);
  const FactGroup& group = catalog.group(static_cast<uint32_t>(overall_group));
  ASSERT_EQ(group.num_facts, 1u);
  EXPECT_DOUBLE_EQ(catalog.fact(group.first_fact).value, 7.5);
  EXPECT_TRUE(catalog.DescribeScope(table_, instance_, group.first_fact).empty());
}

TEST_F(CatalogTest, RowFactPartitionsRows) {
  auto catalog = FactCatalog::Build(instance_, 2).value();
  for (const auto& group : catalog.groups()) {
    ASSERT_EQ(group.row_fact.size(), instance_.num_rows);
    double weight = 0.0;
    for (size_t r = 0; r < instance_.num_rows; ++r) {
      FactId id = group.row_fact[r];
      ASSERT_GE(id, group.first_fact);
      ASSERT_LT(id, group.first_fact + group.num_facts);
      EXPECT_TRUE(catalog.RowInScope(r, id));
      weight += instance_.weight[r];
    }
    EXPECT_DOUBLE_EQ(weight, instance_.total_weight);
  }
}

TEST_F(CatalogTest, RowInScopeConsistentWithCodes) {
  auto catalog = FactCatalog::Build(instance_, 2).value();
  // For every fact and row: in scope iff the row's codes match the scope.
  for (FactId id = 0; id < catalog.NumFacts(); ++id) {
    auto scope = catalog.DescribeScope(table_, instance_, id);
    for (size_t r = 0; r < instance_.num_rows; ++r) {
      bool expect_in_scope = true;
      for (const auto& [dim_name, value] : scope) {
        // Map back to instance dim position.
        for (size_t pos = 0; pos < instance_.dim_names.size(); ++pos) {
          if (instance_.dim_names[pos] != dim_name) continue;
          int table_dim = instance_.dims[pos];
          ValueId code = *table_.dict(static_cast<size_t>(table_dim)).Find(value);
          if (instance_.CodeAt(r, pos) != code) expect_in_scope = false;
        }
      }
      EXPECT_EQ(catalog.RowInScope(r, id), expect_in_scope) << "fact " << id;
    }
  }
}

TEST_F(CatalogTest, WeightedAverageOfFactValuesIsGlobalAverage) {
  auto catalog = FactCatalog::Build(instance_, 2).value();
  // Within each group, scope_weight-weighted mean of fact values must equal
  // the overall average (facts partition the rows).
  for (const auto& group : catalog.groups()) {
    double sum = 0.0;
    double weight = 0.0;
    for (uint32_t i = 0; i < group.num_facts; ++i) {
      const Fact& fact = catalog.fact(group.first_fact + i);
      sum += fact.value * fact.scope_weight;
      weight += fact.scope_weight;
    }
    EXPECT_NEAR(sum / weight, 7.5, 1e-9);
  }
}

TEST_F(CatalogTest, RejectsTooManyFactDims) {
  EXPECT_FALSE(FactCatalog::Build(instance_, 5).ok());
  EXPECT_FALSE(FactCatalog::Build(instance_, -1).ok());
}

/// A random table whose dimension d draws row values from the last
/// used_cards[d] of dict_cards[d] interned values: dictionary cardinalities
/// (the catalog's radices) can exceed what the rows use, and the highest
/// codes, the top radix digits, are always in play.
Table MakeRandomTable(uint64_t seed, const std::vector<size_t>& dict_cards,
                      const std::vector<size_t>& used_cards, int num_rows) {
  Rng rng(seed);
  Table table("random");
  for (size_t d = 0; d < dict_cards.size(); ++d) {
    table.AddDimColumn("d" + std::to_string(d));
    for (size_t v = 0; v < dict_cards[d]; ++v) {
      table.mutable_dict(d).Intern("v" + std::to_string(v));
    }
  }
  table.AddTargetColumn("y");
  std::vector<std::string> values(dict_cards.size());
  for (int r = 0; r < num_rows; ++r) {
    for (size_t d = 0; d < dict_cards.size(); ++d) {
      size_t code = dict_cards[d] - 1 - rng.NextBelow(used_cards[d]);
      values[d] = "v" + std::to_string(code);
    }
    EXPECT_TRUE(table.AppendRow(values, {static_cast<double>(rng.NextInt(0, 9))}).ok());
  }
  return table;
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// Differential check of FactCatalog::Build against an independent
/// reference: a std::map over PackGroupKey per group, ids in first-seen
/// order. Facts, scope joins and every CSR/SoA/bitset table must match
/// bit for bit.
void ExpectCatalogMatchesReference(const SummaryInstance& inst, int max_fact_dims) {
  auto built = FactCatalog::Build(inst, max_fact_dims);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const FactCatalog& catalog = built.value();
  size_t num_dims = inst.dims.size();

  std::vector<Fact> facts;
  std::vector<std::vector<FactId>> row_facts;
  for (uint32_t mask = 0; mask < (1u << num_dims); ++mask) {
    if (std::popcount(mask) > max_fact_dims) continue;
    uint32_t group = static_cast<uint32_t>(row_facts.size());
    FactId first = static_cast<FactId>(facts.size());
    std::map<uint64_t, FactId> id_of_key;
    std::vector<double> sums;
    std::vector<FactId> row_fact(inst.num_rows);
    for (size_t r = 0; r < inst.num_rows; ++r) {
      std::vector<ValueId> codes;
      for (size_t d = 0; d < num_dims; ++d) {
        if (mask & (1u << d)) codes.push_back(inst.CodeAt(r, d));
      }
      uint64_t key = PackGroupKey(codes);
      auto [it, inserted] = id_of_key.emplace(key, static_cast<FactId>(facts.size()));
      if (inserted) {
        facts.push_back(Fact{group, key, 0.0, 0.0});
        sums.push_back(0.0);
      }
      row_fact[r] = it->second;
      facts[it->second].scope_weight += inst.weight[r];
      sums[it->second - first] += inst.target[r] * inst.weight[r];
    }
    for (FactId id = first; id < facts.size(); ++id) {
      facts[id].value = sums[id - first] / facts[id].scope_weight;
    }
    row_facts.push_back(std::move(row_fact));
  }

  ASSERT_EQ(catalog.NumGroups(), row_facts.size());
  ASSERT_EQ(catalog.NumFacts(), facts.size());
  for (FactId id = 0; id < facts.size(); ++id) {
    const Fact& got = catalog.fact(id);
    EXPECT_EQ(got.group, facts[id].group) << "fact " << id;
    EXPECT_EQ(got.packed, facts[id].packed) << "fact " << id;
    EXPECT_EQ(Bits(got.value), Bits(facts[id].value)) << "fact " << id;
    EXPECT_EQ(Bits(got.scope_weight), Bits(facts[id].scope_weight)) << "fact " << id;
  }
  for (uint32_t g = 0; g < row_facts.size(); ++g) {
    EXPECT_EQ(catalog.group(g).row_fact, row_facts[g]) << "group " << g;
  }
  EXPECT_TRUE(catalog.HasScopeBits());
  for (FactId id = 0; id < facts.size(); ++id) {
    const std::vector<FactId>& row_fact = row_facts[facts[id].group];
    std::vector<uint32_t> rows;
    std::vector<uint64_t> devs, weights, prior_devs;
    std::vector<uint64_t> bits(catalog.ScopeWords(), 0);
    for (uint32_t r = 0; r < inst.num_rows; ++r) {
      if (row_fact[r] != id) continue;
      rows.push_back(r);
      devs.push_back(Bits(std::fabs(facts[id].value - inst.target[r])));
      weights.push_back(Bits(inst.weight[r]));
      prior_devs.push_back(Bits(std::fabs(inst.prior - inst.target[r])));
      bits[r >> 6] |= uint64_t{1} << (r & 63);
    }
    auto as_bits = [](std::span<const double> xs) {
      std::vector<uint64_t> out;
      for (double x : xs) out.push_back(Bits(x));
      return out;
    };
    auto got_rows = catalog.ScopeRows(id);
    auto got_bits = catalog.ScopeBits(id);
    EXPECT_EQ(std::vector<uint32_t>(got_rows.begin(), got_rows.end()), rows) << id;
    EXPECT_EQ(as_bits(catalog.ScopeDevs(id)), devs) << "fact " << id;
    EXPECT_EQ(as_bits(catalog.ScopeWeights(id)), weights) << "fact " << id;
    EXPECT_EQ(as_bits(catalog.ScopePriorDevs(id)), prior_devs) << "fact " << id;
    EXPECT_EQ(std::vector<uint64_t>(got_bits.begin(), got_bits.end()), bits) << id;
  }
}

TEST(CatalogDifferentialTest, MatchesMapReferenceOnRandomInstances) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 20210318ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<size_t> cards;
    for (int d = 0; d < 4; ++d) cards.push_back(static_cast<size_t>(rng.NextInt(1, 12)));
    Table table = MakeRandomTable(seed, cards, cards, 400);
    auto inst = BuildInstance(table, {}, 0);
    ASSERT_TRUE(inst.ok());
    ExpectCatalogMatchesReference(inst.value(), 3);
    // A query predicate fixes one dimension: the rest keep their full
    // dictionaries as radices over a filtered subset.
    PredicateSet query = {MakePredicate(table, "d0", table.DimValue(0, 0)).value()};
    auto subset = BuildInstance(table, query, 0);
    ASSERT_TRUE(subset.ok());
    ExpectCatalogMatchesReference(subset.value(), 2);
  }
}

TEST(CatalogDifferentialTest, MatchesMapReferencePastDenseSlotBound) {
  // 300 x 300 dictionary values: the pair group's radix product (90 000)
  // exceeds GroupIndexer::kMaxDenseSlots, so it takes the hash-map
  // path with ~2.5k distinct pairs.
  Table table = MakeRandomTable(7, {300, 300, 5}, {120, 120, 5}, 3000);
  auto inst = BuildInstance(table, {}, 0);
  ASSERT_TRUE(inst.ok());
  ASSERT_GT(RadixProduct(std::vector<size_t>{300, 300}), GroupIndexer::kMaxDenseSlots);
  ExpectCatalogMatchesReference(inst.value(), 3);
}

TEST(CatalogDifferentialTest, MatchesMapReferenceAtPackableCardinalityLimit) {
  // Four dimensions of 65 535 values with max_fact_dims = 4: the radix
  // product (65535^4) sits just below 2^64 and must neither wrap into the
  // dense range nor overflow.
  size_t limit = kMaxPackableCode;
  Table table = MakeRandomTable(11, {limit, limit, limit, limit}, {3, 4, 3, 50}, 300);
  auto inst = BuildInstance(table, {}, 0);
  ASSERT_TRUE(inst.ok());
  ExpectCatalogMatchesReference(inst.value(), 4);
}

}  // namespace
}  // namespace vq
