#include "facts/catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "relational/group_by.h"
#include "storage/datasets.h"
#include "util/rng.h"
#include "testing/kernel_override.h"
#include "util/simd.h"

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
  for (uint32_t g = 0; g < catalog.NumGroups(); ++g) {
    const FactGroup& group = catalog.group(g);
    std::span<const FactId> row_fact = catalog.RowFacts(g);
    ASSERT_EQ(row_fact.size(), instance_.num_rows);
    double weight = 0.0;
    for (size_t r = 0; r < instance_.num_rows; ++r) {
      FactId id = row_fact[r];
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
/// codes, the top radix digits, are always in play. Targets are integers
/// 0-9, or with `fractional_targets` those divided by 7 plus 0.1, whose
/// weighted sums round differently when added in another order.
Table MakeRandomTable(uint64_t seed, const std::vector<size_t>& dict_cards,
                      const std::vector<size_t>& used_cards, int num_rows,
                      bool fractional_targets = false) {
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
    double target = static_cast<double>(rng.NextInt(0, 9));
    if (fractional_targets) target = target / 7.0 + 0.1;
    EXPECT_TRUE(table.AppendRow(values, {target}).ok());
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
    std::span<const FactId> row_fact = catalog.RowFacts(g);
    EXPECT_EQ(std::vector<FactId>(row_fact.begin(), row_fact.end()), row_facts[g])
        << "group " << g;
  }
  EXPECT_TRUE(catalog.HasScopeBits());
  for (FactId id = 0; id < facts.size(); ++id) {
    const std::vector<FactId>& row_fact = row_facts[facts[id].group];
    std::vector<uint32_t> rows;
    std::vector<uint64_t> bits(catalog.ScopeWords(), 0);
    for (uint32_t r = 0; r < inst.num_rows; ++r) {
      if (row_fact[r] != id) continue;
      rows.push_back(r);
      bits[r >> 6] |= uint64_t{1} << (r & 63);
    }
    auto got_rows = catalog.ScopeRows(id);
    auto got_bits = catalog.ScopeBits(id);
    EXPECT_EQ(std::vector<uint32_t>(got_rows.begin(), got_rows.end()), rows) << id;
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

TEST(CatalogDifferentialTest, MatchesMapReferenceWithFractionalTargets) {
  // Typical values must keep the exact bits of a row-order accumulation;
  // integer targets would hide a different summation order.
  for (uint64_t seed : {4ull, 9ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Table table = MakeRandomTable(seed, {5, 3, 8, 4}, {5, 3, 8, 4}, 900, true);
    auto inst = BuildInstance(table, {}, 0);
    ASSERT_TRUE(inst.ok());
    ExpectCatalogMatchesReference(inst.value(), 3);
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

/// Every fact's scope bitset derived from the scope joins alone.
std::vector<uint64_t> ReferenceScopeBits(const FactCatalog& catalog, size_t num_rows) {
  std::vector<uint64_t> bits(catalog.NumFacts() * catalog.ScopeWords(), 0);
  for (uint32_t g = 0; g < catalog.NumGroups(); ++g) {
    std::span<const FactId> row_fact = catalog.RowFacts(g);
    for (size_t r = 0; r < num_rows; ++r) {
      bits[row_fact[r] * catalog.ScopeWords() + (r >> 6)] |= uint64_t{1} << (r & 63);
    }
  }
  return bits;
}

TEST(CatalogScopeBitsTest, ConcurrentFirstCallsBuildTheReferenceBitsets) {
  // Build leaves the bitsets unbuilt; four threads race the first
  // ScopeBits() calls on one catalog (the call_once build) and each copies
  // every fact's bitset out.
  Table table = MakeRandomTable(5, {6, 7, 5, 4}, {6, 7, 5, 4}, 700);
  auto inst = BuildInstance(table, {}, 0);
  ASSERT_TRUE(inst.ok());
  auto built = FactCatalog::Build(inst.value(), 3);
  ASSERT_TRUE(built.ok());
  const FactCatalog& catalog = built.value();
  ASSERT_TRUE(catalog.HasScopeBits());
  constexpr int kThreads = 4;
  std::vector<std::vector<uint64_t>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&catalog, &seen, t] {
      // Start at different facts so the threads do not all enter through
      // the same id.
      size_t n = catalog.NumFacts();
      std::vector<uint64_t>& out = seen[static_cast<size_t>(t)];
      out.resize(n * catalog.ScopeWords());
      for (size_t i = 0; i < n; ++i) {
        FactId id = static_cast<FactId>((i + static_cast<size_t>(t) * n / kThreads) % n);
        std::span<const uint64_t> bits = catalog.ScopeBits(id);
        std::copy(bits.begin(), bits.end(), out.begin() + id * catalog.ScopeWords());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<uint64_t> reference = ReferenceScopeBits(catalog, inst.value().num_rows);
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[static_cast<size_t>(t)], reference) << t;
}

/// The eager FactCatalog::Build that stored every group's scope join, kept
/// here as the differential reference for the lazy one: pass 1 writes each
/// group's row -> fact ids into the group's own join from the instance's
/// columns, pass 2 counting-sorts the CSR lists through per-fact cursors,
/// and a separate walk over every fact's list sums it in list order -- the
/// independent sum order the single fused pass of Build must reproduce.
struct EagerCatalog {
  std::vector<FactGroup> groups;
  std::vector<std::vector<FactId>> row_fact;  ///< per group, per row
  std::vector<Fact> facts;
  std::vector<uint32_t> offsets;  ///< CSR offsets per fact
  std::vector<uint32_t> rows;     ///< CSR rows
};

EagerCatalog BuildEager(const SummaryInstance& instance, int max_fact_dims,
                        int min_fact_dims) {
  size_t num_dims = instance.dims.size();
  size_t num_rows = instance.num_rows;
  EagerCatalog catalog;
  catalog.offsets.push_back(0);
  std::vector<uint32_t> cursor;
  GroupIndexer indexer;
  for (uint32_t mask = 0; mask < (1u << num_dims); ++mask) {
    if (std::popcount(mask) > max_fact_dims || std::popcount(mask) < min_fact_dims) {
      continue;
    }
    uint32_t group_index = static_cast<uint32_t>(catalog.groups.size());
    FactGroup group;
    group.mask = mask;
    size_t radices[kMaxGroupDims] = {};
    const ValueId* group_columns[kMaxGroupDims] = {};
    for (size_t d = 0; d < num_dims; ++d) {
      if (mask & (1u << d)) {
        radices[group.dim_positions.size()] = instance.dim_cardinalities[d];
        group_columns[group.dim_positions.size()] = instance.codes.data() + d * num_rows;
        group.dim_positions.push_back(static_cast<int>(d));
      }
    }
    group.first_fact = static_cast<FactId>(catalog.facts.size());
    std::vector<FactId> row_fact(num_rows);
    indexer.Reset({radices, group.dim_positions.size()});
    indexer.InsertColumns(group_columns, num_rows, row_fact.data(), &cursor);
    group.num_facts = static_cast<uint32_t>(indexer.size());
    for (uint32_t i = 0; i < group.num_facts; ++i) {
      catalog.facts.push_back(Fact{group_index, indexer.key(i), 0.0, 0.0});
      uint32_t begin = catalog.offsets.back();
      catalog.offsets.push_back(begin + cursor[i]);
      cursor[i] = begin;
    }
    catalog.rows.resize(catalog.offsets.back());
    for (size_t r = 0; r < num_rows; ++r) {
      FactId& id = row_fact[r];
      catalog.rows[cursor[id]++] = static_cast<uint32_t>(r);
      id += group.first_fact;
    }
    for (FactId id = group.first_fact; id < group.first_fact + group.num_facts; ++id) {
      double scope_weight = 0.0;
      double sum = 0.0;
      for (uint32_t k = catalog.offsets[id]; k < catalog.offsets[id + 1]; ++k) {
        double w = instance.weight[catalog.rows[k]];
        scope_weight += w;
        sum += instance.target[catalog.rows[k]] * w;
      }
      catalog.facts[id].value = scope_weight > 0.0 ? sum / scope_weight : 0.0;
      catalog.facts[id].scope_weight = scope_weight;
    }
    catalog.groups.push_back(std::move(group));
    catalog.row_fact.push_back(std::move(row_fact));
  }
  return catalog;
}

/// Builds `inst` both ways and expects every field bit for bit: groups,
/// facts, ScopeRows, ScopeBits and the lazily built scope join.
void ExpectCatalogMatchesEager(const SummaryInstance& inst, int max_fact_dims,
                               int min_fact_dims) {
  SCOPED_TRACE("fact dims " + std::to_string(min_fact_dims) + ".." +
               std::to_string(max_fact_dims));
  auto built = FactCatalog::Build(inst, max_fact_dims, min_fact_dims);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const FactCatalog& catalog = built.value();
  EagerCatalog eager = BuildEager(inst, max_fact_dims, min_fact_dims);

  ASSERT_EQ(catalog.NumGroups(), eager.groups.size());
  for (uint32_t g = 0; g < eager.groups.size(); ++g) {
    const FactGroup& got = catalog.group(g);
    EXPECT_EQ(got.mask, eager.groups[g].mask) << "group " << g;
    EXPECT_EQ(got.dim_positions, eager.groups[g].dim_positions) << "group " << g;
    EXPECT_EQ(got.first_fact, eager.groups[g].first_fact) << "group " << g;
    EXPECT_EQ(got.num_facts, eager.groups[g].num_facts) << "group " << g;
    EXPECT_EQ(catalog.GroupIndexForMask(got.mask), static_cast<int>(g));
  }
  ASSERT_EQ(catalog.NumFacts(), eager.facts.size());
  for (FactId id = 0; id < eager.facts.size(); ++id) {
    const Fact& got = catalog.fact(id);
    EXPECT_EQ(got.group, eager.facts[id].group) << "fact " << id;
    EXPECT_EQ(got.packed, eager.facts[id].packed) << "fact " << id;
    EXPECT_EQ(Bits(got.value), Bits(eager.facts[id].value)) << "fact " << id;
    EXPECT_EQ(Bits(got.scope_weight), Bits(eager.facts[id].scope_weight)) << "fact " << id;
    std::span<const uint32_t> rows = catalog.ScopeRows(id);
    EXPECT_EQ(std::vector<uint32_t>(rows.begin(), rows.end()),
              std::vector<uint32_t>(eager.rows.begin() + eager.offsets[id],
                                    eager.rows.begin() + eager.offsets[id + 1]))
        << "fact " << id;
  }
  if (catalog.HasScopeBits()) {
    for (FactId id = 0; id < eager.facts.size(); ++id) {
      std::vector<uint64_t> bits(catalog.ScopeWords(), 0);
      for (uint32_t r = 0; r < inst.num_rows; ++r) {
        if (eager.row_fact[eager.facts[id].group][r] == id) {
          bits[r >> 6] |= uint64_t{1} << (r & 63);
        }
      }
      std::span<const uint64_t> got = catalog.ScopeBits(id);
      EXPECT_EQ(std::vector<uint64_t>(got.begin(), got.end()), bits) << "fact " << id;
    }
  }
  for (uint32_t g = 0; g < eager.groups.size(); ++g) {
    std::span<const FactId> row_fact = catalog.RowFacts(g);
    EXPECT_EQ(std::vector<FactId>(row_fact.begin(), row_fact.end()), eager.row_fact[g])
        << "group " << g;
  }
}

/// An instance built directly: dimension d's codes are drawn from the top
/// used_cards[d] of dict_cards[d] values, weights are multiplicities 1-4,
/// and targets are fractions, or with `special_targets` also NaN, +-0 and
/// +-inf.
SummaryInstance MakeDirectInstance(uint64_t seed, const std::vector<size_t>& dict_cards,
                                   const std::vector<size_t>& used_cards, size_t num_rows,
                                   bool special_targets) {
  Rng rng(seed);
  SummaryInstance inst;
  for (size_t d = 0; d < dict_cards.size(); ++d) inst.dims.push_back(static_cast<int>(d));
  inst.dim_cardinalities = dict_cards;
  inst.num_rows = num_rows;
  inst.codes.resize(dict_cards.size() * num_rows);
  const double kSpecial[] = {std::numeric_limits<double>::quiet_NaN(), 0.0, -0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t d = 0; d < dict_cards.size(); ++d) {
      inst.codes[d * num_rows + r] =
          static_cast<ValueId>(dict_cards[d] - 1 - rng.NextBelow(used_cards[d]));
    }
    double target = static_cast<double>(rng.NextInt(0, 9)) / 7.0 + 0.1;
    if (special_targets && rng.NextBelow(8) == 0) target = kSpecial[rng.NextBelow(5)];
    inst.target.push_back(target);
    inst.weight.push_back(static_cast<double>(rng.NextInt(1, 4)));
    inst.total_weight += inst.weight.back();
  }
  return inst;
}

/// Six rows over two dimensions whose sums depend on the order they are
/// added in: rows 0-2 share dimension 0's value 0 and carry 1e16, 1.0 and
/// -1e16, which sum to 0 in ascending row order (1e16 + 1.0 rounds back to
/// 1e16) but to 1 when the two large targets meet first.
SummaryInstance MakeOrderSensitiveInstance() {
  SummaryInstance inst;
  inst.dims = {0, 1};
  inst.dim_cardinalities = {2, 3};
  inst.num_rows = 6;
  inst.codes = {0, 0, 0, 1, 1, 1,   // dimension 0
                0, 1, 2, 0, 1, 2};  // dimension 1
  inst.target = {1e16, 1.0, -1e16, 2.0, 4.0, 6.0};
  inst.weight.assign(6, 1.0);
  inst.total_weight = 6.0;
  return inst;
}

using testing::ScopedKernelOverride;

TEST(CatalogEagerDifferentialTest, LazyJoinCatalogMatchesEagerBuild) {
  struct Case {
    std::string label;
    SummaryInstance inst;
  };
  std::vector<Case> cases;
  cases.push_back({"dense", MakeDirectInstance(1, {5, 3, 8, 4}, {5, 3, 8, 4}, 700, false)});
  cases.push_back({"special targets",
                   MakeDirectInstance(2, {4, 6, 3, 5}, {4, 6, 3, 5}, 500, true)});
  // Pairs of the first two dimensions have 90 000 slots, past
  // GroupIndexer::kMaxDenseSlots: the hash-map path.
  cases.push_back({"sparse", MakeDirectInstance(3, {300, 300, 5, 2}, {120, 120, 5, 2},
                                                2000, true)});
  ASSERT_GT(RadixProduct(std::vector<size_t>{300, 300}), GroupIndexer::kMaxDenseSlots);
  cases.push_back({"one row", MakeDirectInstance(4, {3, 2, 5, 7}, {3, 2, 5, 7}, 1, true)});
  cases.push_back({"no rows", MakeDirectInstance(5, {3, 2, 5, 7}, {3, 2, 5, 7}, 0, false)});
  cases.push_back({"no dimensions", MakeDirectInstance(6, {}, {}, 90, true)});
  cases.push_back({"order-sensitive targets", MakeOrderSensitiveInstance()});
  for (const simd::Kernels* kernels : simd::AllImplementations()) {
    SCOPED_TRACE(kernels->name);
    ScopedKernelOverride override_kernels(kernels);
    for (const Case& c : cases) {
      SCOPED_TRACE(c.label);
      int max_dims = static_cast<int>(std::min<size_t>(c.inst.dims.size(), kMaxGroupDims));
      for (int max_fact_dims = 0; max_fact_dims <= max_dims; ++max_fact_dims) {
        for (int min_fact_dims = 0; min_fact_dims <= max_fact_dims; ++min_fact_dims) {
          ExpectCatalogMatchesEager(c.inst, max_fact_dims, min_fact_dims);
        }
      }
    }
  }
}

TEST(CatalogEagerDifferentialTest, TypicalValuesAddRowsInAscendingOrder) {
  auto built = FactCatalog::Build(MakeOrderSensitiveInstance(), 1);
  ASSERT_TRUE(built.ok());
  const FactCatalog& catalog = built.value();
  const FactGroup& dim0 =
      catalog.group(static_cast<uint32_t>(catalog.GroupIndexForMask(0b01)));
  ASSERT_EQ(dim0.num_facts, 2u);
  // ((1e16 + 1) - 1e16) / 3 = 0, where (1e16 - 1e16 + 1) / 3 would be 1/3.
  EXPECT_EQ(Bits(catalog.fact(dim0.first_fact).value), Bits(0.0));
  EXPECT_EQ(Bits(catalog.fact(dim0.first_fact + 1).value), Bits(4.0));
  // The overall fact: ((1e16 + 1) - 1e16 + 2 + 4 + 6) / 6 = 2.
  const FactGroup& overall =
      catalog.group(static_cast<uint32_t>(catalog.GroupIndexForMask(0)));
  EXPECT_EQ(Bits(catalog.fact(overall.first_fact).value), Bits(2.0));
}

TEST(CatalogRowFactTest, ConcurrentFirstRowInScopeCallsBuildTheJoin) {
  // Build leaves the scope join unbuilt; four threads race the first
  // RowInScope() calls on one catalog (the call_once build) and each
  // rebuilds every group's join from them.
  SummaryInstance inst = MakeDirectInstance(8, {6, 7, 5, 4}, {6, 7, 5, 4}, 300, false);
  auto built = FactCatalog::Build(inst, 3);
  ASSERT_TRUE(built.ok());
  const FactCatalog& catalog = built.value();
  size_t n = inst.num_rows;
  constexpr int kThreads = 4;
  std::vector<std::vector<FactId>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&catalog, &seen, n, t] {
      // Start at different facts so the threads do not all enter through
      // the same id.
      size_t num_facts = catalog.NumFacts();
      std::vector<FactId>& out = seen[static_cast<size_t>(t)];
      out.assign(catalog.NumGroups() * n, kNoFact);
      for (size_t i = 0; i < num_facts; ++i) {
        FactId id = static_cast<FactId>((i + static_cast<size_t>(t) * num_facts / kThreads) %
                                        num_facts);
        for (size_t r = 0; r < n; ++r) {
          if (catalog.RowInScope(r, id)) out[catalog.fact(id).group * n + r] = id;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EagerCatalog eager = BuildEager(inst, 3, 0);
  std::vector<FactId> reference;
  for (const std::vector<FactId>& row_fact : eager.row_fact) {
    reference.insert(reference.end(), row_fact.begin(), row_fact.end());
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[static_cast<size_t>(t)], reference) << t;
}

TEST(CatalogLimitsTest, RejectsScopeJoinPastUint32Offsets) {
  // 31 dimensions of cardinality 1 with max_fact_dims = 4 enumerate
  // 1 + 31 + 465 + 4495 + 31465 = 36 457 groups; over 117 810 rows that is
  // 4 294 999 170 (group, row) entries, just past UINT32_MAX. Build must
  // refuse before allocating the ~17 GB of scope joins.
  constexpr size_t kDims = 31;
  constexpr size_t kRows = 117810;
  SummaryInstance inst;
  for (size_t d = 0; d < kDims; ++d) inst.dims.push_back(static_cast<int>(d));
  inst.dim_cardinalities.assign(kDims, 1);
  inst.num_rows = kRows;
  inst.total_weight = static_cast<double>(kRows);
  inst.codes.assign(kDims * kRows, 0);  // every column all zeros
  inst.target.assign(kRows, 1.0);
  inst.weight.assign(kRows, 1.0);
  auto built = FactCatalog::Build(inst, 4);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kUnsupported)
      << built.status().ToString();
}

}  // namespace
}  // namespace vq
