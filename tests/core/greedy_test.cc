#include "core/greedy.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "storage/datasets.h"
#include "testing/random_instance.h"
#include "util/rng.h"
#include "util/simd.h"

namespace vq {
namespace {

using testing::MakeRandomProblem;
using testing::RandomProblem;

TEST(GreedyTest, EmptyCatalogYieldsEmptySpeech) {
  // A single-row table: catalog has facts but all have zero utility when the
  // prior equals the only value.
  Table table("t");
  table.AddDimColumn("d");
  table.AddTargetColumn("y");
  ASSERT_TRUE(table.AppendRow({"a"}, {5.0}).ok());
  auto instance = BuildInstance(table, {}, 0).value();  // prior = 5.0
  auto catalog = FactCatalog::Build(instance, 1).value();
  Evaluator evaluator(&instance, &catalog);
  GreedyOptions options;
  SummaryResult result = GreedySummary(evaluator, options);
  EXPECT_TRUE(result.facts.empty());  // nothing improves a perfect prior
  EXPECT_DOUBLE_EQ(result.utility, 0.0);
}

TEST(GreedyTest, MaxFactsZeroReturnsEmpty) {
  RandomProblem problem = MakeRandomProblem(3);
  GreedyOptions options;
  options.max_facts = 0;
  SummaryResult result = GreedySummary(*problem.evaluator, options);
  EXPECT_TRUE(result.facts.empty());
  EXPECT_DOUBLE_EQ(result.error, result.base_error);
}

TEST(GreedyTest, UtilityIncreasesWithSpeechLength) {
  RandomProblem problem = MakeRandomProblem(7, 3, 3, 60);
  double previous = -1.0;
  for (int m = 1; m <= 4; ++m) {
    GreedyOptions options;
    options.max_facts = m;
    SummaryResult result = GreedySummary(*problem.evaluator, options);
    EXPECT_GE(result.utility, previous - 1e-9) << m;
    previous = result.utility;
  }
}

TEST(GreedyTest, SelectsDistinctFacts) {
  RandomProblem problem = MakeRandomProblem(11);
  GreedyOptions options;
  options.max_facts = 3;
  SummaryResult result = GreedySummary(*problem.evaluator, options);
  for (size_t i = 0; i < result.facts.size(); ++i) {
    for (size_t j = i + 1; j < result.facts.size(); ++j) {
      EXPECT_NE(result.facts[i], result.facts[j]);
    }
  }
}

TEST(GreedyTest, FirstFactIsMaxSingleUtility) {
  RandomProblem problem = MakeRandomProblem(13);
  GreedyOptions options;
  options.max_facts = 1;
  SummaryResult result = GreedySummary(*problem.evaluator, options);
  std::vector<double> utilities = problem.evaluator->SingleFactUtilities();
  double best = 0.0;
  for (double u : utilities) best = std::max(best, u);
  ASSERT_EQ(result.facts.size(), 1u);
  EXPECT_NEAR(utilities[result.facts[0]], best, 1e-9);
}

TEST(GreedyTest, PruningReducesJoinWork) {
  // On an instance with clearly separated group utilities, pruning should
  // compute utility for fewer groups than the base greedy.
  RandomProblem problem = MakeRandomProblem(17, /*num_dims=*/4, /*max_card=*/4,
                                            /*num_rows=*/200, /*value_range=*/30);
  GreedyOptions base;
  base.max_facts = 3;
  SummaryResult r_base = GreedySummary(*problem.evaluator, base);
  GreedyOptions optimized = base;
  optimized.pruning = FactPruning::kOptimized;
  SummaryResult r_opt = GreedySummary(*problem.evaluator, optimized);
  EXPECT_NEAR(r_base.utility, r_opt.utility, 1e-9);
  // The optimized variant may prune; it must never join more groups.
  EXPECT_LE(r_opt.counters.groups_joined, r_base.counters.groups_joined);
}

TEST(GreedyTest, Counterspopulated) {
  RandomProblem problem = MakeRandomProblem(19);
  GreedyOptions options;
  options.max_facts = 2;
  SummaryResult result = GreedySummary(*problem.evaluator, options);
  EXPECT_GT(result.counters.join_rows, 0u);
  EXPECT_GT(result.counters.groups_joined, 0u);
  EXPECT_GE(result.elapsed_seconds, 0.0);
}

namespace {

/// Fake clock where one "second" elapses per read, so expiry is a pure
/// function of how many deadline checks greedy performed -- deterministic
/// for a fixed instance, independent of machine speed.
Deadline::ClockFn TickClock(const std::shared_ptr<std::atomic<int>>& ticks) {
  return [ticks] {
    return static_cast<double>(ticks->fetch_add(1, std::memory_order_relaxed));
  };
}

}  // namespace

TEST(GreedyTest, ExpiredDeadlineReturnsEmptyTimedOut) {
  RandomProblem problem = MakeRandomProblem(23);
  auto ticks = std::make_shared<std::atomic<int>>(0);
  // Budget 0.5 "seconds": the constructor reads t=0, the first pre-iteration
  // check reads t=1 >= 0.5 -- expired before any fact was selected.
  Deadline deadline(0.5, TickClock(ticks));
  GreedyOptions options;
  options.max_facts = 3;
  options.deadline = &deadline;
  SummaryResult result = GreedySummary(*problem.evaluator, options);
  EXPECT_TRUE(result.timed_out);
  EXPECT_TRUE(result.facts.empty());
  EXPECT_DOUBLE_EQ(result.error, result.base_error) << "no facts, base error";
}

TEST(GreedyTest, MidRunExpiryCheckpointsAPrefixOfTheFullRun) {
  RandomProblem problem = MakeRandomProblem(29, /*num_dims=*/4, /*max_card=*/4,
                                            /*num_rows=*/200);
  GreedyOptions options;
  options.max_facts = 3;
  SummaryResult full = GreedySummary(*problem.evaluator, options);
  ASSERT_GE(full.facts.size(), 2u) << "need a multi-fact run to truncate";

  // Instrumented full run: count how many clock reads an untruncated run
  // performs, so the truncating budget below can land mid-run by
  // construction rather than by timing luck.
  auto counting = std::make_shared<std::atomic<int>>(0);
  Deadline generous(1e9, TickClock(counting));
  options.deadline = &generous;
  SummaryResult instrumented = GreedySummary(*problem.evaluator, options);
  EXPECT_FALSE(instrumented.timed_out);
  ASSERT_EQ(instrumented.facts, full.facts);
  int total_reads = counting->load();
  ASSERT_GT(total_reads, 4) << "expected many deadline polls across the run";

  // Now expire halfway through those reads: greedy is anytime, so whatever
  // iterations completed must be exactly the first facts of the full run.
  auto ticks = std::make_shared<std::atomic<int>>(0);
  Deadline half(total_reads / 2.0, TickClock(ticks));
  options.deadline = &half;
  SummaryResult truncated = GreedySummary(*problem.evaluator, options);
  EXPECT_TRUE(truncated.timed_out);
  EXPECT_LE(truncated.facts.size(), full.facts.size());
  for (size_t i = 0; i < truncated.facts.size(); ++i) {
    EXPECT_EQ(truncated.facts[i], full.facts[i]) << "not a prefix at " << i;
  }
  EXPECT_LE(truncated.utility, full.utility + 1e-9);
}

TEST(GreedyTest, GenerousDeadlineChangesNothing) {
  RandomProblem problem = MakeRandomProblem(31);
  GreedyOptions options;
  options.max_facts = 3;
  SummaryResult plain = GreedySummary(*problem.evaluator, options);
  Deadline generous(3600.0);
  options.deadline = &generous;
  SummaryResult bounded = GreedySummary(*problem.evaluator, options);
  EXPECT_FALSE(bounded.timed_out);
  EXPECT_EQ(bounded.facts, plain.facts);
  EXPECT_DOUBLE_EQ(bounded.utility, plain.utility);
}

// ---- Lazy G-O against G-B: same facts and bits on every kernel table.

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(const simd::Kernels* kernels) {
    simd::SetActiveForTesting(kernels);
  }
  ~ScopedKernelOverride() { simd::SetActiveForTesting(nullptr); }
};

/// A problem over explicit rows: one dimension column per entry of
/// `dim_names`, one target. Returned through RandomProblem's owners.
RandomProblem MakeTableProblem(const std::vector<std::string>& dim_names,
                               const std::vector<std::vector<std::string>>& dims,
                               const std::vector<double>& targets, int max_fact_dims) {
  RandomProblem problem;
  problem.table = std::make_unique<Table>("rows");
  for (const std::string& name : dim_names) problem.table->AddDimColumn(name);
  problem.table->AddTargetColumn("y");
  for (size_t r = 0; r < targets.size(); ++r) {
    EXPECT_TRUE(problem.table->AppendRow(dims[r], {targets[r]}).ok());
  }
  problem.instance = std::make_unique<SummaryInstance>(
      BuildInstance(*problem.table, {}, 0).value());
  problem.catalog = std::make_unique<FactCatalog>(
      FactCatalog::Build(*problem.instance, max_fact_dims).value());
  problem.evaluator =
      std::make_unique<Evaluator>(problem.instance.get(), problem.catalog.get());
  return problem;
}

/// Re-seats the problem's prior (the catalog does not depend on it).
void SetPrior(RandomProblem* problem, double prior) {
  problem->instance->prior = prior;
  problem->evaluator =
      std::make_unique<Evaluator>(problem->instance.get(), problem->catalog.get());
}

/// Under every kernel table: G-O returns G-B's facts, utility and error
/// bits; its first-iteration bound covers every fact's computed gain; and
/// its first fact is the lowest id of maximal gain.
void ExpectLazyMatchesBase(const Evaluator& evaluator, int max_facts,
                           const std::string& where) {
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    ScopedKernelOverride override_kernels(impl);
    std::string label = where + " [" + impl->name + "]";
    std::vector<double> gains = evaluator.SingleFactUtilities();
    for (FactId id = 0; id < gains.size(); ++id) {
      ASSERT_GE(evaluator.SingleFactUtilityBound(id), gains[id])
          << label << " fact " << id << " bound below its computed gain";
    }

    GreedyOptions base;
    base.max_facts = max_facts;
    GreedyOptions lazy = base;
    lazy.pruning = FactPruning::kOptimized;
    SummaryResult expected = GreedySummary(evaluator, base);
    SummaryResult actual = GreedySummary(evaluator, lazy);
    ASSERT_EQ(actual.facts, expected.facts) << label;
    EXPECT_EQ(Bits(actual.utility), Bits(expected.utility)) << label;
    EXPECT_EQ(Bits(actual.error), Bits(expected.error)) << label;
    EXPECT_FALSE(actual.timed_out) << label;
    EXPECT_EQ(actual.counters.bound_rows, 0u) << label;
    EXPECT_LE(actual.counters.join_rows, expected.counters.join_rows) << label;

    if (!actual.facts.empty()) {
      FactId first = actual.facts.front();
      for (FactId id = 0; id < gains.size(); ++id) {
        EXPECT_LE(gains[id], gains[first]) << label << " fact " << id;
        if (id < first) {
          EXPECT_LT(gains[id], gains[first]) << label << " tie not at lowest id " << id;
        }
      }
    }
  }
}

TEST(LazyGreedyTest, MatchesBaseOnSeededInstances) {
  struct Shape {
    int num_dims, max_card, num_rows, value_range, max_fact_dims;
  };
  const Shape kShapes[] = {{3, 3, 40, 20, 2}, {4, 4, 200, 30, 2},
                           {5, 3, 120, 5, 3},  {2, 6, 60, 1000, 2}};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const Shape& shape = kShapes[seed % 4];
    RandomProblem problem =
        MakeRandomProblem(seed, shape.num_dims, shape.max_card, shape.num_rows,
                          shape.value_range, shape.max_fact_dims);
    for (int max_facts : {1, 3, 6}) {
      ExpectLazyMatchesBase(*problem.evaluator, max_facts,
                            "seed " + std::to_string(seed) + " m " +
                                std::to_string(max_facts));
    }
  }
}

TEST(LazyGreedyTest, BoundCoversRoundingWhenPriorMeetsFactValue) {
  // Fact d=a has value ((2^53 + 2) - 2^53) / 2 = 1 exactly. With the prior
  // one ulp below 1, |prior - (2^53 + 2)| rounds up to 2^53 + 2 while
  // |1 - (2^53 + 2)| = 2^53 + 1 ties down to 2^53: the computed gain is 2,
  // though scope_weight * |prior - value| is 2^-52. Only the absolute slack
  // term of the bound covers it.
  const double kBig = 0x1p53;
  RandomProblem problem = MakeTableProblem(
      {"d"}, {{"a"}, {"a"}, {"b"}, {"b"}, {"c"}},
      {kBig + 2.0, -kBig, 3.0, 1e15, -7.5}, 1);
  FactId fact_a = kNoFact;
  for (FactId id = 0; id < problem.catalog->NumFacts(); ++id) {
    if (problem.catalog->fact(id).value == 1.0) fact_a = id;
  }
  ASSERT_NE(fact_a, kNoFact);
  SetPrior(&problem, std::nextafter(1.0, 0.0));
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    ScopedKernelOverride override_kernels(impl);
    EXPECT_EQ(problem.evaluator->SingleFactUtilities()[fact_a], 2.0) << impl->name;
  }
  for (double prior : {std::nextafter(1.0, 0.0), 1.0, std::nextafter(1.0, 2.0)}) {
    SetPrior(&problem, prior);
    for (int max_facts : {1, 3, 8}) {
      ExpectLazyMatchesBase(*problem.evaluator, max_facts, "2^53 rows");
    }
  }
}

TEST(LazyGreedyTest, MatchesBaseWithPriorAtEachFactValueAndLargeTargets) {
  // Targets of magnitude up to 1e15 around a prior placed on (and one ulp
  // either side of) each fact's value: the rounding of |prior - t| and
  // |value - t| dominates |prior - value|.
  for (uint64_t seed : {3ull, 8ull}) {
    Rng rng(seed);
    std::vector<std::vector<std::string>> dims;
    std::vector<double> targets;
    for (int r = 0; r < 60; ++r) {
      dims.push_back({"v" + std::to_string(rng.NextBelow(3)),
                      "w" + std::to_string(rng.NextBelow(4))});
      double magnitude = std::ldexp(1.0, rng.NextInt(10, 50));
      targets.push_back((rng.NextBelow(2) == 0 ? 1.0 : -1.0) * magnitude +
                        static_cast<double>(rng.NextInt(0, 99)) / 8.0);
    }
    RandomProblem problem = MakeTableProblem({"d0", "d1"}, dims, targets, 2);
    for (FactId id = 0; id < problem.catalog->NumFacts(); ++id) {
      double value = problem.catalog->fact(id).value;
      for (double prior : {value, std::nextafter(value, -INFINITY),
                           std::nextafter(value, INFINITY)}) {
        SetPrior(&problem, prior);
        ExpectLazyMatchesBase(*problem.evaluator, 4,
                              "seed " + std::to_string(seed) + " prior at fact " +
                                  std::to_string(id));
      }
    }
  }
}

TEST(LazyGreedyTest, ExactTiesAcrossGroupsGoToTheLowestId) {
  // d1 duplicates d0, so the groups {d0}, {d1} and {d0, d1} hold facts with
  // identical scopes and bit-identical gains (and equal cached bounds in
  // later iterations); greedy must keep choosing the lowest id.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    std::vector<std::vector<std::string>> dims;
    std::vector<double> targets;
    for (int r = 0; r < 80; ++r) {
      std::string shared = "v" + std::to_string(rng.NextBelow(4));
      dims.push_back({shared, shared, "w" + std::to_string(rng.NextBelow(3))});
      targets.push_back(static_cast<double>(rng.NextInt(0, 12)));
    }
    RandomProblem problem = MakeTableProblem({"d0", "d1", "d2"}, dims, targets, 2);
    for (int max_facts : {1, 3, 5}) {
      ExpectLazyMatchesBase(*problem.evaluator, max_facts,
                            "ties seed " + std::to_string(seed));
    }
  }
}

TEST(LazyGreedyTest, NonFiniteTargetsMatchBase) {
  // A CSV may hold "nan" and "inf" targets. The kernels drop NaN terms, so
  // gains stay comparable while the free bounds of the affected facts are
  // NaN; the lazy queue must still pick what G-B picks.
  RandomProblem problem = MakeTableProblem(
      {"d0", "d1"},
      {{"a", "x"}, {"a", "y"}, {"b", "x"}, {"b", "y"}, {"c", "x"}, {"c", "y"},
       {"a", "x"}, {"c", "y"}},
      {NAN, 2.0, 9.0, 11.0, INFINITY, 4.0, 1.0, -3.0}, 2);
  ExpectLazyMatchesBase(*problem.evaluator, 4, "non-finite, average prior");
  for (double prior : {0.0, 5.0, -HUGE_VAL}) {
    SetPrior(&problem, prior);
    for (int max_facts : {1, 3, 6}) {
      ExpectLazyMatchesBase(*problem.evaluator, max_facts,
                            "non-finite, prior " + std::to_string(prior));
    }
  }
}

TEST(LazyGreedyTest, ZeroGainCatalogYieldsNoFacts) {
  RandomProblem problem = MakeTableProblem(
      {"d0", "d1"}, {{"a", "x"}, {"b", "x"}, {"a", "y"}, {"c", "y"}},
      {4.25, 4.25, 4.25, 4.25}, 2);  // prior = average = every target
  ExpectLazyMatchesBase(*problem.evaluator, 3, "zero gain");
  GreedyOptions lazy;
  lazy.pruning = FactPruning::kOptimized;
  SummaryResult result = GreedySummary(*problem.evaluator, lazy);
  EXPECT_TRUE(result.facts.empty());
  EXPECT_EQ(result.utility, 0.0);
}

TEST(LazyGreedyTest, MaxFactsBeyondCatalogSize) {
  RandomProblem problem = MakeRandomProblem(41, /*num_dims=*/1, /*max_card=*/4,
                                            /*num_rows=*/30, /*value_range=*/50,
                                            /*max_fact_dims=*/1);
  int num_facts = static_cast<int>(problem.catalog->NumFacts());
  ExpectLazyMatchesBase(*problem.evaluator, num_facts + 5, "m > facts");
}

TEST(LazyGreedyTest, CountersChargeJoinedScopesAndPerIterationGroups) {
  RandomProblem problem = MakeRandomProblem(17, /*num_dims=*/4, /*max_card=*/4,
                                            /*num_rows=*/200, /*value_range=*/30);
  GreedyOptions base;
  base.max_facts = 3;
  GreedyOptions lazy = base;
  lazy.pruning = FactPruning::kOptimized;
  SummaryResult r_base = GreedySummary(*problem.evaluator, base);
  SummaryResult r_lazy = GreedySummary(*problem.evaluator, lazy);
  ASSERT_EQ(r_lazy.facts.size(), 3u);
  uint64_t group_iterations = 3 * problem.catalog->NumGroups();
  EXPECT_EQ(r_base.counters.groups_joined, group_iterations);
  EXPECT_EQ(r_base.counters.groups_pruned, 0u);
  EXPECT_EQ(r_lazy.counters.groups_joined + r_lazy.counters.groups_pruned,
            group_iterations);
  EXPECT_GT(r_lazy.counters.groups_joined, 0u);
  EXPECT_GT(r_lazy.counters.groups_pruned, 0u);
  EXPECT_EQ(r_lazy.counters.bound_rows, 0u);
  EXPECT_GT(r_lazy.counters.join_rows, 0u);
  EXPECT_LT(r_lazy.counters.join_rows, r_base.counters.join_rows);
}

TEST(LazyGreedyTest, ExpiryInsideThePopLoopKeepsCompletedIterations) {
  RandomProblem problem = MakeRandomProblem(29, /*num_dims=*/4, /*max_card=*/4,
                                            /*num_rows=*/200);
  GreedyOptions options;
  options.max_facts = 4;
  options.pruning = FactPruning::kOptimized;
  SummaryResult full = GreedySummary(*problem.evaluator, options);
  ASSERT_EQ(full.facts.size(), 4u) << "every read must fall before the last fact";

  // Reads of an unexpired run: the constructor, one per started iteration,
  // and the pop loop's polls. More reads than iteration starts means some
  // land inside the pop loop.
  auto counting = std::make_shared<std::atomic<int>>(0);
  Deadline generous(1e9, TickClock(counting));
  options.deadline = &generous;
  ASSERT_EQ(GreedySummary(*problem.evaluator, options).facts, full.facts);
  int polls = counting->load() - 1;
  int iteration_starts = static_cast<int>(full.facts.size());
  ASSERT_GT(polls, iteration_starts) << "no poll inside the pop loop";

  // Expire at every read in turn (read k returns k; budget k - 0.5).
  for (int k = 1; k <= polls; ++k) {
    auto ticks = std::make_shared<std::atomic<int>>(0);
    Deadline deadline(k - 0.5, TickClock(ticks));
    options.deadline = &deadline;
    SummaryResult cut = GreedySummary(*problem.evaluator, options);
    EXPECT_TRUE(cut.timed_out) << k;
    ASSERT_LT(cut.facts.size(), full.facts.size()) << k;
    for (size_t i = 0; i < cut.facts.size(); ++i) {
      EXPECT_EQ(cut.facts[i], full.facts[i]) << "not a prefix at " << i << ", read " << k;
    }
    // The checkpoint is exactly the shorter untimed run.
    GreedyOptions shorter = options;
    shorter.max_facts = static_cast<int>(cut.facts.size());
    shorter.deadline = nullptr;
    SummaryResult expected = GreedySummary(*problem.evaluator, shorter);
    EXPECT_EQ(cut.facts, expected.facts) << k;
    EXPECT_EQ(Bits(cut.utility), Bits(expected.utility)) << k;
  }
}

}  // namespace
}  // namespace vq
