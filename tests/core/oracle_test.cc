// Brute-force oracle lane: on small random instances, exhaustive search
// (core/brute_force) is the optimum. No greedy variant may beat it, and the
// exact algorithm must reach it (Corollary 1). The row-at-a-time reference
// evaluator re-scores every answer through the catalog's scope join, which
// each fresh catalog builds on that first read (FactCatalog::RowFacts).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/brute_force.h"
#include "core/evaluator.h"
#include "core/exact.h"
#include "core/greedy.h"
#include "testing/random_instance.h"

namespace vq {
namespace {

using testing::MakeRandomProblem;
using testing::RandomProblem;

/// `result`'s utility re-scored by the bitset and the row-at-a-time paths.
void ExpectRescoredUtility(const Evaluator& evaluator, const SummaryResult& result,
                           double tolerance) {
  EXPECT_NEAR(evaluator.Utility(result.facts), result.utility, tolerance);
  EXPECT_NEAR(evaluator.BaseError() - evaluator.ErrorReference(result.facts),
              result.utility, tolerance);
}

TEST(BruteForceOracleTest, GreedyNeverBeatsItAndExactEqualsIt) {
  constexpr int kMaxFacts = 3;
  int instances = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    for (int max_fact_dims : {1, 2}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " max_fact_dims " +
                   std::to_string(max_fact_dims));
      int num_dims = 2 + static_cast<int>(seed % 2);
      RandomProblem problem =
          MakeRandomProblem(seed, num_dims, /*max_card=*/3, /*num_rows=*/40,
                            /*value_range=*/20, max_fact_dims);
      const Evaluator& evaluator = *problem.evaluator;
      SummaryResult brute = BruteForceSummary(evaluator, kMaxFacts);
      double tolerance = 1e-9 * std::max(1.0, evaluator.BaseError());
      ExpectRescoredUtility(evaluator, brute, tolerance);

      for (FactPruning pruning :
           {FactPruning::kNone, FactPruning::kNaive, FactPruning::kOptimized}) {
        SCOPED_TRACE(FactPruningName(pruning));
        GreedyOptions options;
        options.max_facts = kMaxFacts;
        options.pruning = pruning;
        SummaryResult greedy = GreedySummary(evaluator, options);
        EXPECT_LE(greedy.utility, brute.utility + tolerance);
        EXPECT_LE(greedy.facts.size(), static_cast<size_t>(kMaxFacts));
        ExpectRescoredUtility(evaluator, greedy, tolerance);
      }

      ExactOptions exact_options;
      exact_options.max_facts = kMaxFacts;
      SummaryResult exact = ExactSummary(evaluator, exact_options);
      EXPECT_FALSE(exact.timed_out);
      EXPECT_NEAR(exact.utility, brute.utility, tolerance);
      ExpectRescoredUtility(evaluator, exact, tolerance);
      ++instances;
    }
  }
  EXPECT_EQ(instances, 80);
}

}  // namespace
}  // namespace vq
