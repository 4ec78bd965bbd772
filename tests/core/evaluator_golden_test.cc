// Golden equivalence: the bitset-vectorized evaluator paths must reproduce
// the seed row-at-a-time implementations (retained as *Reference) within
// floating-point reassociation tolerance -- and the catalog's scope
// bitsets/row lists must agree with the scope joins they were derived from.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/evaluator.h"
#include "core/exact.h"
#include "testing/random_instance.h"

namespace vq {
namespace {

using testing::MakeRandomProblem;
using testing::RandomProblem;

std::vector<FactId> RandomSpeech(Rng* rng, const FactCatalog& catalog,
                                 size_t max_facts) {
  std::vector<FactId> speech;
  size_t len = 1 + rng->NextBelow(max_facts);
  for (size_t i = 0; i < len; ++i) {
    speech.push_back(static_cast<FactId>(rng->NextBelow(catalog.NumFacts())));
  }
  return speech;
}

TEST(EvaluatorGoldenTest, ScopeStructuresMatchScopeJoin) {
  RandomProblem problem = MakeRandomProblem(42, 3, 3, 120, 20, 2);
  const FactCatalog& catalog = *problem.catalog;
  const SummaryInstance& inst = *problem.instance;
  for (FactId id = 0; id < catalog.NumFacts(); ++id) {
    auto bits = catalog.ScopeBits(id);
    auto rows = catalog.ScopeRows(id);
    size_t from_bits = 0;
    for (size_t r = 0; r < inst.num_rows; ++r) {
      bool in_scope = catalog.RowInScope(r, id);
      EXPECT_EQ((bits[r >> 6] >> (r & 63)) & 1, in_scope ? 1u : 0u);
      if (in_scope) ++from_bits;
    }
    ASSERT_EQ(rows.size(), from_bits);
    for (uint32_t r : rows) EXPECT_TRUE(catalog.RowInScope(r, id));
  }
}

TEST(EvaluatorGoldenTest, VectorizedErrorMatchesReferenceOnFixedInstance) {
  // Fixed seeds; all four conflict models; random speeches up to 4 facts.
  const ConflictModel kModels[] = {ConflictModel::kClosest, ConflictModel::kFarthest,
                                   ConflictModel::kAverageScope,
                                   ConflictModel::kAverageAll};
  for (uint64_t seed : {1ull, 7ull, 20210318ull}) {
    RandomProblem problem = MakeRandomProblem(seed, 3, 4, 150, 25, 2);
    const Evaluator& evaluator = *problem.evaluator;
    Rng rng(seed ^ 0xABCDEF);
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<FactId> speech =
          RandomSpeech(&rng, *problem.catalog, 4);
      for (ConflictModel model : kModels) {
        double reference = evaluator.ErrorReference(speech, model);
        double vectorized = evaluator.Error(speech, model);
        double scale = std::max(1.0, std::fabs(reference));
        EXPECT_NEAR(vectorized, reference, 1e-12 * scale)
            << "seed " << seed << " model " << ConflictModelName(model);
        // Utility goes through the same path.
        EXPECT_NEAR(evaluator.Utility(speech, model),
                    evaluator.BaseError() - reference, 1e-12 * scale);
      }
    }
    // Empty speech reduces to the base error exactly.
    EXPECT_DOUBLE_EQ(evaluator.Error({}), evaluator.BaseError());
  }
}

TEST(EvaluatorGoldenTest, RowExpectationsMatchPerRowReference) {
  RandomProblem problem = MakeRandomProblem(99, 3, 3, 90, 15, 2);
  const Evaluator& evaluator = *problem.evaluator;
  const SummaryInstance& inst = *problem.instance;
  const FactCatalog& catalog = *problem.catalog;
  Rng rng(555);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<FactId> speech = RandomSpeech(&rng, catalog, 3);
    for (ConflictModel model :
         {ConflictModel::kClosest, ConflictModel::kAverageScope}) {
      std::vector<double> fast = evaluator.RowExpectations(speech, model);
      ASSERT_EQ(fast.size(), inst.num_rows);
      std::vector<double> all_values;
      for (FactId id : speech) all_values.push_back(catalog.fact(id).value);
      for (size_t r = 0; r < inst.num_rows; ++r) {
        std::vector<double> relevant;
        for (FactId id : speech) {
          if (catalog.RowInScope(r, id)) relevant.push_back(catalog.fact(id).value);
        }
        double expected =
            ExpectedValue(model, relevant, all_values, inst.prior, inst.target[r]);
        EXPECT_DOUBLE_EQ(fast[r], expected) << "row " << r;
      }
    }
  }
}

TEST(EvaluatorGoldenTest, SingleFactUtilitiesMatchReferenceExactly) {
  RandomProblem problem = MakeRandomProblem(1234, 3, 4, 200, 30, 2);
  const Evaluator& evaluator = *problem.evaluator;
  PerfCounters fast_counters;
  PerfCounters reference_counters;
  std::vector<double> fast = evaluator.SingleFactUtilities(&fast_counters);
  std::vector<double> reference =
      evaluator.SingleFactUtilitiesReference(&reference_counters);
  ASSERT_EQ(fast.size(), reference.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    // Per-fact accumulation visits the same rows in the same order, but the
    // dispatched SIMD gain kernel sums in parallel lanes: equal to relative
    // 1e-12, bit-equal only under the forced-scalar table.
    double scale = std::max(1.0, std::fabs(reference[i]));
    EXPECT_NEAR(fast[i], reference[i], 1e-12 * scale) << "fact " << i;
  }
  // Scope popcounts per group sum to the seed's per-group row charge.
  EXPECT_EQ(fast_counters.join_rows, reference_counters.join_rows);
  EXPECT_EQ(fast_counters.groups_joined, reference_counters.groups_joined);
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

TEST(EvaluatorGoldenTest, ExactSolveIndependentOfWhenScopeBitsAreBuilt) {
  // The catalog builds its scope bitsets on the first ScopeBits() call. An
  // exact solve (whose leaves evaluate Error over the bitsets) must not
  // depend on whether that call happened before it or inside it.
  ExactOptions options;
  options.max_facts = 3;
  for (uint64_t seed : {11ull, 20210318ull}) {
    RandomProblem cold = MakeRandomProblem(seed, 3, 4, 160, 25, 2);
    RandomProblem warm = MakeRandomProblem(seed, 3, 4, 160, 25, 2);
    ASSERT_TRUE(warm.catalog->HasScopeBits());
    (void)warm.catalog->ScopeBits(0);
    SummaryResult a = ExactSummary(*cold.evaluator, options);
    SummaryResult b = ExactSummary(*warm.evaluator, options);
    EXPECT_EQ(a.facts, b.facts) << "seed " << seed;
    EXPECT_EQ(Bits(a.utility), Bits(b.utility)) << "seed " << seed;
    EXPECT_EQ(Bits(a.error), Bits(b.error)) << "seed " << seed;
    EXPECT_EQ(a.counters.leaf_evals, b.counters.leaf_evals) << "seed " << seed;
    EXPECT_EQ(a.counters.nodes_expanded, b.counters.nodes_expanded);
    EXPECT_EQ(a.counters.join_rows, b.counters.join_rows);
    // And both agree with the row-at-a-time reference on the chosen speech.
    double reference = cold.evaluator->ErrorReference(a.facts);
    EXPECT_NEAR(a.error, reference, 1e-12 * std::max(1.0, std::fabs(reference)));
  }
}

}  // namespace
}  // namespace vq
