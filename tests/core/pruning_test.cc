#include "core/pruning.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace vq {
namespace {

TEST(PruningPlanTest, NaivePlanShape) {
  // Four groups: overall (1 fact), two single-dim groups, one pair group.
  PruningPlan naive = NaivePlan({1, 4, 8, 32});
  ASSERT_EQ(naive.sources.size(), 1u);
  EXPECT_EQ(naive.sources[0], 0u);  // smallest group
  EXPECT_EQ(naive.targets.size(), 3u);
  // Targets ascend by fact count.
  EXPECT_EQ(naive.targets[0], 1u);
  EXPECT_EQ(naive.targets[2], 3u);
  // Ties keep group order.
  PruningPlan tied = NaivePlan({8, 2, 8, 1, 2});
  EXPECT_EQ(tied.sources, std::vector<uint32_t>{3});
  EXPECT_EQ(tied.targets, (std::vector<uint32_t>{1, 4, 0, 2}));
}

TEST(PruningPlanTest, NoGroupsGiveTheEmptyPlan) {
  PruningPlan plan = NaivePlan({});
  EXPECT_TRUE(plan.sources.empty());
  EXPECT_TRUE(plan.targets.empty());
}

TEST(PruningPlanTest, OneGroupIsItsOwnSource) {
  PruningPlan naive = NaivePlan({3});
  EXPECT_EQ(naive.sources, std::vector<uint32_t>{0});
  EXPECT_TRUE(naive.targets.empty());
}

TEST(PruningPlanTest, FactPruningNames) {
  EXPECT_STREQ(FactPruningName(FactPruning::kNone), "G-B");
  EXPECT_STREQ(FactPruningName(FactPruning::kNaive), "G-P");
  EXPECT_STREQ(FactPruningName(FactPruning::kOptimized), "G-O");
}

}  // namespace
}  // namespace vq
