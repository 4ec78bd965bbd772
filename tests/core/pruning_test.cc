#include "core/pruning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace vq {
namespace {

/// The planner as it was before the probability table and incremental
/// pricing, kept verbatim as the differential reference: one erfc per
/// Pr(Ps->t), every candidate materialized and priced by EstimateCost, and
/// the first strict minimum chosen.
class ReferencePlanner {
 public:
  ReferencePlanner(std::vector<uint32_t> group_masks, std::vector<size_t> fact_counts,
                   size_t num_rows, CostModelParams params)
      : masks_(std::move(group_masks)),
        fact_counts_(std::move(fact_counts)),
        num_rows_(num_rows),
        params_(params) {
    assert(masks_.size() == fact_counts_.size());
    by_count_.resize(masks_.size());
    for (uint32_t g = 0; g < masks_.size(); ++g) by_count_[g] = g;
    std::stable_sort(by_count_.begin(), by_count_.end(), [this](uint32_t a, uint32_t b) {
      return fact_counts_[a] < fact_counts_[b];
    });
  }

  double PruneProbability(uint32_t source, uint32_t target) const {
    double mu_s = 1.0 / static_cast<double>(std::max<size_t>(1, fact_counts_[source]));
    double mu_t = 1.0 / static_cast<double>(std::max<size_t>(1, fact_counts_[target]));
    return NormalGreaterProbability(mu_s, mu_t, params_.sigma);
  }

  double TargetPruneProbability(const std::vector<uint32_t>& sources,
                                uint32_t target) const {
    double not_pruned = 1.0;
    for (uint32_t s : sources) not_pruned *= 1.0 - PruneProbability(s, target);
    return 1.0 - not_pruned;
  }

  double EstimateCost(const PruningPlan& plan) const {
    double n = static_cast<double>(num_rows_);
    double cost = 0.0;
    cost += static_cast<double>(plan.sources.size()) * params_.join_cost_per_row * n;
    cost += static_cast<double>(plan.targets.size()) * params_.bound_cost_per_row * n;
    std::vector<bool> is_source(masks_.size(), false);
    for (uint32_t s : plan.sources) is_source[s] = true;
    for (uint32_t g = 0; g < masks_.size(); ++g) {
      if (is_source[g]) continue;
      double survive = 1.0;
      for (uint32_t t : plan.targets) {
        if (!Specializes(t, g)) continue;
        for (uint32_t s : plan.sources) survive *= 1.0 - PruneProbability(s, t);
      }
      cost += survive * params_.join_cost_per_row * n;
    }
    return cost;
  }

  std::vector<PruningPlan> GeneratePlans() const {
    std::vector<PruningPlan> candidates;
    PruningPlan trivial;
    trivial.sources = by_count_;
    trivial.estimated_cost = EstimateCost(trivial);
    candidates.push_back(std::move(trivial));
    for (size_t prefix = 1; prefix < by_count_.size(); ++prefix) {
      std::vector<uint32_t> sources(by_count_.begin(),
                                    by_count_.begin() + static_cast<long>(prefix));
      std::vector<uint32_t> remaining(by_count_.begin() + static_cast<long>(prefix),
                                      by_count_.end());
      std::vector<uint32_t> targets;
      while (!remaining.empty()) {
        double best_h = -1.0;
        size_t best_idx = 0;
        for (size_t i = 0; i < remaining.size(); ++i) {
          uint32_t t = remaining[i];
          size_t covered = 0;
          for (uint32_t l : remaining) {
            if (Specializes(t, l)) ++covered;
          }
          double h = TargetPruneProbability(sources, t) * static_cast<double>(covered);
          if (h > best_h) {
            best_h = h;
            best_idx = i;
          }
        }
        uint32_t chosen = remaining[best_idx];
        targets.push_back(chosen);
        PruningPlan plan;
        plan.sources = sources;
        plan.targets = targets;
        plan.estimated_cost = EstimateCost(plan);
        candidates.push_back(std::move(plan));
        std::vector<uint32_t> next;
        for (uint32_t l : remaining) {
          if (!Specializes(chosen, l)) next.push_back(l);
        }
        remaining = std::move(next);
      }
    }
    return candidates;
  }

  PruningPlan ChoosePlan() const {
    std::vector<PruningPlan> candidates = GeneratePlans();
    size_t best = 0;
    for (size_t i = 1; i < candidates.size(); ++i) {
      if (candidates[i].estimated_cost < candidates[best].estimated_cost) best = i;
    }
    return candidates[best];
  }

 private:
  bool Specializes(uint32_t general, uint32_t special) const {
    return (masks_[general] & masks_[special]) == masks_[general];
  }

  std::vector<uint32_t> masks_;
  std::vector<size_t> fact_counts_;
  size_t num_rows_;
  CostModelParams params_;
  std::vector<uint32_t> by_count_;
};

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// Plans equal in sources, targets and the bits of the estimated cost.
void ExpectSamePlan(const PruningPlan& actual, const PruningPlan& expected,
                    const std::string& where) {
  EXPECT_EQ(actual.sources, expected.sources) << where;
  EXPECT_EQ(actual.targets, expected.targets) << where;
  EXPECT_EQ(Bits(actual.estimated_cost), Bits(expected.estimated_cost))
      << where << ": " << actual.estimated_cost << " vs " << expected.estimated_cost;
}

/// A seeded random fact lattice: every subset of up to `max_fact_dims` of
/// `num_dims` dimensions is a group, listed in shuffled order. Fact counts
/// are either products of per-dimension cardinalities or small draws, both
/// of which repeat across groups (ties in the cardinality sort).
struct RandomLattice {
  std::vector<uint32_t> masks;
  std::vector<size_t> counts;
  size_t num_rows = 0;
  CostModelParams params;
};

RandomLattice MakeRandomLattice(uint64_t seed) {
  Rng rng(seed);
  RandomLattice lattice;
  const int num_dims = static_cast<int>(rng.NextInt(1, 8));
  const int max_fact_dims = static_cast<int>(rng.NextInt(0, 3));
  std::vector<size_t> cardinality(static_cast<size_t>(num_dims));
  for (size_t& c : cardinality) c = static_cast<size_t>(rng.NextInt(1, 6));
  const bool product_counts = rng.NextBool();
  for (uint32_t mask = 0; mask < (1u << num_dims); ++mask) {
    if (std::popcount(mask) > max_fact_dims) continue;
    size_t count = 1;
    if (product_counts) {
      for (int d = 0; d < num_dims; ++d) {
        if ((mask >> d) & 1u) count *= cardinality[static_cast<size_t>(d)];
      }
    } else {
      count = static_cast<size_t>(rng.NextInt(0, 5));
    }
    lattice.masks.push_back(mask);
    lattice.counts.push_back(count);
  }
  std::vector<size_t> order(lattice.masks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  std::vector<uint32_t> masks;
  std::vector<size_t> counts;
  for (size_t i : order) {
    masks.push_back(lattice.masks[i]);
    counts.push_back(lattice.counts[i]);
  }
  lattice.masks = std::move(masks);
  lattice.counts = std::move(counts);
  lattice.num_rows = static_cast<size_t>(rng.NextInt(1, 20000));
  const double kSigmas[] = {0.05, 0.25, 1.0};
  lattice.params.sigma = kSigmas[rng.NextBelow(3)];
  return lattice;
}

PruningPlanner MakePlanner() {
  // Four groups: overall (1 fact), two single-dim groups, one pair group.
  std::vector<uint32_t> masks = {0b00, 0b01, 0b10, 0b11};
  std::vector<size_t> counts = {1, 4, 8, 32};
  return PruningPlanner(std::move(masks), std::move(counts), 1000);
}

TEST(PruningPlannerTest, PruneProbabilityOrdering) {
  PruningPlanner planner = MakePlanner();
  // A small group (few facts, high mean utility) prunes a large group with
  // probability > 1/2; the reverse is < 1/2.
  EXPECT_GT(planner.PruneProbability(0, 3), 0.5);
  EXPECT_LT(planner.PruneProbability(3, 0), 0.5);
  // Self comparison is a coin flip.
  EXPECT_NEAR(planner.PruneProbability(1, 1), 0.5, 1e-12);
}

TEST(PruningPlannerTest, TargetPruneProbabilityGrowsWithSources) {
  PruningPlanner planner = MakePlanner();
  double one = planner.TargetPruneProbability({0}, 3);
  double two = planner.TargetPruneProbability({0, 1}, 3);
  EXPECT_GT(two, one);
  EXPECT_LE(two, 1.0);
}

TEST(PruningPlannerTest, TrivialPlanCostIsAllJoins) {
  PruningPlanner planner = MakePlanner();
  PruningPlan trivial;
  trivial.sources = {0, 1, 2, 3};
  // cost = 4 groups * join_cost(2.0) * 1000 rows.
  EXPECT_DOUBLE_EQ(planner.EstimateCost(trivial), 4 * 2.0 * 1000);
}

TEST(PruningPlannerTest, GeneratePlansIncludesTrivialAndCandidates) {
  PruningPlanner planner = MakePlanner();
  std::vector<PruningPlan> plans = planner.GeneratePlans();
  ASSERT_GE(plans.size(), 2u);
  // First candidate is the trivial plan with no targets.
  EXPECT_TRUE(plans[0].targets.empty());
  EXPECT_EQ(plans[0].sources.size(), 4u);
  // All other plans have nonempty sources and targets.
  for (size_t i = 1; i < plans.size(); ++i) {
    EXPECT_FALSE(plans[i].sources.empty());
    EXPECT_FALSE(plans[i].targets.empty());
  }
}

TEST(PruningPlannerTest, SourcesAreCardinalityPrefixes) {
  PruningPlanner planner = MakePlanner();
  for (const PruningPlan& plan : planner.GeneratePlans()) {
    // Every source must have a fact count <= every non-source group's count
    // (Algorithm 4's source condition). Counts: group0=1,1=4,2=8,3=32.
    const size_t counts[] = {1, 4, 8, 32};
    size_t max_source = 0;
    std::vector<bool> is_source(4, false);
    for (uint32_t s : plan.sources) {
      max_source = std::max(max_source, counts[s]);
      is_source[s] = true;
    }
    for (uint32_t g = 0; g < 4; ++g) {
      if (!is_source[g]) {
        EXPECT_GE(counts[g], max_source);
      }
    }
  }
}

TEST(PruningPlannerTest, ChoosePlanReturnsMinimumCost) {
  PruningPlanner planner = MakePlanner();
  PruningPlan best = planner.ChoosePlan();
  std::vector<PruningPlan> plans = planner.GeneratePlans();
  double minimum = plans.front().estimated_cost;
  for (const PruningPlan& plan : plans) {
    EXPECT_LE(best.estimated_cost, plan.estimated_cost);
    minimum = std::min(minimum, plan.estimated_cost);
  }
  EXPECT_EQ(Bits(best.estimated_cost), Bits(minimum));
  EXPECT_FALSE(best.targets.empty());  // this lattice favours pruning
}

TEST(PruningPlannerTest, NaivePlanShape) {
  PruningPlanner planner = MakePlanner();
  PruningPlan naive = planner.NaivePlan();
  ASSERT_EQ(naive.sources.size(), 1u);
  EXPECT_EQ(naive.sources[0], 0u);  // smallest group
  EXPECT_EQ(naive.targets.size(), 3u);
  // Targets ascend by fact count.
  EXPECT_EQ(naive.targets[0], 1u);
  EXPECT_EQ(naive.targets[2], 3u);
}

TEST(PruningPlannerTest, HigherSigmaLowersPruningConfidence) {
  std::vector<uint32_t> masks = {0b0, 0b1};
  std::vector<size_t> counts = {1, 16};
  CostModelParams tight;
  tight.sigma = 0.05;
  CostModelParams loose;
  loose.sigma = 1.0;
  PruningPlanner planner_tight(masks, counts, 100, tight);
  PruningPlanner planner_loose(masks, counts, 100, loose);
  EXPECT_GT(planner_tight.PruneProbability(0, 1),
            planner_loose.PruneProbability(0, 1));
}

TEST(PruningPlannerTest, NoGroupsGiveEmptyPlans) {
  PruningPlanner planner({}, {}, 100);
  EXPECT_EQ(planner.num_groups(), 0u);
  for (const PruningPlan& plan : {planner.NaivePlan(), planner.ChoosePlan()}) {
    EXPECT_TRUE(plan.sources.empty());
    EXPECT_TRUE(plan.targets.empty());
    EXPECT_EQ(plan.estimated_cost, 0.0);
  }
  std::vector<PruningPlan> plans = planner.GeneratePlans();
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_TRUE(plans[0].sources.empty());
}

TEST(PruningPlannerTest, OneGroupIsItsOwnSource) {
  PruningPlanner planner({0b0}, {3}, 100);
  PruningPlan naive = planner.NaivePlan();
  EXPECT_EQ(naive.sources, std::vector<uint32_t>{0});
  EXPECT_TRUE(naive.targets.empty());
  EXPECT_EQ(naive.estimated_cost, 2.0 * 100);
  PruningPlan chosen = planner.ChoosePlan();
  EXPECT_EQ(chosen.sources, std::vector<uint32_t>{0});
  EXPECT_TRUE(chosen.targets.empty());
  EXPECT_EQ(chosen.estimated_cost, 2.0 * 100);
  EXPECT_EQ(planner.GeneratePlans().size(), 1u);
}

// The table-driven, incremental planner against the verbatim reference on
// seeded random lattices: every candidate, the chosen plan and every cost,
// compared bitwise.
TEST(PruningPlannerTest, MatchesReferencePlannerOnRandomLattices) {
  int chose_trivial = 0;
  int chose_pruning = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    RandomLattice lattice = MakeRandomLattice(seed);
    const std::string where = "seed " + std::to_string(seed) + ", " +
                              std::to_string(lattice.masks.size()) + " groups";
    PruningPlanner planner(lattice.masks, lattice.counts, lattice.num_rows,
                           lattice.params);
    ReferencePlanner reference(lattice.masks, lattice.counts, lattice.num_rows,
                               lattice.params);
    for (uint32_t s = 0; s < lattice.masks.size(); ++s) {
      for (uint32_t t = 0; t < lattice.masks.size(); ++t) {
        ASSERT_EQ(Bits(planner.PruneProbability(s, t)),
                  Bits(reference.PruneProbability(s, t)))
            << where;
      }
    }
    std::vector<PruningPlan> plans = planner.GeneratePlans();
    std::vector<PruningPlan> expected = reference.GeneratePlans();
    ASSERT_EQ(plans.size(), expected.size()) << where;
    for (size_t i = 0; i < plans.size(); ++i) {
      const std::string candidate = where + ", candidate " + std::to_string(i);
      ExpectSamePlan(plans[i], expected[i], candidate);
      EXPECT_EQ(Bits(plans[i].estimated_cost), Bits(planner.EstimateCost(plans[i])))
          << candidate;
    }
    PruningPlan chosen = planner.ChoosePlan();
    ExpectSamePlan(chosen, reference.ChoosePlan(), where);
    if (::testing::Test::HasFailure()) return;
    ++(chosen.targets.empty() ? chose_trivial : chose_pruning);
  }
  // The seeds exercise both outcomes of OPT_PRUNE.
  EXPECT_GT(chose_trivial, 0);
  EXPECT_GT(chose_pruning, 0);
}

TEST(PruningPlannerTest, FactPruningNames) {
  EXPECT_STREQ(FactPruningName(FactPruning::kNone), "G-B");
  EXPECT_STREQ(FactPruningName(FactPruning::kNaive), "G-P");
  EXPECT_STREQ(FactPruningName(FactPruning::kOptimized), "G-O");
}

}  // namespace
}  // namespace vq
