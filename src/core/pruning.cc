#include "core/pruning.h"

#include <algorithm>
#include <cassert>

#include "util/stats.h"

namespace vq {

const char* FactPruningName(FactPruning pruning) {
  switch (pruning) {
    case FactPruning::kNone: return "G-B";
    case FactPruning::kNaive: return "G-P";
    case FactPruning::kOptimized: return "G-O";
  }
  return "?";
}

PruningPlanner::PruningPlanner(std::vector<uint32_t> group_masks,
                               std::vector<size_t> fact_counts, size_t num_rows,
                               CostModelParams params)
    : masks_(std::move(group_masks)),
      fact_counts_(std::move(fact_counts)),
      num_rows_(num_rows),
      params_(params) {
  assert(masks_.size() == fact_counts_.size());
  const size_t num_groups = masks_.size();
  by_count_.resize(num_groups);
  for (uint32_t g = 0; g < num_groups; ++g) by_count_[g] = g;
  std::stable_sort(by_count_.begin(), by_count_.end(), [this](uint32_t a, uint32_t b) {
    return fact_counts_[a] < fact_counts_[b];
  });
  // Per-fact utilities modeled as normal with mean inversely proportional to
  // the group's fact count (facts in small groups cover more rows).
  std::vector<double> mu(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    mu[g] = 1.0 / static_cast<double>(std::max<size_t>(1, fact_counts_[g]));
  }
  prune_prob_.resize(num_groups * num_groups);
  for (size_t s = 0; s < num_groups; ++s) {
    for (size_t t = 0; t < num_groups; ++t) {
      prune_prob_[s * num_groups + t] =
          NormalGreaterProbability(mu[s], mu[t], params_.sigma);
    }
  }
}

double PruningPlanner::TargetPruneProbability(const std::vector<uint32_t>& sources,
                                              uint32_t target) const {
  double not_pruned = 1.0;
  for (uint32_t s : sources) not_pruned *= 1.0 - PruneProbability(s, target);
  return 1.0 - not_pruned;
}

double PruningPlanner::EstimateCost(const PruningPlan& plan) const {
  double n = static_cast<double>(num_rows_);
  double cost = 0.0;
  // Cost of computing utility for the pruning sources.
  cost += static_cast<double>(plan.sources.size()) * params_.join_cost_per_row * n;
  // Cost of computing bounds for the pruning targets.
  cost += static_cast<double>(plan.targets.size()) * params_.bound_cost_per_row * n;
  // Expected cost of computing utility for groups that survive pruning:
  // Pr(not pruned g) = prod over sources s and targets t generalizing g of
  // (1 - Pr(Ps->t)), assuming independent pruning outcomes.
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

template <typename Visit>
void PruningPlanner::ForEachCandidate(Visit&& visit) const {
  const size_t num_groups = masks_.size();
  const double n = static_cast<double>(num_rows_);
  std::vector<size_t> rank(num_groups);  // position of each group in by_count_
  for (size_t i = 0; i < num_groups; ++i) rank[by_count_[i]] = i;
  // not_pruned[t] = prod over the current sources of (1 - Pr(Ps->t)), so
  // Pr(Pt) = 1 - not_pruned[t]; survive[g] = EstimateCost's survival product
  // of g for the current sources and targets. Each factor is multiplied in
  // the order TargetPruneProbability and EstimateCost use (targets in plan
  // order, sources in plan order within a target), and price() adds terms in
  // EstimateCost's group order, so every H and every estimated_cost has the
  // same bits as those reference functions give.
  std::vector<double> not_pruned(num_groups, 1.0);
  std::vector<double> survive(num_groups);
  std::vector<uint32_t> remaining, next, targets;

  auto price = [&](size_t num_sources) {
    double cost = 0.0;
    cost += static_cast<double>(num_sources) * params_.join_cost_per_row * n;
    cost += static_cast<double>(targets.size()) * params_.bound_cost_per_row * n;
    for (size_t g = 0; g < num_groups; ++g) {
      if (rank[g] < num_sources) continue;
      cost += survive[g] * params_.join_cost_per_row * n;
    }
    return cost;
  };

  // The trivial plan: compute everything, prune nothing (lets OPT_PRUNE fall
  // back to G-B behaviour when pruning cannot pay off).
  visit(num_groups, targets, price(num_groups));

  // Algorithm 4: pruning sources are prefixes of the groups sorted by member
  // count ("no group outside S has fewer facts than a group in S").
  for (size_t prefix = 1; prefix < num_groups; ++prefix) {
    const uint32_t newest = by_count_[prefix - 1];
    for (size_t t = 0; t < num_groups; ++t) {
      not_pruned[t] *= 1.0 - PruneProbability(newest, t);
    }
    std::fill(survive.begin(), survive.end(), 1.0);
    remaining.assign(by_count_.begin() + static_cast<long>(prefix), by_count_.end());
    targets.clear();
    while (!remaining.empty()) {
      // Select the next target maximizing H(t, S, L) = Pr(Pt) * |{l : t <= l}|.
      double best_h = -1.0;
      size_t best_idx = 0;
      for (size_t i = 0; i < remaining.size(); ++i) {
        uint32_t t = remaining[i];
        size_t covered = 0;
        for (uint32_t l : remaining) {
          if (Specializes(t, l)) ++covered;
        }
        double h = (1.0 - not_pruned[t]) * static_cast<double>(covered);
        if (h > best_h) {
          best_h = h;
          best_idx = i;
        }
      }
      uint32_t chosen = remaining[best_idx];
      targets.push_back(chosen);
      for (size_t g = 0; g < num_groups; ++g) {
        if (rank[g] < prefix || !Specializes(chosen, static_cast<uint32_t>(g))) continue;
        for (size_t i = 0; i < prefix; ++i) {
          survive[g] *= 1.0 - PruneProbability(by_count_[i], chosen);
        }
      }
      // Each source/target combination yields a candidate plan.
      visit(prefix, targets, price(prefix));
      // Discard the target's specializations (they would be implicitly
      // pruned if the target prunes successfully).
      next.clear();
      for (uint32_t l : remaining) {
        if (!Specializes(chosen, l)) next.push_back(l);
      }
      remaining.swap(next);
    }
  }
}

std::vector<PruningPlan> PruningPlanner::GeneratePlans() const {
  std::vector<PruningPlan> candidates;
  ForEachCandidate([&](size_t num_sources, const std::vector<uint32_t>& targets,
                       double cost) {
    PruningPlan plan;
    plan.sources.assign(by_count_.begin(),
                        by_count_.begin() + static_cast<long>(num_sources));
    plan.targets = targets;
    plan.estimated_cost = cost;
    candidates.push_back(std::move(plan));
  });
  return candidates;
}

PruningPlan PruningPlanner::ChoosePlan() const {
  // The first candidate (the trivial plan) is taken unconditionally; later
  // ones only on a strictly lower cost.
  PruningPlan best;
  size_t best_sources = 0;
  bool first = true;
  ForEachCandidate([&](size_t num_sources, const std::vector<uint32_t>& targets,
                       double cost) {
    if (!first && !(cost < best.estimated_cost)) return;
    first = false;
    best_sources = num_sources;
    best.targets = targets;
    best.estimated_cost = cost;
  });
  best.sources.assign(by_count_.begin(),
                      by_count_.begin() + static_cast<long>(best_sources));
  return best;
}

PruningPlan PruningPlanner::NaivePlan() const {
  PruningPlan plan;
  if (by_count_.empty()) return plan;
  plan.sources.push_back(by_count_.front());
  for (size_t i = 1; i < by_count_.size(); ++i) plan.targets.push_back(by_count_[i]);
  plan.estimated_cost = EstimateCost(plan);
  return plan;
}

std::optional<PruningPlan> SelectPruningPlan(const FactCatalog& catalog, size_t num_rows,
                                             FactPruning pruning) {
  if (pruning != FactPruning::kNaive || catalog.NumGroups() <= 1) return std::nullopt;
  std::vector<uint32_t> masks;
  std::vector<size_t> counts;
  for (const auto& group : catalog.groups()) {
    masks.push_back(group.mask);
    counts.push_back(group.num_facts);
  }
  return PruningPlanner(std::move(masks), std::move(counts), num_rows).NaivePlan();
}

}  // namespace vq
