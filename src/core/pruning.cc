#include "core/pruning.h"

#include <algorithm>

namespace vq {

const char* FactPruningName(FactPruning pruning) {
  switch (pruning) {
    case FactPruning::kNone: return "G-B";
    case FactPruning::kNaive: return "G-P";
    case FactPruning::kOptimized: return "G-O";
  }
  return "?";
}

PruningPlan NaivePlan(const std::vector<size_t>& fact_counts) {
  std::vector<uint32_t> by_count(fact_counts.size());
  for (uint32_t g = 0; g < by_count.size(); ++g) by_count[g] = g;
  std::stable_sort(by_count.begin(), by_count.end(), [&](uint32_t a, uint32_t b) {
    return fact_counts[a] < fact_counts[b];
  });
  PruningPlan plan;
  if (by_count.empty()) return plan;
  plan.sources.push_back(by_count.front());
  plan.targets.assign(by_count.begin() + 1, by_count.end());
  return plan;
}

std::optional<PruningPlan> SelectPruningPlan(const FactCatalog& catalog,
                                             size_t /*num_rows*/,
                                             FactPruning pruning) {
  if (pruning != FactPruning::kNaive || catalog.NumGroups() <= 1) return std::nullopt;
  std::vector<size_t> counts;
  counts.reserve(catalog.NumGroups());
  for (const auto& group : catalog.groups()) counts.push_back(group.num_facts);
  return NaivePlan(counts);
}

}  // namespace vq
