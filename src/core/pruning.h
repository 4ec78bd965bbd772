// Fact-group pruning plans: cost model (Section VI-C) and plan generation
// (Algorithm 4) with cost-based plan selection (OPT_PRUNE).
#ifndef VQ_CORE_PRUNING_H_
#define VQ_CORE_PRUNING_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "facts/catalog.h"

namespace vq {

/// Which fact-pruning strategy the greedy algorithm uses (Figure 3's
/// G-B / G-P / G-O variants).
enum class FactPruning {
  kNone,       ///< G-B: compute utility for every fact group
  kNaive,      ///< G-P: fixed plan -- smallest group as source, rest targets
  kOptimized,  ///< G-O: lazy fact selection over cached per-fact gain bounds
};

const char* FactPruningName(FactPruning pruning);

/// \brief A pruning plan: utility is computed for `sources` first; then each
/// `target` group's upper bound is compared against the best source gain,
/// pruning dominated targets together with all their specializations.
struct PruningPlan {
  std::vector<uint32_t> sources;
  std::vector<uint32_t> targets;  ///< in application order
  double estimated_cost = 0.0;
};

/// Tunables of the Section VI-C cost model.
struct CostModelParams {
  /// Stddev of the per-fact utility distribution (both bounds and true
  /// utilities are modeled as N(1/M(g), sigma^2)).
  double sigma = 0.25;
  /// Relative per-row cost of a utility join (C_U) vs. a bound group-by (C_D).
  double join_cost_per_row = 2.0;
  double bound_cost_per_row = 1.0;
};

/// \brief Computes pruning probabilities, estimates plan costs, generates
/// Algorithm 4's candidates and picks the cheapest.
///
/// Cost and memory, for G fact groups: the constructor fills a G x G table
/// of Pr(Ps->t) (G^2 erfc calls, 8 G^2 bytes). Plan selection then evaluates
/// no erfc: it enumerates the candidates once, keeping each group's
/// Pr(Pt) and survival product up to date as sources and targets are
/// appended, so pricing a candidate is O(G) additions plus one product
/// update per (appended target, specialization, source). ChoosePlan keeps
/// only the running minimum and materializes no candidate list.
class PruningPlanner {
 public:
  /// `fact_counts[g]` = M(g), the number of member facts of group g.
  PruningPlanner(std::vector<uint32_t> group_masks, std::vector<size_t> fact_counts,
                 size_t num_rows, CostModelParams params = {});

  /// Pr(Ps->t): the source group's best utility exceeds the target group's
  /// bound, under N(1/M, sigma^2) per-fact models.
  double PruneProbability(uint32_t source, uint32_t target) const {
    return prune_prob_[source * masks_.size() + target];
  }

  /// Pr(Pt) given a set of sources: 1 - prod(1 - Pr(Ps->t)).
  double TargetPruneProbability(const std::vector<uint32_t>& sources,
                                uint32_t target) const;

  /// Expected data-processing cost of a plan (Section VI-C formula). The
  /// reference for every candidate's `estimated_cost`, which the planner
  /// computes incrementally to the same bits.
  double EstimateCost(const PruningPlan& plan) const;

  /// Algorithm 4: candidate plans. Sources are cardinality-ascending
  /// prefixes of the group list; targets chosen greedily by
  /// H(t, S, L) = Pr(Pt) * |{l in L : t subseteq l}|. Also includes the
  /// trivial no-pruning plan (all groups as sources, no targets), first.
  std::vector<PruningPlan> GeneratePlans() const;

  /// OPT_PRUNE: the first minimum-estimated-cost candidate of GeneratePlans'
  /// order. With no groups, the empty plan.
  PruningPlan ChoosePlan() const;

  /// The naive G-P plan: the smallest group is the only source; all other
  /// groups are targets in cardinality-ascending order. With no groups, the
  /// empty plan.
  PruningPlan NaivePlan() const;

  size_t num_groups() const { return masks_.size(); }

 private:
  bool Specializes(uint32_t general, uint32_t special) const {
    return (masks_[general] & masks_[special]) == masks_[general];
  }

  /// Enumerates GeneratePlans' candidates in order, calling
  /// `visit(num_sources, targets, estimated_cost)` for each; the sources are
  /// the first `num_sources` entries of `by_count_`.
  template <typename Visit>
  void ForEachCandidate(Visit&& visit) const;

  std::vector<uint32_t> masks_;
  std::vector<size_t> fact_counts_;
  size_t num_rows_;
  CostModelParams params_;
  std::vector<uint32_t> by_count_;  ///< group indices sorted by M(g) ascending
  std::vector<double> prune_prob_;  ///< Pr(Ps->t) at [s * G + t]
};

/// The plan the greedy algorithm applies for `pruning` over `catalog`'s
/// groups: the planner's NaivePlan for G-P with at least two groups, else
/// none -- G-B joins every group, and G-O bounds single facts lazily instead
/// of planning (see core/greedy.h). Plans depend only on static group
/// statistics, so one plan serves every greedy iteration.
std::optional<PruningPlan> SelectPruningPlan(const FactCatalog& catalog, size_t num_rows,
                                             FactPruning pruning);

}  // namespace vq

#endif  // VQ_CORE_PRUNING_H_
