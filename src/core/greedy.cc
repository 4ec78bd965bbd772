#include "core/greedy.h"

#include <algorithm>
#include <optional>

#include "util/stopwatch.h"

namespace vq {

namespace {

/// Per-iteration buffers of SelectBestFact, owned by the greedy loop so it
/// allocates them once per solve, not per iteration -- the SIMD gain kernels
/// leave allocation as the only per-iteration overhead worth seeing in a
/// profile.
struct SelectScratch {
  std::vector<double> gains;  ///< per-fact gain accumulator (NumFacts entries)
  std::vector<bool> handled;  ///< per group: utility already computed
  std::vector<bool> pruned;   ///< per group: dominated by a pruned target
};

/// Chooses the fact with maximal utility gain among all unpruned groups.
/// Implements Algorithm 3's UTILITY when a pruning plan is supplied.
/// `scratch` is reset here on every call.
std::pair<double, FactId> SelectBestFact(const Evaluator& evaluator,
                                         const GreedyState& state,
                                         const PruningPlan* plan,
                                         SelectScratch* scratch,
                                         PerfCounters* counters,
                                         const Deadline* deadline,
                                         bool* timed_out) {
  const FactCatalog& catalog = evaluator.catalog();
  std::vector<double>& gains = scratch->gains;
  gains.assign(catalog.NumFacts(), 0.0);
  double best_gain = -1.0;
  FactId best_fact = kNoFact;

  // Deadline polling is amortized over groups: a clock read is cheap next to
  // one AccumulateGroupGains pass, but catalogs can have thousands of groups.
  size_t groups_seen = 0;
  auto expired = [&]() {
    if (deadline == nullptr) return false;
    if ((groups_seen++ & 15) != 0) return false;
    if (!deadline->Expired()) return false;
    *timed_out = true;
    return true;
  };

  auto consider_group = [&](uint32_t g) {
    auto [gain, fact] = state.AccumulateGroupGains(g, &gains, counters);
    if (fact != kNoFact && gain > best_gain) {
      best_gain = gain;
      best_fact = fact;
    }
  };

  if (plan == nullptr) {
    for (uint32_t g = 0; g < catalog.NumGroups(); ++g) {
      if (expired()) return {best_gain, best_fact};
      consider_group(g);
    }
    return {best_gain, best_fact};
  }

  // 1. Compute utility for the pruning sources; m = best source gain.
  std::vector<bool>& handled = scratch->handled;
  handled.assign(catalog.NumGroups(), false);
  for (uint32_t g : plan->sources) {
    if (expired()) return {best_gain, best_fact};
    consider_group(g);
    handled[g] = true;
  }
  double source_best = best_gain;

  // 2. Compare target bounds against the best source gain; prune dominated
  //    targets together with all their specializations.
  std::vector<bool>& pruned = scratch->pruned;
  pruned.assign(catalog.NumGroups(), false);
  for (uint32_t t : plan->targets) {
    if (pruned[t] || handled[t]) continue;  // already pruned via a generalization
    double bound = state.GroupUtilityBound(t, counters);
    if (source_best > bound) {
      uint32_t t_mask = catalog.group(t).mask;
      for (uint32_t g = 0; g < catalog.NumGroups(); ++g) {
        if (!handled[g] && (catalog.group(g).mask & t_mask) == t_mask) {
          pruned[g] = true;
          if (counters != nullptr) ++counters->groups_pruned;
        }
      }
    }
  }

  // 3. Compute utility for surviving groups.
  for (uint32_t g = 0; g < catalog.NumGroups(); ++g) {
    if (handled[g] || pruned[g]) continue;
    if (expired()) return {best_gain, best_fact};
    consider_group(g);
  }
  return {best_gain, best_fact};
}

}  // namespace

SummaryResult GreedySummary(const Evaluator& evaluator, const GreedyOptions& options) {
  Stopwatch watch;
  SummaryResult result;
  result.base_error = evaluator.BaseError();

  const FactCatalog& catalog = evaluator.catalog();
  if (catalog.NumFacts() == 0 || options.max_facts <= 0) {
    result.error = result.base_error;
    result.elapsed_seconds = watch.ElapsedSeconds();
    return result;
  }

  std::optional<PruningPlan> plan =
      SelectPruningPlan(catalog, evaluator.instance().num_rows, options.pruning,
                        options.cost_model);

  GreedyState state(evaluator);
  SelectScratch scratch;
  for (int i = 0; i < options.max_facts; ++i) {
    if (options.deadline != nullptr && options.deadline->Expired()) {
      result.timed_out = true;
      break;
    }
    bool scan_timed_out = false;
    auto [gain, fact] =
        SelectBestFact(evaluator, state, plan ? &*plan : nullptr, &scratch,
                       &result.counters, options.deadline, &scan_timed_out);
    if (scan_timed_out) {
      // A partial scan's argmax is not the greedy choice; keep the
      // checkpointed facts from completed iterations (anytime property)
      // rather than appending a possibly poor fact.
      result.timed_out = true;
      break;
    }
    if (fact == kNoFact || gain <= 1e-12) break;  // no fact improves the speech
    result.facts.push_back(fact);
    state.ApplyFact(fact);
  }

  result.error = state.CurrentError();
  result.utility = result.base_error - result.error;
  result.elapsed_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace vq
