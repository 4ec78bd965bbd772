#include "core/greedy.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

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

/// G-O's lazy (CELF) argmax: a max-heap with one entry per fact not yet
/// chosen, keyed on an upper bound of the fact's current gain. Seeded with
/// the free Evaluator::SingleFactUtilityBound; afterwards a fact's bound is
/// the exact gain of the last iteration that evaluated it. Gains never rise
/// (ApplyFact only lowers row deviations, and each kernel sums in a fixed
/// association tree whose terms and additions are monotone in floating point
/// too), so a cached gain stays a valid bound for every later iteration.
class LazyFactQueue {
 public:
  explicit LazyFactQueue(const Evaluator& evaluator)
      : catalog_(&evaluator.catalog()),
        group_iteration_(evaluator.catalog().NumGroups(), kNoIteration) {
    entries_.reserve(catalog_->NumFacts());
    for (FactId id = 0; id < catalog_->NumFacts(); ++id) {
      entries_.push_back(MakeEntry(evaluator.SingleFactUtilityBound(id), id, kNoIteration));
    }
    std::make_heap(entries_.begin(), entries_.end());
  }

  /// The greedy choice of `iteration`, removed from the queue: the highest
  /// current gain among the facts not chosen yet, ties to the lowest FactId.
  /// Chosen facts have gain 0, so whenever that gain passes greedy's 1e-12
  /// threshold it is SelectBestFact's choice, bit for bit. Evaluates the top
  /// fact until the top holds a gain computed in this iteration: every
  /// other entry's bound then ranks below an exact gain. Returns kNoFact
  /// once every fact was chosen. Polls `deadline` every 16 evaluations, like
  /// SelectBestFact; on expiry sets `*timed_out` and returns no choice.
  std::pair<double, FactId> PopBest(uint32_t iteration, const GreedyState& state,
                                    PerfCounters* counters, const Deadline* deadline,
                                    bool* timed_out) {
    // Per iteration, a group counts as joined when any of its facts was
    // evaluated and as pruned otherwise (an iteration cut short by the
    // deadline charges no pruned groups).
    uint64_t groups_joined = 0;
    auto charge_groups = [&](bool completed) {
      if (counters == nullptr) return;
      counters->groups_joined += groups_joined;
      if (completed) counters->groups_pruned += catalog_->NumGroups() - groups_joined;
    };
    for (size_t evaluations = 0; !entries_.empty(); ++evaluations) {
      Entry& top = entries_.front();
      FactId id = IdOf(top);
      if (IterationOf(top) == iteration) {
        std::pair<double, FactId> best{BoundOf(top), id};
        std::pop_heap(entries_.begin(), entries_.end());
        entries_.pop_back();
        charge_groups(true);
        return best;
      }
      if (deadline != nullptr && (evaluations & 15) == 0 && deadline->Expired()) {
        *timed_out = true;
        charge_groups(false);
        return {-1.0, kNoFact};
      }
      top = MakeEntry(state.FactGain(id), id, iteration);
      if (counters != nullptr) counters->join_rows += catalog_->ScopeRows(id).size();
      uint32_t& joined_in = group_iteration_[catalog_->fact(id).group];
      if (joined_in != iteration) {
        joined_in = iteration;
        ++groups_joined;
      }
      // Sift the re-keyed top back into place.
      std::pop_heap(entries_.begin(), entries_.end());
      std::push_heap(entries_.begin(), entries_.end());
    }
    charge_groups(true);
    return {-1.0, kNoFact};
  }

 private:
  /// One heap entry, packed so that the heap order is a single (branch-free)
  /// unsigned 128-bit comparison -- the heap operations are most of the lazy
  /// selection's own cost. Bits 127..64 hold the bound's bit pattern: bounds
  /// and gains are +0.0, positive or +inf, never NaN or -0.0, so their bit
  /// patterns order like their values. Bits 63..32 hold the complement of
  /// the FactId, so at equal bounds the LOWER id ranks higher: a stale entry
  /// whose bound equals an exact gain surfaces (and is re-evaluated) before
  /// a higher-id fresh one, and ties go to the lowest id as in
  /// SelectBestFact. Bits 31..0 hold the iteration whose exact gain the
  /// bound is (kNoIteration: the free bound); ids are unique, so it never
  /// decides the order.
  using Entry = unsigned __int128;
  static constexpr uint32_t kNoIteration = UINT32_MAX;

  static Entry MakeEntry(double bound, FactId id, uint32_t iteration) {
    return Entry{std::bit_cast<uint64_t>(bound)} << 64 | Entry{~id} << 32 | iteration;
  }
  static double BoundOf(Entry entry) {
    return std::bit_cast<double>(static_cast<uint64_t>(entry >> 64));
  }
  static FactId IdOf(Entry entry) { return ~static_cast<FactId>(entry >> 32); }
  static uint32_t IterationOf(Entry entry) { return static_cast<uint32_t>(entry); }

  const FactCatalog* catalog_;
  std::vector<Entry> entries_;
  /// Per group: the last iteration a fact of it was evaluated in.
  std::vector<uint32_t> group_iteration_;
};

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

  // G-O selects lazily over per-fact bounds; G-P applies a static group
  // plan; G-B joins every group.
  std::optional<LazyFactQueue> lazy;
  std::optional<PruningPlan> plan;
  if (options.pruning == FactPruning::kOptimized) {
    lazy.emplace(evaluator);
  } else {
    plan = SelectPruningPlan(catalog, evaluator.instance().num_rows, options.pruning);
  }

  GreedyState state(evaluator);
  SelectScratch scratch;
  for (int i = 0; i < options.max_facts; ++i) {
    if (options.deadline != nullptr && options.deadline->Expired()) {
      result.timed_out = true;
      break;
    }
    bool scan_timed_out = false;
    auto [gain, fact] =
        lazy ? lazy->PopBest(static_cast<uint32_t>(i), state, &result.counters,
                             options.deadline, &scan_timed_out)
             : SelectBestFact(evaluator, state, plan ? &*plan : nullptr, &scratch,
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
