// Greedy speech summarization (Algorithm 2) -- the paper's G-B, G-P and G-O
// variants: no pruning, fact-group pruning (Algorithm 3) and bound-driven
// lazy fact selection.
#ifndef VQ_CORE_GREEDY_H_
#define VQ_CORE_GREEDY_H_

#include "core/evaluator.h"
#include "core/pruning.h"
#include "core/summary.h"
#include "util/stopwatch.h"

namespace vq {

struct GreedyOptions {
  /// Maximum facts per speech (m). Prior work shows user retention drops
  /// sharply after three facts, the paper's default (Section VIII-A).
  int max_facts = 3;
  FactPruning pruning = FactPruning::kNone;
  /// Optional per-request serving deadline (not owned; may be null). Greedy
  /// is an anytime algorithm: each completed iteration leaves a valid,
  /// just less complete, fact set. When the deadline expires mid-run the
  /// best-so-far facts are returned with `timed_out` set, and the serving
  /// layer renders them as a degraded summary instead of failing.
  const Deadline* deadline = nullptr;
};

/// Runs the greedy algorithm: each iteration adds the fact with the highest
/// utility gain given the current speech (ties to the lowest FactId) and
/// recomputes per-row expectations; it stops after `max_facts` facts or when
/// no gain exceeds 1e-12. Guarantees utility within (1 - 1/e) of the optimum
/// (Theorem 3). The variants differ only in how much work finds that fact;
/// every one returns the same facts, `utility` and `error` bits on every
/// simd kernel table:
///  - G-B (kNone) computes the gain of every fact in every iteration.
///  - G-P (kNaive) applies Algorithm 3 with the naive group plan: it joins
///    the smallest group, then prunes every other group (with its
///    specializations) whose Algorithm 3 bound falls below that group's
///    best gain.
///  - G-O (kOptimized) is a lazy (CELF) argmax over per-fact upper bounds
///    (Minoux 1978; Leskovec et al., KDD 2007). The first iteration's bounds
///    are free: scope_weight * |prior - value| plus rounding slack
///    (Evaluator::SingleFactUtilityBound). A gain computed in one iteration
///    bounds the fact's gain in every later one, because adding facts only
///    lowers row deviations. Each iteration evaluates the top-bounded fact
///    until the top holds a gain of this iteration; typically only a few
///    facts per iteration are joined.
/// Counters: `join_rows` counts scope rows joined (G-B/G-P: every row of a
/// joined group), `bound_rows` the rows G-P's group bounds read (0 for G-B
/// and G-O); per iteration, `groups_joined` counts the groups with at least
/// one evaluated fact and `groups_pruned` the rest.
SummaryResult GreedySummary(const Evaluator& evaluator, const GreedyOptions& options);

}  // namespace vq

#endif  // VQ_CORE_GREEDY_H_
