// Facade: build instance + catalog + evaluator and run a chosen algorithm.
#ifndef VQ_CORE_SUMMARIZER_H_
#define VQ_CORE_SUMMARIZER_H_

#include <memory>
#include <string>

#include "core/exact.h"
#include "core/greedy.h"
#include "core/summary.h"
#include "facts/catalog.h"
#include "facts/instance.h"

namespace vq {

/// Which algorithm the facade dispatches to (Figure 3's labels).
enum class Algorithm {
  kExact,            ///< E
  kGreedy,           ///< G-B
  kGreedyNaive,      ///< G-P
  kGreedyOptimized,  ///< G-O
};

const char* AlgorithmName(Algorithm algorithm);

/// Everything needed to summarize one (query, target) problem.
struct SummarizerOptions {
  int max_facts = 3;          ///< speech length m
  int max_fact_dims = 2;      ///< extra dimension predicates per fact
  Algorithm algorithm = Algorithm::kGreedyOptimized;
  InstanceOptions instance;
  double exact_timeout_seconds = 0.0;
  /// Optional per-request serving deadline (not owned; may be null). Greedy
  /// variants checkpoint their best-so-far facts and return `timed_out`;
  /// the exact solver clamps its own timeout to the remaining budget.
  const Deadline* deadline = nullptr;
};

/// \brief A fully prepared summarization problem: owns the instance, fact
/// catalog and evaluator so callers can run several algorithms on the same
/// problem (as the Figure 3 bench does).
class PreparedProblem {
 public:
  static Result<PreparedProblem> Prepare(const Table& table,
                                         const PredicateSet& query_predicates,
                                         int target_index,
                                         const SummarizerOptions& options);

  /// Wraps an already-built instance (e.g. from BuildInstanceFromRows on the
  /// serving layer's batched path) with its fact catalog and evaluator.
  static Result<PreparedProblem> FromInstance(SummaryInstance instance,
                                              const SummarizerOptions& options);

  const SummaryInstance& instance() const { return *instance_; }
  const FactCatalog& catalog() const { return *catalog_; }
  const Evaluator& evaluator() const { return *evaluator_; }

  /// Runs the algorithm selected in `options`.
  SummaryResult Run(const SummarizerOptions& options) const;

 private:
  PreparedProblem() = default;
  std::unique_ptr<SummaryInstance> instance_;
  std::unique_ptr<FactCatalog> catalog_;
  std::unique_ptr<Evaluator> evaluator_;
};

/// One-shot convenience: prepare + run.
Result<SummaryResult> Summarize(const Table& table, const PredicateSet& predicates,
                                int target_index, const SummarizerOptions& options);

}  // namespace vq

#endif  // VQ_CORE_SUMMARIZER_H_
