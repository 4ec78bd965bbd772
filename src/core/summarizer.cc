#include "core/summarizer.h"

namespace vq {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kExact: return "E";
    case Algorithm::kGreedy: return "G-B";
    case Algorithm::kGreedyNaive: return "G-P";
    case Algorithm::kGreedyOptimized: return "G-O";
  }
  return "?";
}

Result<PreparedProblem> PreparedProblem::Prepare(const Table& table,
                                                 const PredicateSet& query_predicates,
                                                 int target_index,
                                                 const SummarizerOptions& options) {
  VQ_ASSIGN_OR_RETURN(
      SummaryInstance instance,
      BuildInstance(table, query_predicates, target_index, options.instance));
  return FromInstance(std::move(instance), options);
}

Result<PreparedProblem> PreparedProblem::FromInstance(SummaryInstance instance,
                                                      const SummarizerOptions& options) {
  PreparedProblem problem;
  problem.instance_ = std::make_unique<SummaryInstance>(std::move(instance));
  VQ_ASSIGN_OR_RETURN(FactCatalog catalog,
                      FactCatalog::Build(*problem.instance_, options.max_fact_dims));
  problem.catalog_ = std::make_unique<FactCatalog>(std::move(catalog));
  problem.evaluator_ =
      std::make_unique<Evaluator>(problem.instance_.get(), problem.catalog_.get());
  return problem;
}

SummaryResult PreparedProblem::Run(const SummarizerOptions& options) const {
  switch (options.algorithm) {
    case Algorithm::kExact: {
      ExactOptions exact;
      exact.max_facts = options.max_facts;
      exact.timeout_seconds = options.exact_timeout_seconds;
      if (options.deadline != nullptr && options.deadline->enabled()) {
        double remaining = options.deadline->RemainingSeconds();
        if (remaining < 0.0) remaining = 0.0;
        if (exact.timeout_seconds <= 0.0 || remaining < exact.timeout_seconds) {
          exact.timeout_seconds = remaining > 0.0 ? remaining : 1e-9;
        }
      }
      return ExactSummary(*evaluator_, exact);
    }
    case Algorithm::kGreedy:
    case Algorithm::kGreedyNaive:
    case Algorithm::kGreedyOptimized: {
      GreedyOptions greedy;
      greedy.max_facts = options.max_facts;
      greedy.deadline = options.deadline;
      greedy.pruning = options.algorithm == Algorithm::kGreedy ? FactPruning::kNone
                       : options.algorithm == Algorithm::kGreedyNaive
                           ? FactPruning::kNaive
                           : FactPruning::kOptimized;
      return GreedySummary(*evaluator_, greedy);
    }
  }
  return SummaryResult{};
}

Result<SummaryResult> Summarize(const Table& table, const PredicateSet& predicates,
                                int target_index, const SummarizerOptions& options) {
  VQ_ASSIGN_OR_RETURN(PreparedProblem problem, PreparedProblem::Prepare(
                                                   table, predicates, target_index,
                                                   options));
  return problem.Run(options);
}

}  // namespace vq
