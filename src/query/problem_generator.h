// Problem Generator (Figure 2): enumerates one summarization problem per
// combination of a target column and an equality-predicate set, up to the
// configured query length, over all value combinations present in the data.
#ifndef VQ_QUERY_PROBLEM_GENERATOR_H_
#define VQ_QUERY_PROBLEM_GENERATOR_H_

#include <string>
#include <vector>

#include "query/config.h"
#include "relational/predicate.h"
#include "storage/table.h"
#include "util/status.h"

namespace vq {

/// One voice query: a target column plus equality predicates (normalized).
struct VoiceQuery {
  int target_index = -1;
  PredicateSet predicates;

  /// Canonical store key "t=<target>|<dim>:<value>|...".
  std::string Key() const;
};

/// \brief Enumerates all summarization problems for a configuration.
class ProblemGenerator {
 public:
  /// Validates the configuration against the table (columns must exist,
  /// dimensions must be dimension columns, targets target columns).
  static Result<ProblemGenerator> Create(const Table* table, Configuration config);

  /// All queries: every target x every predicate set of size 0..max_query_
  /// predicates whose value combination occurs in the data. Deterministic
  /// order (targets outer; predicate dimension subsets in mask order; value
  /// combinations in first-occurrence order).
  std::vector<VoiceQuery> GenerateQueries() const;

  /// Number of queries GenerateQueries() would return, without materializing
  /// them (used by the Theorem 10 bound test).
  size_t CountQueries() const;

  const Configuration& config() const { return config_; }
  const Table& table() const { return *table_; }

  /// Dimension column indices allowed in predicates.
  const std::vector<int>& dim_indices() const { return dim_indices_; }
  /// Target column indices to summarize.
  const std::vector<int>& target_indices() const { return target_indices_; }

 private:
  ProblemGenerator(const Table* table, Configuration config)
      : table_(table), config_(std::move(config)) {}

  const Table* table_;
  Configuration config_;
  std::vector<int> dim_indices_;
  std::vector<int> target_indices_;
};

}  // namespace vq

#endif  // VQ_QUERY_PROBLEM_GENERATOR_H_
