// The per-problem row block every summarization algorithm operates on.
#ifndef VQ_FACTS_INSTANCE_H_
#define VQ_FACTS_INSTANCE_H_

#include <string>
#include <vector>

#include "relational/predicate.h"
#include "storage/table.h"
#include "util/status.h"

namespace vq {

/// How the constant prior P(r) (Definition 4) is chosen.
enum class PriorKind {
  kGlobalAverage,  ///< average of the target column over the whole table
                   ///< (the paper's default, Section VIII-A)
  kSubsetAverage,  ///< average over the queried subset
  kZero,           ///< "users expect no delays by default" (Example 3)
  kConstant,       ///< explicit value
};

/// \brief One speech-summarization problem: the queried data subset projected
/// onto the fact-eligible dimensions, plus the prior.
///
/// Rows with identical dimension codes and identical target value are merged
/// with a multiplicity weight; all deviation/utility computations are
/// weighted, which leaves every result unchanged while shrinking the block
/// (targets here are integers in practice, so merge rates are high). The
/// merge is exact -- rows are compared code by code, a hash only places
/// them -- and merged rows keep the order of their first source row, whose
/// target they carry. Built per problem by BuildInstance, or as a slice of
/// one whole-table merge by TableMerge::Slice; both give the same bits.
struct SummaryInstance {
  /// Fact-eligible dimension columns (indices into the source table) -- the
  /// dimensions not already fixed by the query's predicates.
  std::vector<int> dims;
  std::vector<std::string> dim_names;
  /// Cardinality of each fact-eligible dimension (full dictionary size); it
  /// bounds the dimension's codes and sizes FactCatalog::Build's grouping
  /// slots.
  std::vector<size_t> dim_cardinalities;

  size_t num_rows = 0;                 ///< merged rows
  double total_weight = 0.0;           ///< original (pre-merge) row count
  /// Column-major, dims.size() x num_rows: the codes of dimension position
  /// d fill [d * num_rows, (d + 1) * num_rows), so FactCatalog::Build groups
  /// whole columns straight from here. Read single codes through CodeAt.
  std::vector<ValueId> codes;
  std::vector<double> target;          ///< per merged row
  std::vector<double> weight;          ///< multiplicity per merged row

  double prior = 0.0;                  ///< constant prior expectation

  std::string target_name;
  std::string target_unit;

  /// Code of merged row `row` in dimension position `dim_pos`.
  ValueId CodeAt(size_t row, size_t dim_pos) const {
    return codes[dim_pos * num_rows + row];
  }

  /// Baseline error D(empty): weighted sum of |prior - target|.
  double BaseError() const;
};

/// Options controlling instance construction.
struct InstanceOptions {
  PriorKind prior_kind = PriorKind::kGlobalAverage;
  double prior_value = 0.0;  ///< used when prior_kind == kConstant
  bool merge_duplicates = true;
};

/// Builds the instance for `query predicates` on `target` of `table`.
/// Fact-eligible dimensions are all dimensions without a query predicate.
/// Fails if the subset is empty or a dimension's cardinality exceeds the
/// packable limit.
Result<SummaryInstance> BuildInstance(const Table& table,
                                      const PredicateSet& query_predicates,
                                      int target_index,
                                      const InstanceOptions& options = {});

/// The PriorKind::kGlobalAverage value: mean of the target column over the
/// whole table. TableMerge computes it once per target with this same
/// formula, so its slices carry BuildInstance's prior bit for bit.
double GlobalAverage(const Table& table, int target_index);

/// Like BuildInstance, but over an already-filtered row list (`rows` must be
/// exactly the rows matching `query_predicates`); results are identical to
/// BuildInstance, which filters and then calls it. Its merge is the same
/// loop TableMerge runs once over the whole table.
Result<SummaryInstance> BuildInstanceFromRows(const Table& table,
                                              const PredicateSet& query_predicates,
                                              int target_index,
                                              const std::vector<uint32_t>& rows,
                                              const InstanceOptions& options = {});

/// \brief One target's merge of the whole table on (all dimension codes,
/// target), from which every problem's instance is sliced.
///
/// Two rows matching a predicate set P already agree on P's dimensions, so
/// they merge under P exactly when they merge here. Every instance of P is
/// therefore the set of this merge's groups whose codes match P, in
/// first-row order, projected onto the free dimensions -- bit for bit:
/// weights are integer counts and a group keeps its first row's target.
/// Stored as a multiplicity column, 4 B per table row: the group's size on
/// its first row, 0 on every other row. The table must outlive the merge
/// and not change under it.
class TableMerge {
 public:
  /// One pass of the instance merge over every row of `table`. A bad
  /// `target_index` builds nothing; Slice then reports it as BuildInstance
  /// does.
  TableMerge(const Table& table, int target_index);

  /// Returns exactly what BuildInstance(table, query_predicates,
  /// target_index, options) returns, statuses included, without a hash
  /// merge: takes FilterRows' rows, compacts them in place to those that
  /// start a group, then gathers each free dimension's column, the target
  /// and the weight from them.
  Result<SummaryInstance> Slice(const PredicateSet& query_predicates,
                                const InstanceOptions& options = {}) const;

 private:
  const Table* table_;
  int target_index_;
  std::vector<uint32_t> multiplicity_;  ///< per table row
  double global_average_ = 0.0;         ///< the kGlobalAverage prior
};

}  // namespace vq

#endif  // VQ_FACTS_INSTANCE_H_
