// Conjunctive equality predicates over dimension columns (the paper's query
// model, Section III: "a data subset, defined by a conjunction of equality
// predicates").
#ifndef VQ_RELATIONAL_PREDICATE_H_
#define VQ_RELATIONAL_PREDICATE_H_

#include <string>
#include <vector>

#include "storage/table.h"
#include "util/status.h"

namespace vq {

/// One equality predicate `dim = value` (value as a dictionary code).
struct EqPredicate {
  int dim = -1;
  ValueId value = kNoValue;

  bool operator==(const EqPredicate& other) const {
    return dim == other.dim && value == other.value;
  }
};

/// A conjunction of equality predicates, kept sorted by dimension index.
/// At most one predicate per dimension.
using PredicateSet = std::vector<EqPredicate>;

/// Builds a predicate from column/value names; fails if either is unknown.
Result<EqPredicate> MakePredicate(const Table& table, const std::string& dim_name,
                                  const std::string& value);

/// Sorts by dimension and rejects duplicate dimensions.
Status NormalizePredicates(PredicateSet* predicates);

/// True if `row` of `table` satisfies every predicate.
bool RowMatches(const Table& table, size_t row, const PredicateSet& predicates);

/// Row ids of all rows satisfying the conjunction (the sigma operator),
/// ascending. No predicates: every row. One predicate: a copy of its posting
/// list (builds the table index on first use). More: walks the rarest
/// predicate's posting list and checks the others against their columns.
std::vector<uint32_t> FilterRows(const Table& table, const PredicateSet& predicates);

/// True if `subset` is contained in `superset` (predicate-set inclusion,
/// used by the runtime's most-specific-summary lookup: S is a subset of Q).
bool IsSubsetOf(const PredicateSet& subset, const PredicateSet& superset);

/// "season=Winter AND region=North" (empty set renders as "<all rows>").
std::string PredicatesToString(const Table& table, const PredicateSet& predicates);

/// Canonical string key "3:17|5:2" used for store lookups; assumes the set
/// has been normalized.
std::string PredicatesKey(const PredicateSet& predicates);

}  // namespace vq

#endif  // VQ_RELATIONAL_PREDICATE_H_
