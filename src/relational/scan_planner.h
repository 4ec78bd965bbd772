// Index-aware planning for conjunctive equality filters.
//
// FilterRows (relational/predicate.h) answers a conjunction through the
// table's inverted index (storage/index.h) by one fixed rule over the
// per-(dim,value) counts (see PlanScan): posting-list intersection by
// galloping search when the shortest list is selective, a column scan
// otherwise. Both paths emit row ids in ascending order, so results are
// bit-identical to the seed row-at-a-time loop
// (tests/relational/scan_planner_test.cc property-tests all three).
//
// No serving or pre-processing path filters: both slice a per-target
// TableMerge (facts/instance.h). The callers are BuildInstance /
// PreparedProblem::Prepare, benches and tests.
#ifndef VQ_RELATIONAL_SCAN_PLANNER_H_
#define VQ_RELATIONAL_SCAN_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "relational/predicate.h"
#include "storage/table.h"

namespace vq {

/// Plan counts of the process: a view over the postings and column-scan
/// series of `vq_scan_plans_total`. Nothing in the library reads it; it
/// stays only because perfbench's ledger reads these three accessors.
class ScanStats {
 public:
  uint64_t postings_samples() const;
  uint64_t scan_samples() const;
  /// Always 0: the planner never runs the path it did not pick.
  uint64_t probes() const { return 0; }
};

const ScanStats& GlobalScanStats();

/// How a conjunctive filter will be executed.
enum class ScanStrategy {
  kAllRows,      ///< no predicates: emit every row id
  kEmptyResult,  ///< some predicate's value occurs in no row (O(1) answer)
  kPostings,     ///< galloping intersection of sorted posting lists
  kColumnScan,   ///< column scan (the fallback path)
};

const char* ScanStrategyName(ScanStrategy strategy);

/// One planned filter: the chosen strategy plus the index count that drove
/// the decision (exposed for tests and the scan bench).
struct ScanPlan {
  ScanStrategy strategy = ScanStrategy::kColumnScan;
  /// Length of the shortest posting list among the predicates; an upper
  /// bound on (and estimate of) the result size.
  size_t estimated_rows = 0;
};

/// Plans one conjunction against `table` (builds the table index on first
/// use): all rows for no predicates, an empty result when some predicate's
/// value has no rows, the posting list for one predicate, and for a
/// conjunction postings while `shortest list * 4 <= table rows`, else a
/// column scan.
ScanPlan PlanScan(const Table& table, const PredicateSet& predicates);

/// One filter answer split into partial row-id lists: each entry holds
/// ascending row ids, all above the previous entry's. Nothing in the
/// library reads this shape; it stays, with FilterRowsMultiPartials and
/// MergeScanPartials, only because perfbench's serve replay calls them.
using ScanPartials = std::vector<std::vector<uint32_t>>;

/// FilterRows for each set, as one partial per set: out[i] is predicate
/// set i's answer.
std::vector<ScanPartials> FilterRowsMultiPartials(
    const Table& table, const std::vector<const PredicateSet*>& predicate_sets);

/// Concatenates partials into one ascending row id vector; one partial
/// moves straight through with no copy.
std::vector<uint32_t> MergeScanPartials(ScanPartials partials);

/// The two execution paths, exposed for equivalence tests and benches.
/// Postings: galloping intersection, shortest list first. Scan: one column
/// at a time, first predicate's matches refined by each further column.
std::vector<uint32_t> FilterRowsPostings(const Table& table,
                                         const PredicateSet& predicates);
std::vector<uint32_t> FilterRowsColumnScan(const Table& table,
                                           const PredicateSet& predicates);

}  // namespace vq

#endif  // VQ_RELATIONAL_SCAN_PLANNER_H_
