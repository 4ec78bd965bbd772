// The plan-count view and the partial-list helpers that perfbench's ledger
// and serve replay compile against. Nothing in the library reads them:
// FilterRows (relational/predicate.h) is one walk with no plan to count.
#ifndef VQ_RELATIONAL_SCAN_PLANNER_H_
#define VQ_RELATIONAL_SCAN_PLANNER_H_

#include <cstdint>
#include <vector>

#include "relational/predicate.h"
#include "storage/table.h"

namespace vq {

/// Plan counts of the process. FilterRows plans nothing, so every accessor
/// reads 0.
class ScanStats {
 public:
  uint64_t postings_samples() const { return 0; }
  uint64_t scan_samples() const { return 0; }
  uint64_t probes() const { return 0; }
};

const ScanStats& GlobalScanStats();

/// One filter answer split into partial row-id lists: each entry holds
/// ascending row ids, all above the previous entry's.
using ScanPartials = std::vector<std::vector<uint32_t>>;

/// FilterRows for each set, as one partial per set: out[i] is predicate
/// set i's answer.
std::vector<ScanPartials> FilterRowsMultiPartials(
    const Table& table, const std::vector<const PredicateSet*>& predicate_sets);

/// Concatenates partials into one ascending row id vector; one partial
/// moves straight through with no copy.
std::vector<uint32_t> MergeScanPartials(ScanPartials partials);

}  // namespace vq

#endif  // VQ_RELATIONAL_SCAN_PLANNER_H_
