// Shard-local partial results of a conjunctive filter.
//
// The scan planner answers a filter shard by shard and merges afterwards;
// ScanPartial is that per-shard unit, returned unmerged by
// FilterRowsPartials / FilterRowsMultiPartials (relational/scan_planner.h).
//
// Contract: `rows` holds SHARD-LOCAL row ids, strictly ascending; the global
// id of entry k is `base + rows[k]`. A full result set is a vector of
// partials in ascending shard order covering each shard exactly once; since
// shard row ranges are contiguous and disjoint, concatenating the
// base-offset rows in shard order yields globally ascending ids --
// bit-identical to what the unsharded filter returned.
#ifndef VQ_RELATIONAL_SCAN_PARTIAL_H_
#define VQ_RELATIONAL_SCAN_PARTIAL_H_

#include <cstdint>
#include <vector>

namespace vq {

/// One shard's share of a filter answer (see file comment for the id
/// contract).
struct ScanPartial {
  uint32_t shard = 0;  ///< shard ordinal within the table
  uint32_t base = 0;   ///< first global row id of the shard
  std::vector<uint32_t> rows;  ///< shard-local matching rows, ascending
};

/// A filter answer as per-shard partials, ascending by shard ordinal.
using ScanPartials = std::vector<ScanPartial>;

/// Flattens partials (ascending shard order) into one globally ascending row
/// id vector. Takes the partials by value: the single-shard case -- every
/// pre-existing table -- moves the row vector straight through with no copy.
std::vector<uint32_t> MergeScanPartials(ScanPartials partials);

}  // namespace vq

#endif  // VQ_RELATIONAL_SCAN_PARTIAL_H_
