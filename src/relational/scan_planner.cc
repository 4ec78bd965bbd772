#include "relational/scan_planner.h"

#include <utility>

namespace vq {

const ScanStats& GlobalScanStats() {
  static const ScanStats stats;
  return stats;
}

std::vector<ScanPartials> FilterRowsMultiPartials(
    const Table& table, const std::vector<const PredicateSet*>& predicate_sets) {
  std::vector<ScanPartials> out;
  out.reserve(predicate_sets.size());
  for (const PredicateSet* predicates : predicate_sets) {
    out.emplace_back().push_back(FilterRows(table, *predicates));
  }
  return out;
}

std::vector<uint32_t> MergeScanPartials(ScanPartials partials) {
  if (partials.size() == 1) return std::move(partials[0]);
  std::vector<uint32_t> merged;
  for (const std::vector<uint32_t>& partial : partials) {
    merged.insert(merged.end(), partial.begin(), partial.end());
  }
  return merged;
}

}  // namespace vq
