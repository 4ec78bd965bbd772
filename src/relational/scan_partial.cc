#include "relational/scan_partial.h"

#include <cstddef>

namespace vq {

std::vector<uint32_t> MergeScanPartials(ScanPartials partials) {
  if (partials.empty()) return {};
  if (partials.size() == 1 && partials[0].base == 0) {
    return std::move(partials[0].rows);  // the unsharded case: zero-copy
  }
  size_t total = 0;
  for (const ScanPartial& partial : partials) total += partial.rows.size();
  std::vector<uint32_t> merged;
  merged.reserve(total);
  for (const ScanPartial& partial : partials) {
    for (uint32_t local : partial.rows) merged.push_back(partial.base + local);
  }
  return merged;
}

}  // namespace vq
