#include "relational/scan_planner.h"

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"
#include "storage/index.h"

namespace vq {

namespace {

/// Plan-choice counter for `strategy`. The planner is a free function with
/// no owning object to hold instruments, so these live as function-local
/// statics against the process-global registry (which is never destroyed);
/// after the first call each bump is one relaxed atomic add.
obs::Counter* PlanCounter(ScanStrategy strategy) {
  static obs::Counter* counters[4] = {
      obs::MetricsRegistry::Global().GetCounter(obs::MetricsRegistry::WithLabel(
          "vq_scan_plans_total", "strategy", "all-rows")),
      obs::MetricsRegistry::Global().GetCounter(obs::MetricsRegistry::WithLabel(
          "vq_scan_plans_total", "strategy", "empty")),
      obs::MetricsRegistry::Global().GetCounter(obs::MetricsRegistry::WithLabel(
          "vq_scan_plans_total", "strategy", "postings")),
      obs::MetricsRegistry::Global().GetCounter(obs::MetricsRegistry::WithLabel(
          "vq_scan_plans_total", "strategy", "column-scan")),
  };
  return counters[static_cast<size_t>(strategy)];
}

/// A conjunction intersects posting lists while `shortest list *
/// kPostingsCostFactor <= table rows`: a driver row costs about one
/// galloping probe per further predicate, against about one comparison
/// per table row for the scan.
constexpr size_t kPostingsCostFactor = 4;

/// Galloping (exponential-probe) lower bound: first position in [lo, size)
/// with list[pos] >= row. Doubles the step from the cursor before the binary
/// search, so intersecting a short driver against a long list costs
/// O(short * log(long / short)) instead of O(short * log(long)).
size_t GallopLowerBound(std::span<const uint32_t> list, size_t lo, uint32_t row) {
  size_t size = list.size();
  size_t step = 1;
  size_t hi = lo;
  while (hi < size && list[hi] < row) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  if (hi > size) hi = size;
  const uint32_t* first = list.data() + lo;
  const uint32_t* bound = std::lower_bound(first, list.data() + hi, row);
  return static_cast<size_t>(bound - list.data());
}

/// In-place intersection of sorted `result` with sorted `list` by galloping.
void GallopIntersect(std::vector<uint32_t>* result, std::span<const uint32_t> list) {
  size_t kept = 0;
  size_t cursor = 0;
  for (uint32_t row : *result) {
    cursor = GallopLowerBound(list, cursor, row);
    if (cursor == list.size()) break;
    if (list[cursor] == row) {
      (*result)[kept++] = row;
      ++cursor;
    }
  }
  result->resize(kept);
}

/// Every row id of `table`.
std::vector<uint32_t> AllRows(const Table& table) {
  std::vector<uint32_t> rows(table.NumRows());
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

}  // namespace

uint64_t ScanStats::postings_samples() const {
  return PlanCounter(ScanStrategy::kPostings)->Value();
}

uint64_t ScanStats::scan_samples() const {
  return PlanCounter(ScanStrategy::kColumnScan)->Value();
}

const ScanStats& GlobalScanStats() {
  static const ScanStats stats;
  return stats;
}

const char* ScanStrategyName(ScanStrategy strategy) {
  switch (strategy) {
    case ScanStrategy::kAllRows: return "all-rows";
    case ScanStrategy::kEmptyResult: return "empty";
    case ScanStrategy::kPostings: return "postings";
    case ScanStrategy::kColumnScan: return "column-scan";
  }
  return "unknown";
}

ScanPlan PlanScan(const Table& table, const PredicateSet& predicates) {
  ScanPlan plan;
  if (predicates.empty()) {
    plan.strategy = ScanStrategy::kAllRows;
    plan.estimated_rows = table.NumRows();
  } else {
    const TableIndex& index = table.index();
    size_t min_count = table.NumRows();
    for (const EqPredicate& p : predicates) {
      min_count = std::min(min_count, index.Count(static_cast<size_t>(p.dim), p.value));
    }
    plan.estimated_rows = min_count;
    // A single predicate's answer is its posting list: copy it, never scan.
    if (min_count == 0) {
      plan.strategy = ScanStrategy::kEmptyResult;
    } else if (predicates.size() == 1 ||
               min_count * kPostingsCostFactor <= table.NumRows()) {
      plan.strategy = ScanStrategy::kPostings;
    } else {
      plan.strategy = ScanStrategy::kColumnScan;
    }
  }
  PlanCounter(plan.strategy)->Increment();
  return plan;
}

std::vector<uint32_t> FilterRowsPostings(const Table& table,
                                         const PredicateSet& predicates) {
  const TableIndex& index = table.index();
  std::vector<size_t> order(predicates.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return index.Count(static_cast<size_t>(predicates[a].dim), predicates[a].value) <
           index.Count(static_cast<size_t>(predicates[b].dim), predicates[b].value);
  });
  std::span<const uint32_t> driver = index.Postings(
      static_cast<size_t>(predicates[order[0]].dim), predicates[order[0]].value);
  std::vector<uint32_t> rows(driver.begin(), driver.end());
  for (size_t i = 1; i < order.size() && !rows.empty(); ++i) {
    const EqPredicate& p = predicates[order[i]];
    GallopIntersect(&rows, index.Postings(static_cast<size_t>(p.dim), p.value));
  }
  return rows;
}

std::vector<uint32_t> FilterRowsColumnScan(const Table& table,
                                           const PredicateSet& predicates) {
  if (predicates.empty()) return AllRows(table);
  uint32_t num_rows = static_cast<uint32_t>(table.NumRows());
  // Both passes write every candidate and advance by the comparison instead
  // of branching on it: the scan runs when the predicates are unselective,
  // where a branch per row mispredicts often (3-4x slower on the scan
  // bench's airline+season+time case).
  // First predicate: one pass over one code column, sized by a counting
  // pass so the output holds the matches plus the one slot the last
  // unmatched write lands in.
  std::vector<uint32_t> rows;
  {
    const ValueId* column = table.DimColumn(static_cast<size_t>(predicates[0].dim)).data();
    ValueId want = predicates[0].value;
    rows.resize(static_cast<size_t>(std::count(column, column + num_rows, want)) + 1);
    size_t kept = 0;
    for (uint32_t r = 0; r < num_rows; ++r) {
      rows[kept] = r;
      kept += column[r] == want;
    }
    rows.resize(kept);
  }
  // Each further predicate refines the survivors in place against its column.
  for (size_t i = 1; i < predicates.size() && !rows.empty(); ++i) {
    const ValueId* column = table.DimColumn(static_cast<size_t>(predicates[i].dim)).data();
    ValueId want = predicates[i].value;
    size_t kept = 0;
    for (uint32_t row : rows) {
      rows[kept] = row;
      kept += column[row] == want;
    }
    rows.resize(kept);
  }
  return rows;
}

std::vector<uint32_t> FilterRows(const Table& table, const PredicateSet& predicates) {
  switch (PlanScan(table, predicates).strategy) {
    case ScanStrategy::kAllRows:
      return AllRows(table);
    case ScanStrategy::kEmptyResult:
      return {};
    case ScanStrategy::kPostings:
      return FilterRowsPostings(table, predicates);
    case ScanStrategy::kColumnScan:
      break;
  }
  return FilterRowsColumnScan(table, predicates);
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
