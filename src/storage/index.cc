#include "storage/index.h"

#include "obs/metrics.h"
#include "storage/table.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace vq {

TableIndex TableIndex::Build(const Table& table) {
  Stopwatch watch;
  TableIndex index;
  index.num_rows_ = table.NumRows();
  size_t num_dims = table.NumDims();
  index.offsets_.resize(num_dims);
  index.rows_.resize(num_dims);
  auto build_dim = [&](size_t d) {
    std::span<const ValueId> column = table.DimColumn(d);
    size_t cardinality = table.dict(d).size();
    uint32_t n = static_cast<uint32_t>(index.num_rows_);

    // Counting pass -> exclusive prefix sums.
    std::vector<uint32_t> offsets(cardinality + 1, 0);
    for (uint32_t r = 0; r < n; ++r) ++offsets[column[r] + 1];
    for (size_t v = 1; v <= cardinality; ++v) offsets[v] += offsets[v - 1];

    // Fill pass: ascending row order makes every posting list sorted.
    std::vector<uint32_t> rows(n);
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (uint32_t r = 0; r < n; ++r) rows[cursor[column[r]]++] = r;
    index.offsets_[d].Assign(std::move(offsets));
    index.rows_[d].Assign(std::move(rows));
  };
  // Dimensions are independent single-writer jobs. The calling thread
  // builds dimensions too, so a build already running on a pool worker
  // cannot deadlock the pool.
  ParallelFor(SharedPool(), num_dims, build_dim);

  // Builds are rare (registration, first lazy warm) but expensive and
  // latency-visible when they land on a serving path; both instruments sit
  // in the process-global registry because Build is a static factory.
  static obs::Counter* builds =
      obs::MetricsRegistry::Global().GetCounter("vq_index_builds_total");
  static obs::LatencyHistogram* build_hist =
      obs::MetricsRegistry::Global().GetHistogram("vq_index_build_seconds");
  builds->Increment();
  build_hist->Record(watch.ElapsedSeconds());
  return index;
}

TableIndex TableIndex::FromViews(size_t num_rows, std::vector<DimViews> dims) {
  TableIndex index;
  index.num_rows_ = num_rows;
  index.offsets_.resize(dims.size());
  index.rows_.resize(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    index.offsets_[d] = ColumnStorage<uint32_t>::View(dims[d].offsets);
    index.rows_[d] = ColumnStorage<uint32_t>::View(dims[d].rows);
  }
  return index;
}

size_t TableIndex::EstimateBytes() const {
  size_t bytes = 0;
  for (const auto& offsets : offsets_) bytes += offsets.CapacityBytes();
  for (const auto& rows : rows_) bytes += rows.CapacityBytes();
  return bytes;
}

}  // namespace vq
