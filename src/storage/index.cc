#include "storage/index.h"

#include <algorithm>

#include "obs/metrics.h"
#include "storage/table.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace vq {

TableIndex TableIndex::Build(const Table& table) {
  Stopwatch watch;
  TableIndex index;
  index.num_rows_ = table.NumRows();
  index.num_targets_ = table.NumTargets();
  size_t num_dims = table.NumDims();

  // Shard placement: contiguous ranges of ~TargetShardRows() rows, ragged
  // last shard. Every table has at least one shard (possibly empty) so the
  // planner's per-shard paths never special-case zero.
  size_t target = std::max<size_t>(1, table.TargetShardRows());
  size_t n = index.num_rows_;
  size_t num_shards = n == 0 ? 1 : (n + target - 1) / target;
  index.shards_.resize(num_shards);
  auto build_shard = [&](size_t s) {
    size_t base = s * target;
    size_t rows = std::min(target, n - base);
    if (n == 0) rows = 0;
    index.shards_[s] = ShardIndex::Build(table, static_cast<uint32_t>(base),
                                         static_cast<uint32_t>(rows));
    index.shards_[s].ordinal_ = static_cast<uint32_t>(s);
  };
  // Shard builds are independent single-writer jobs: fan them out on the
  // scan pool at paper scale. The calling thread builds shards too, so a
  // build already running on a scan-pool worker cannot deadlock the pool.
  ParallelFor(&ScanPool(), num_shards, build_shard);

  // Merge the per-shard aggregates so table-level Count/TargetSum stay O(1).
  index.merged_counts_.resize(num_dims);
  index.merged_sums_.resize(num_dims);
  for (size_t d = 0; d < num_dims; ++d) {
    size_t cardinality = table.dict(d).size();
    std::vector<uint32_t> counts(cardinality, 0);
    std::vector<double> sums(cardinality * index.num_targets_, 0.0);
    for (const ShardIndex& shard : index.shards_) {
      for (size_t v = 0; v < cardinality; ++v) {
        counts[v] += static_cast<uint32_t>(shard.Count(d, v));
        for (size_t t = 0; t < index.num_targets_; ++t) {
          sums[v * index.num_targets_ + t] += shard.TargetSum(d, v, t);
        }
      }
    }
    index.merged_counts_[d].Assign(std::move(counts));
    index.merged_sums_[d].Assign(std::move(sums));
  }

  index.last_worker_ =
      std::make_unique<std::atomic<uint32_t>[]>(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    // relaxed: affinity hints; a stale value only costs locality.
    index.last_worker_[s].store(kNoWorker, std::memory_order_relaxed);
  }

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

TableIndex TableIndex::FromParts(size_t num_rows, size_t num_targets,
                                 std::vector<ShardIndex> shards,
                                 std::vector<MergedViews> merged) {
  TableIndex index;
  index.num_rows_ = num_rows;
  index.num_targets_ = num_targets;
  index.shards_ = std::move(shards);
  size_t num_shards = index.shards_.size();
  for (size_t s = 0; s < num_shards; ++s) {
    index.shards_[s].ordinal_ = static_cast<uint32_t>(s);
  }
  index.merged_counts_.resize(merged.size());
  index.merged_sums_.resize(merged.size());
  for (size_t d = 0; d < merged.size(); ++d) {
    index.merged_counts_[d] = ColumnStorage<uint32_t>::View(merged[d].counts);
    index.merged_sums_[d] = ColumnStorage<double>::View(merged[d].sums);
  }
  index.last_worker_ = std::make_unique<std::atomic<uint32_t>[]>(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    // relaxed: affinity hints; a stale value only costs locality.
    index.last_worker_[s].store(kNoWorker, std::memory_order_relaxed);
  }
  return index;
}

size_t TableIndex::EstimateBytes() const {
  size_t bytes = 0;
  for (const ShardIndex& shard : shards_) bytes += shard.EstimateBytes();
  for (const auto& counts : merged_counts_) bytes += counts.CapacityBytes();
  for (const auto& sums : merged_sums_) bytes += sums.CapacityBytes();
  bytes += shards_.size() * sizeof(std::atomic<uint32_t>);
  bytes += sizeof(ScanStats);
  return bytes;
}

}  // namespace vq
