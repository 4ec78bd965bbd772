// Table-level facade over the per-shard inverted indexes.
//
// Since the sharded-storage refactor the real index state lives in
// ShardIndex (storage/shard.h): a table's rows are split into contiguous
// shards of ~Table::TargetShardRows() rows, each owning CSR-packed posting
// lists (shard-local row ids), per-(dim,value) counts/target-sums and its
// own ScanStats. TableIndex builds and owns that shard vector plus merged
// per-(dim,value) aggregates, so single-predicate counts/averages stay O(1)
// at table level regardless of shard count, and conjunctive filters
// intersect posting lists per shard (the ScanPlanner in
// relational/scan_planner.h fans the shards across the scan pool and merges
// the partial results). The index is built once per table and is immutable
// after construction; Table owns one lazily (see Table::index()).
#ifndef VQ_STORAGE_INDEX_H_
#define VQ_STORAGE_INDEX_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "storage/shard.h"
#include "util/scan_stats.h"

namespace vq {

class Table;
using ValueId = uint32_t;

/// \brief Immutable sharded inverted index over all dimension columns of one
/// Table.
///
/// Within each shard, posting lists are CSR-packed per dimension with
/// strictly increasing SHARD-LOCAL row ids (build order); global row ids are
/// shard base + local id, so shard-order concatenation of per-shard results
/// is globally ascending -- what posting-list intersection and the planner's
/// partial merge rely on.
class TableIndex {
 public:
  /// Builds the index for `table`: one ShardIndex per ~TargetShardRows()
  /// rows (built in parallel on the scan pool when there are several), plus
  /// the merged table-level aggregates. Values interned after the build are
  /// simply absent; Table invalidates its cached index on append, so this
  /// cannot be observed through Table::index().
  static TableIndex Build(const Table& table);

  /// Per-dimension merged aggregates for FromParts: spans into an externally
  /// pinned buffer (the snapshot mapping). `counts` has cardinality entries,
  /// `sums` has cardinality x num_targets entries.
  struct MergedViews {
    std::span<const uint32_t> counts;
    std::span<const double> sums;
  };

  /// Zero-copy counterpart of Build: adopts pre-built shards (themselves
  /// ShardIndex::FromViews products) and merged aggregates without touching
  /// a row. Shard ordinals are (re)assigned in vector order; affinity hints
  /// and scan stats start fresh, exactly as after a cold Build in a new
  /// process. The caller pins the buffer behind every span.
  static TableIndex FromParts(size_t num_rows, size_t num_targets,
                              std::vector<ShardIndex> shards,
                              std::vector<MergedViews> merged);

  size_t num_dims() const { return merged_counts_.size(); }
  size_t num_rows() const { return num_rows_; }

  size_t num_shards() const { return shards_.size(); }
  const ShardIndex& shard(size_t s) const { return shards_[s]; }
  std::span<const ShardIndex> shards() const { return shards_; }

  /// Sorted row ids with `value` in dimension `dim`. Only valid on
  /// single-shard tables (where shard-local ids ARE global ids); multi-shard
  /// tables answer postings queries per shard -- the planner never needs a
  /// table-level contiguous span, and materializing one would double the
  /// index footprint. Values beyond the dictionary size at build time
  /// (including the kNoValue sentinel) yield an empty span.
  std::span<const uint32_t> Postings(size_t dim, ValueId value) const {
    assert(shards_.size() == 1 &&
           "table-level Postings() requires a single-shard table");
    return shards_[0].Postings(dim, value);
  }

  /// Number of rows with `value` in dimension `dim` (O(1), merged over all
  /// shards at build time).
  size_t Count(size_t dim, ValueId value) const {
    const auto& counts = merged_counts_[dim];
    if (value >= counts.size()) return 0;
    return counts[value];
  }

  /// Sum of target column `target` over rows with `value` in dimension `dim`
  /// (O(1)); with Count this answers single-predicate averages without
  /// touching a single row.
  double TargetSum(size_t dim, ValueId value, size_t target) const {
    const auto& sums = merged_sums_[dim];
    if (value >= merged_counts_[dim].size()) return 0.0;
    return sums[value * num_targets_ + target];
  }

  /// Average of `target` over rows with `value` in `dim`; 0 on empty scope.
  double TargetAverage(size_t dim, ValueId value, size_t target) const {
    size_t count = Count(dim, value);
    return count > 0 ? TargetSum(dim, value, target) / static_cast<double>(count)
                     : 0.0;
  }

  /// Raw merged-aggregate arrays for one dimension, exactly as stored; the
  /// snapshot writer serializes these verbatim for FromParts to adopt.
  std::span<const uint32_t> MergedCountsArray(size_t dim) const {
    return merged_counts_[dim].span();
  }
  std::span<const double> MergedSumsArray(size_t dim) const {
    return merged_sums_[dim].span();
  }
  size_t num_targets() const { return num_targets_; }

  /// Approximate heap footprint (counted by Table::EstimateBytes).
  size_t EstimateBytes() const;

  /// This table's scan-planner statistics (util/scan_stats.h). Hung off the
  /// index because the index shares its lifetime with the planner decisions
  /// it informs: appending rows invalidates both together, so stale per-row
  /// costs can never steer plans for a table that has changed shape. The
  /// instance is internally atomic, hence mutable through the const index
  /// the planner holds; heap-boxed so the index itself stays movable.
  /// Each shard additionally owns its own instance (ShardIndex::scan_stats).
  ScanStats& scan_stats() const { return *scan_stats_; }

  /// Sentinel for shard_last_worker() before any worker has scanned a shard.
  static constexpr uint32_t kNoWorker = static_cast<uint32_t>(-1);

  /// Affinity memory for the parallel fan-out: the scan-pool worker that
  /// last executed each shard's filter task. The planner submits the next
  /// task for that shard with this as the placement hint, so a shard tends
  /// to be rescanned by the worker whose cache already holds its lists.
  /// Relaxed atomics: a stale or torn hint only costs locality, never
  /// correctness.
  // relaxed: a cache-affinity hint; staleness costs locality, never
  // correctness.
  uint32_t shard_last_worker(size_t s) const {
    return last_worker_[s].load(std::memory_order_relaxed);
  }
  void set_shard_last_worker(size_t s, uint32_t worker) const {
    last_worker_[s].store(worker, std::memory_order_relaxed);
  }

 private:
  size_t num_rows_ = 0;
  size_t num_targets_ = 0;
  std::vector<ShardIndex> shards_;
  /// Per dim: value -> row count, summed over shards; length cardinality.
  /// ColumnStorage so a snapshot-loaded index can view the arrays in place.
  std::vector<ColumnStorage<uint32_t>> merged_counts_;
  /// Per dim: cardinality x num_targets sums, row-major by value.
  std::vector<ColumnStorage<double>> merged_sums_;
  std::unique_ptr<ScanStats> scan_stats_ = std::make_unique<ScanStats>();
  /// Per shard: last scan-pool worker (kNoWorker until first scanned).
  /// unique_ptr<atomic[]> keeps the index movable.
  std::unique_ptr<std::atomic<uint32_t>[]> last_worker_;
};

}  // namespace vq

#endif  // VQ_STORAGE_INDEX_H_
