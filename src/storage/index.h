// Inverted index over a Table's dimension columns.
//
// One CSR per dimension: `offsets` (cardinality + 1 entries) and `rows`
// (every row id once, grouped by value, ascending within each value), so
// Postings is one span and Count one subtraction. Both arrays are
// ColumnStorage, so a snapshot-loaded index views them in the mapping
// (storage/snapshot.h) instead of rebuilding them. The index is built once
// per table and is immutable after construction; Table owns one lazily
// (see Table::index()).
#ifndef VQ_STORAGE_INDEX_H_
#define VQ_STORAGE_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/column.h"

namespace vq {

class Table;
using ValueId = uint32_t;

/// \brief Immutable inverted index over all dimension columns of one Table.
class TableIndex {
 public:
  /// Builds the index for `table`, one dimension per task on SharedPool()
  /// (the calling thread builds dimensions too). Values interned after the
  /// build are simply absent; Table invalidates its cached index on append,
  /// so this cannot be observed through Table::index().
  static TableIndex Build(const Table& table);

  /// One dimension's CSR arrays for FromViews: spans into an externally
  /// pinned buffer (the snapshot mapping).
  struct DimViews {
    std::span<const uint32_t> offsets;
    std::span<const uint32_t> rows;
  };

  /// Zero-copy counterpart of Build: adopts pre-built CSR arrays as views
  /// without touching a row. The caller (storage/snapshot.cc) pins the
  /// buffer behind every span and has checked the CSR invariants.
  static TableIndex FromViews(size_t num_rows, std::vector<DimViews> dims);

  size_t num_dims() const { return offsets_.size(); }
  size_t num_rows() const { return num_rows_; }

  /// Ascending row ids with `value` in dimension `dim`. Values beyond the
  /// dictionary size at build time (including the kNoValue sentinel, which
  /// would wrap a `value + 1` comparison) yield an empty span.
  std::span<const uint32_t> Postings(size_t dim, ValueId value) const {
    const auto& offsets = offsets_[dim];
    if (value >= offsets.size() - 1) return {};
    const uint32_t* list_base = rows_[dim].data();
    return {list_base + offsets[value], list_base + offsets[value + 1]};
  }

  /// Number of rows with `value` in dimension `dim` (O(1)).
  size_t Count(size_t dim, ValueId value) const {
    const auto& offsets = offsets_[dim];
    if (value >= offsets.size() - 1) return 0;
    return offsets[value + 1] - offsets[value];
  }

  /// Raw CSR arrays for one dimension, exactly as stored; the snapshot
  /// writer serializes these verbatim for FromViews to adopt.
  std::span<const uint32_t> OffsetsArray(size_t dim) const {
    return offsets_[dim].span();
  }
  std::span<const uint32_t> RowsArray(size_t dim) const {
    return rows_[dim].span();
  }

  /// Approximate heap footprint (counted by Table::EstimateBytes).
  size_t EstimateBytes() const;

 private:
  size_t num_rows_ = 0;
  /// Per dim: value -> start offset into rows_[dim]; length cardinality + 1.
  std::vector<ColumnStorage<uint32_t>> offsets_;
  /// Per dim: posting lists back to back, ascending row ids per value.
  std::vector<ColumnStorage<uint32_t>> rows_;
};

}  // namespace vq

#endif  // VQ_STORAGE_INDEX_H_
