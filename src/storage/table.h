// Columnar relation: dictionary-encoded dimension columns + double targets.
//
// Implements the paper's data model (Definition 1): each row assigns values
// to dimension columns and carries numerical values in target columns.
#ifndef VQ_STORAGE_TABLE_H_
#define VQ_STORAGE_TABLE_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/index.h"
#include "util/csv.h"
#include "util/status.h"
#include "util/sync.h"

namespace vq {

/// \brief In-memory columnar table with named dimension and target columns.
///
/// Dimension columns hold dictionary codes; target columns hold doubles.
/// Storage is column-major for cache-friendly scans in the operator layer.
class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}

  // The lazily built index cell is per-object state, never shared: copies
  // start without an index (each rebuilds on first use), moves transfer it.
  Table(const Table& other);
  Table& operator=(const Table& other);
  Table(Table&& other) noexcept;
  Table& operator=(Table&& other) noexcept;

  const std::string& name() const { return name_; }

  /// Declares a dimension column before any row is appended; returns its index.
  int AddDimColumn(std::string column_name);

  /// Declares a target column (with an optional unit used by speech
  /// templates, e.g. "minutes" or "out of 1000"); returns its index.
  int AddTargetColumn(std::string column_name, std::string unit = "");

  /// Appends a row; `dim_values` / `target_values` must match the declared
  /// column counts.
  Status AppendRow(const std::vector<std::string>& dim_values,
                   const std::vector<double>& target_values);

  /// Appends a pre-encoded row (codes must be valid for each dictionary).
  void AppendEncodedRow(const std::vector<ValueId>& dim_codes,
                        const std::vector<double>& target_values);

  /// Reserves column capacity for `num_rows` total rows. The paper-scale
  /// dataset generators call this before their bulk AppendEncodedRow loops
  /// so a 50M-row build never reallocates a 400MB column mid-append.
  void ReserveRows(size_t num_rows);

  size_t NumRows() const { return num_rows_; }
  size_t NumDims() const { return dim_names_.size(); }
  size_t NumTargets() const { return target_names_.size(); }

  const std::string& DimName(size_t dim) const { return dim_names_[dim]; }
  const std::string& TargetName(size_t target) const { return target_names_[target]; }
  const std::string& TargetUnit(size_t target) const { return target_units_[target]; }

  /// Column index by name; -1 if absent.
  int DimIndex(const std::string& column_name) const;
  int TargetIndex(const std::string& column_name) const;

  ValueId DimCode(size_t row, size_t dim) const { return dim_codes_[dim][row]; }
  double TargetValue(size_t row, size_t target) const {
    return target_values_[target][row];
  }

  std::span<const ValueId> DimColumn(size_t dim) const {
    return dim_codes_[dim].span();
  }
  std::span<const double> TargetColumn(size_t target) const {
    return target_values_[target].span();
  }

  const Dictionary& dict(size_t dim) const { return dictionaries_[dim]; }
  Dictionary& mutable_dict(size_t dim) { return dictionaries_[dim]; }

  /// The decoded string for a row's dimension value.
  const std::string& DimValue(size_t row, size_t dim) const {
    return dictionaries_[dim].Lookup(dim_codes_[dim][row]);
  }

  /// The table's inverted index (storage/index.h), built on first use and
  /// cached; appending rows invalidates the cache. Thread-safe: concurrent
  /// first calls build once, later calls are a single atomic load --
  /// FilterRows, and through it the serving layer's on-demand slices, hit
  /// this from many worker threads.
  const TableIndex& index() const;

  /// True if the index has been built (and not invalidated since); lets
  /// EstimateBytes callers distinguish raw column size from indexed size.
  bool has_index() const {
    return index_cell_ != nullptr &&
           index_cell_->ptr.load(std::memory_order_acquire) != nullptr;
  }

  /// Approximate in-memory size in bytes (Table I's "Size" column analogue);
  /// includes the inverted index when built.
  size_t EstimateBytes() const;

  /// Serializes all rows (decoded) to CSV.
  std::string ToCsv() const;

  /// Builds a table from CSV contents given column roles. Unlisted columns
  /// are ignored.
  static Result<Table> FromCsv(const CsvData& csv, const std::string& name,
                               const std::vector<std::string>& dim_columns,
                               const std::vector<std::string>& target_columns);

  // --- Zero-copy snapshot adoption (storage/snapshot.cc) -------------------
  //
  // A snapshot-loaded table borrows its columns straight out of a read-only
  // mmap: AdoptDimColumnView/AdoptTargetColumnView install spans instead of
  // copying, `backing` pins the mapping for as long as any copy of the
  // table lives, and AdoptIndex publishes the snapshot's pre-built index so
  // the lazy path never rebuilds it. Mutating a borrowed column later
  // (AppendRow etc.) transparently materializes a private heap copy first
  // (ColumnStorage::EnsureOwned), so adopted tables keep full Table
  // semantics.

  /// Installs a borrowed dimension column; `view.size()` must equal the row
  /// count passed to SetAdoptedRows. The column must already be declared.
  void AdoptDimColumnView(size_t dim, std::span<const ValueId> view) {
    dim_codes_[dim] = ColumnStorage<ValueId>::View(view);
  }
  void AdoptTargetColumnView(size_t target, std::span<const double> view) {
    target_values_[target] = ColumnStorage<double>::View(view);
  }
  /// Declares the row count of a table whose columns were adopted as views
  /// (AppendRow would both adopt and count; view adoption cannot).
  void SetAdoptedRows(size_t num_rows) { num_rows_ = num_rows; }
  /// Pins whatever owns the bytes behind borrowed columns (the snapshot
  /// mapping). Shared by copies of the table.
  void SetBacking(std::shared_ptr<const void> backing) {
    backing_ = std::move(backing);
  }
  /// True when any storage is borrowed from a snapshot mapping.
  bool snapshot_backed() const { return backing_ != nullptr; }

  /// Publishes a pre-built index (the snapshot's), replacing any cached one;
  /// index() then returns it without building. Not thread-safe against
  /// concurrent index() calls -- adoption happens before the table is
  /// published to any reader, like all other loader-side mutation.
  void AdoptIndex(std::unique_ptr<const TableIndex> index);

 private:
  /// Heap-boxed lazy-index state so Table itself stays movable (mutex
  /// members are not). `ptr` is the double-checked fast path; `index` owns.
  struct IndexCell {
    Mutex mutex;
    std::unique_ptr<const TableIndex> index GUARDED_BY(mutex);
    std::atomic<const TableIndex*> ptr{nullptr}; // published after build
  };

  void InvalidateIndex();

  std::string name_;
  size_t num_rows_ = 0;
  std::vector<std::string> dim_names_;
  std::vector<Dictionary> dictionaries_;
  std::vector<ColumnStorage<ValueId>> dim_codes_;
  std::vector<std::string> target_names_;
  std::vector<std::string> target_units_;
  std::vector<ColumnStorage<double>> target_values_;
  /// Keeps the snapshot mapping alive while borrowed columns (here or in
  /// copies of this table) view into it; null for cold-built tables.
  std::shared_ptr<const void> backing_;
  /// Always non-null on a live table (constructors allocate it), so index()
  /// needs no creation handshake.
  mutable std::unique_ptr<IndexCell> index_cell_ = std::make_unique<IndexCell>();
};

}  // namespace vq

#endif  // VQ_STORAGE_TABLE_H_
