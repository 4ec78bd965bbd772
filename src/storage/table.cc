#include "storage/table.h"

#include <cassert>
#include <charconv>

#include "util/csv.h"

namespace vq {

Table::Table(const Table& other)
    : name_(other.name_),
      num_rows_(other.num_rows_),
      dim_names_(other.dim_names_),
      dictionaries_(other.dictionaries_),
      dim_codes_(other.dim_codes_),
      target_names_(other.target_names_),
      target_units_(other.target_units_),
      target_values_(other.target_values_),
      backing_(other.backing_) {}

Table& Table::operator=(const Table& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  num_rows_ = other.num_rows_;
  dim_names_ = other.dim_names_;
  dictionaries_ = other.dictionaries_;
  dim_codes_ = other.dim_codes_;
  target_names_ = other.target_names_;
  target_units_ = other.target_units_;
  target_values_ = other.target_values_;
  backing_ = other.backing_;
  InvalidateIndex();
  return *this;
}

// Moves leave the source with a null cell rather than allocating a fresh
// one: these operations are noexcept, and make_unique throwing bad_alloc
// inside them would terminate. The accessors below tolerate the null cell,
// so a moved-from table can still be destroyed, reassigned or (single-
// threadedly) refilled.
Table::Table(Table&& other) noexcept
    : name_(std::move(other.name_)),
      num_rows_(other.num_rows_),
      dim_names_(std::move(other.dim_names_)),
      dictionaries_(std::move(other.dictionaries_)),
      dim_codes_(std::move(other.dim_codes_)),
      target_names_(std::move(other.target_names_)),
      target_units_(std::move(other.target_units_)),
      target_values_(std::move(other.target_values_)),
      backing_(std::move(other.backing_)),
      index_cell_(std::move(other.index_cell_)) {
  other.num_rows_ = 0;
}

Table& Table::operator=(Table&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  num_rows_ = other.num_rows_;
  dim_names_ = std::move(other.dim_names_);
  dictionaries_ = std::move(other.dictionaries_);
  dim_codes_ = std::move(other.dim_codes_);
  target_names_ = std::move(other.target_names_);
  target_units_ = std::move(other.target_units_);
  target_values_ = std::move(other.target_values_);
  backing_ = std::move(other.backing_);
  index_cell_ = std::move(other.index_cell_);
  other.num_rows_ = 0;
  return *this;
}

const TableIndex& Table::index() const {
  // Null only after being moved from; reviving such a table is inherently
  // single-threaded (its columns were stolen too), so plain re-creation is
  // safe here. Live tables allocate the cell at construction.
  if (index_cell_ == nullptr) index_cell_ = std::make_unique<IndexCell>();
  IndexCell& cell = *index_cell_;
  const TableIndex* built = cell.ptr.load(std::memory_order_acquire);
  if (built != nullptr) return *built;
  MutexLock lock(cell.mutex);
  if (cell.index == nullptr) {
    cell.index = std::make_unique<const TableIndex>(TableIndex::Build(*this));
    cell.ptr.store(cell.index.get(), std::memory_order_release);
  }
  return *cell.index;
}

void Table::AdoptIndex(std::unique_ptr<const TableIndex> index) {
  if (index_cell_ == nullptr) index_cell_ = std::make_unique<IndexCell>();
  IndexCell& cell = *index_cell_;
  MutexLock lock(cell.mutex);
  cell.index = std::move(index);
  cell.ptr.store(cell.index.get(), std::memory_order_release);
}

void Table::InvalidateIndex() {
  if (index_cell_ == nullptr) return;  // moved-from: nothing cached
  IndexCell& cell = *index_cell_;
  // Appends are not allowed concurrently with reads (the builder itself
  // would race on the columns), so an unbuilt index needs no locking here --
  // this keeps the per-AppendRow cost at one relaxed load during bulk loads.
  // relaxed: the pointer is re-read under the cell mutex before any use.
  if (cell.ptr.load(std::memory_order_relaxed) == nullptr) return;
  MutexLock lock(cell.mutex);
  cell.ptr.store(nullptr, std::memory_order_release);
  cell.index.reset();
}

int Table::AddDimColumn(std::string column_name) {
  assert(num_rows_ == 0 && "columns must be declared before rows are appended");
  dim_names_.push_back(std::move(column_name));
  dictionaries_.emplace_back();
  dim_codes_.emplace_back();
  return static_cast<int>(dim_names_.size()) - 1;
}

int Table::AddTargetColumn(std::string column_name, std::string unit) {
  assert(num_rows_ == 0 && "columns must be declared before rows are appended");
  target_names_.push_back(std::move(column_name));
  target_units_.push_back(std::move(unit));
  target_values_.emplace_back();
  return static_cast<int>(target_names_.size()) - 1;
}

Status Table::AppendRow(const std::vector<std::string>& dim_values,
                        const std::vector<double>& target_values) {
  if (dim_values.size() != dim_names_.size()) {
    return Status::InvalidArgument("expected " + std::to_string(dim_names_.size()) +
                                   " dimension values, got " +
                                   std::to_string(dim_values.size()));
  }
  if (target_values.size() != target_names_.size()) {
    return Status::InvalidArgument("expected " + std::to_string(target_names_.size()) +
                                   " target values, got " +
                                   std::to_string(target_values.size()));
  }
  for (size_t d = 0; d < dim_values.size(); ++d) {
    dim_codes_[d].PushBack(dictionaries_[d].Intern(dim_values[d]));
  }
  for (size_t t = 0; t < target_values.size(); ++t) {
    target_values_[t].PushBack(target_values[t]);
  }
  ++num_rows_;
  InvalidateIndex();
  return Status::OK();
}

void Table::AppendEncodedRow(const std::vector<ValueId>& dim_codes,
                             const std::vector<double>& target_values) {
  assert(dim_codes.size() == dim_names_.size());
  assert(target_values.size() == target_names_.size());
  for (size_t d = 0; d < dim_codes.size(); ++d) {
    assert(dim_codes[d] < dictionaries_[d].size());
    dim_codes_[d].PushBack(dim_codes[d]);
  }
  for (size_t t = 0; t < target_values.size(); ++t) {
    target_values_[t].PushBack(target_values[t]);
  }
  ++num_rows_;
  InvalidateIndex();
}

void Table::ReserveRows(size_t num_rows) {
  for (auto& column : dim_codes_) column.Reserve(num_rows);
  for (auto& column : target_values_) column.Reserve(num_rows);
}

int Table::DimIndex(const std::string& column_name) const {
  for (size_t d = 0; d < dim_names_.size(); ++d) {
    if (dim_names_[d] == column_name) return static_cast<int>(d);
  }
  return -1;
}

int Table::TargetIndex(const std::string& column_name) const {
  for (size_t t = 0; t < target_names_.size(); ++t) {
    if (target_names_[t] == column_name) return static_cast<int>(t);
  }
  return -1;
}

size_t Table::EstimateBytes() const {
  size_t bytes = 0;
  for (const auto& column : dim_codes_) bytes += column.CapacityBytes();
  for (const auto& column : target_values_) bytes += column.CapacityBytes();
  for (const auto& dict : dictionaries_) bytes += dict.EstimateBytes();
  const TableIndex* built =
      index_cell_ != nullptr ? index_cell_->ptr.load(std::memory_order_acquire)
                             : nullptr;
  if (built != nullptr) bytes += built->EstimateBytes();
  return bytes;
}

std::string Table::ToCsv() const {
  std::vector<std::string> header;
  for (const auto& n : dim_names_) header.push_back(n);
  for (const auto& n : target_names_) header.push_back(n);
  std::vector<std::vector<std::string>> rows;
  rows.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    std::vector<std::string> row;
    row.reserve(header.size());
    for (size_t d = 0; d < dim_names_.size(); ++d) row.push_back(DimValue(r, d));
    for (size_t t = 0; t < target_names_.size(); ++t) {
      row.push_back(std::to_string(TargetValue(r, t)));
    }
    rows.push_back(std::move(row));
  }
  return vq::ToCsv(header, rows);
}

Result<Table> Table::FromCsv(const CsvData& csv, const std::string& name,
                             const std::vector<std::string>& dim_columns,
                             const std::vector<std::string>& target_columns) {
  Table table(name);
  std::vector<int> dim_indices;
  for (const auto& column : dim_columns) {
    int idx = csv.ColumnIndex(column);
    if (idx < 0) return Status::NotFound("dimension column '" + column + "' not in CSV");
    dim_indices.push_back(idx);
    table.AddDimColumn(column);
  }
  std::vector<int> target_indices;
  for (const auto& column : target_columns) {
    int idx = csv.ColumnIndex(column);
    if (idx < 0) return Status::NotFound("target column '" + column + "' not in CSV");
    target_indices.push_back(idx);
    table.AddTargetColumn(column);
  }
  std::vector<std::string> dims(dim_columns.size());
  std::vector<double> targets(target_columns.size());
  for (size_t r = 0; r < csv.rows.size(); ++r) {
    const auto& row = csv.rows[r];
    for (size_t d = 0; d < dim_indices.size(); ++d) {
      dims[d] = row[static_cast<size_t>(dim_indices[d])];
    }
    for (size_t t = 0; t < target_indices.size(); ++t) {
      const std::string& cell = row[static_cast<size_t>(target_indices[t])];
      double value = 0.0;
      auto [ptr, ec] = std::from_chars(cell.data(), cell.data() + cell.size(), value);
      if (ec != std::errc() || ptr != cell.data() + cell.size()) {
        return Status::ParseError("row " + std::to_string(r) + ": '" + cell +
                                  "' is not a number");
      }
      targets[t] = value;
    }
    VQ_RETURN_IF_ERROR(table.AppendRow(dims, targets));
  }
  return table;
}

}  // namespace vq
