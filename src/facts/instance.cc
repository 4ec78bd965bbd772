#include "facts/instance.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <ranges>

#include "relational/group_by.h"
#include "storage/index.h"
#include "util/fnv.h"
#include "util/simd.h"

namespace vq {

double GlobalAverage(const Table& table, int target_index) {
  std::span<const double> column =
      table.TargetColumn(static_cast<size_t>(target_index));
  double sum = 0.0;
  for (double v : column) sum += v;
  return column.empty() ? 0.0 : sum / static_cast<double>(column.size());
}

double SummaryInstance::BaseError() const {
  // D(empty) is a pure weighted absolute-deviation reduction; it runs once
  // per instance on the serving layer's on-demand path, so it goes through
  // the dispatched kernel rather than a scalar loop.
  return simd::Active().weighted_abs_dev(prior, target.data(), weight.data(),
                                         num_rows);
}

namespace {

/// Bucket hash of a merge key: the FNV-1a hash of the row's codes mixed with
/// the target's bits through the murmur3 finalizer. -0.0 hashes as 0.0, so
/// targets equal under == always share a probe sequence.
uint64_t RowKeyHash(uint64_t codes_hash, double target) {
  double t = target == 0.0 ? 0.0 : target;
  uint64_t bits;
  std::memcpy(&bits, &t, sizeof(bits));
  uint64_t h = codes_hash ^ (bits * 0x9E3779B97F4A7C15ULL);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return h;
}

/// The (codes, target) merge every instance build runs: visits `rows` in
/// order and reports each row either as the first of a new group
/// (on_first(row)) or as a repeat of group g, whose first row is `first`
/// (on_repeat(g, first)). Groups follow first-row order. A flat
/// open-addressing table (linear probing, load <= 1/2) of group indices
/// places rows by hash; a row joins a group only when its target and every
/// code in `columns` equal the group's first row's.
template <typename Rows, typename OnFirst, typename OnRepeat>
void MergeRows(std::span<const std::span<const ValueId>> columns,
               std::span<const double> target_column, const Rows& rows,
               OnFirst on_first, OnRepeat on_repeat) {
  if (rows.size() == 0) return;
  constexpr uint32_t kEmpty = UINT32_MAX;
  size_t capacity = std::bit_ceil(2 * static_cast<size_t>(rows.size()));
  int shift = 64 - std::countr_zero(capacity);
  std::vector<uint32_t> buckets(capacity, kEmpty);
  std::vector<uint64_t> group_hash;
  std::vector<uint32_t> group_first;
  for (uint32_t r : rows) {
    Fnv64 fnv;  // FNV-1a over codes (util/fnv.h)
    for (std::span<const ValueId> column : columns) {
      fnv.MixWord(static_cast<uint64_t>(column[r]) + 1);
    }
    double v = target_column[r];
    uint64_t h = RowKeyHash(fnv.state, v);
    for (size_t b = h >> shift;; b = (b + 1) & (capacity - 1)) {
      uint32_t g = buckets[b];
      if (g == kEmpty) {
        buckets[b] = static_cast<uint32_t>(group_first.size());
        group_hash.push_back(h);
        group_first.push_back(r);
        on_first(r);
        break;
      }
      uint32_t first = group_first[g];
      if (group_hash[g] == h && target_column[first] == v &&
          std::all_of(columns.begin(), columns.end(),
                      [r, first](std::span<const ValueId> column) {
                        return column[r] == column[first];
                      })) {
        on_repeat(g, first);
        break;
      }
    }
  }
}

Status CheckTarget(const Table& table, int target_index) {
  if (target_index < 0 || static_cast<size_t>(target_index) >= table.NumTargets()) {
    return Status::InvalidArgument("target index " + std::to_string(target_index) +
                                   " out of range");
  }
  return Status::OK();
}

/// Everything an instance takes from the schema alone: the target's name
/// and unit and the free dimensions. Fails on a bad target, then on an
/// over-wide free dimension -- the order BuildInstance reports them in.
Result<SummaryInstance> InstanceSchema(const Table& table,
                                       const PredicateSet& query_predicates,
                                       int target_index) {
  VQ_RETURN_IF_ERROR(CheckTarget(table, target_index));
  SummaryInstance inst;
  inst.target_name = table.TargetName(static_cast<size_t>(target_index));
  inst.target_unit = table.TargetUnit(static_cast<size_t>(target_index));

  // Fact-eligible dimensions: those not fixed by the query.
  for (size_t d = 0; d < table.NumDims(); ++d) {
    bool restricted = false;
    for (const auto& p : query_predicates) {
      if (p.dim == static_cast<int>(d)) {
        restricted = true;
        break;
      }
    }
    if (!restricted) {
      if (table.dict(d).size() > kMaxPackableCode) {
        return Status::Unsupported("dimension '" + table.DimName(d) +
                                   "' exceeds the packable cardinality limit");
      }
      inst.dims.push_back(static_cast<int>(d));
      inst.dim_names.push_back(table.DimName(d));
      inst.dim_cardinalities.push_back(table.dict(d).size());
    }
  }
  return inst;
}

/// The prior `options` asks for. `global_average` is only called for
/// kGlobalAverage; `subset_sum` (the subset's targets summed in ascending
/// row order) is only read for kSubsetAverage.
template <typename GlobalAverageFn>
double Prior(const InstanceOptions& options, GlobalAverageFn global_average,
             double subset_sum, size_t subset_rows) {
  switch (options.prior_kind) {
    case PriorKind::kGlobalAverage:
      return global_average();
    case PriorKind::kSubsetAverage:
      return subset_sum / static_cast<double>(subset_rows);
    case PriorKind::kZero:
      return 0.0;
    case PriorKind::kConstant:
      return options.prior_value;
  }
  return 0.0;
}

std::vector<std::span<const ValueId>> DimColumns(const Table& table,
                                                 const std::vector<int>& dims) {
  std::vector<std::span<const ValueId>> columns;
  columns.reserve(dims.size());
  for (int d : dims) columns.push_back(table.DimColumn(static_cast<size_t>(d)));
  return columns;
}

/// Makes table rows `rows`, in order, the instance's rows: sets num_rows and
/// gathers each of `columns` (the free dimensions') into the column-major
/// codes and the target column into target. Leaves weight to the caller.
void GatherRows(std::span<const std::span<const ValueId>> columns,
                std::span<const double> target_column,
                std::span<const uint32_t> rows, SummaryInstance* inst) {
  size_t n = rows.size();
  inst->num_rows = n;
  inst->codes.resize(columns.size() * n);
  ValueId* codes = inst->codes.data();
  for (std::span<const ValueId> column : columns) {
    for (size_t i = 0; i < n; ++i) codes[i] = column[rows[i]];
    codes += n;
  }
  inst->target.resize(n);
  for (size_t i = 0; i < n; ++i) inst->target[i] = target_column[rows[i]];
}

}  // namespace

Result<SummaryInstance> BuildInstance(const Table& table,
                                      const PredicateSet& query_predicates,
                                      int target_index,
                                      const InstanceOptions& options) {
  // Validate before the O(rows) filter scan so bad arguments fail cheaply.
  VQ_RETURN_IF_ERROR(CheckTarget(table, target_index));
  return BuildInstanceFromRows(table, query_predicates, target_index,
                               FilterRows(table, query_predicates), options);
}

Result<SummaryInstance> BuildInstanceFromRows(const Table& table,
                                              const PredicateSet& query_predicates,
                                              int target_index,
                                              const std::vector<uint32_t>& rows,
                                              const InstanceOptions& options) {
  VQ_ASSIGN_OR_RETURN(SummaryInstance inst,
                      InstanceSchema(table, query_predicates, target_index));
  if (rows.empty()) {
    return Status::NotFound("query predicates select no rows");
  }

  std::span<const double> target_column =
      table.TargetColumn(static_cast<size_t>(target_index));
  double subset_sum = 0.0;
  if (options.prior_kind == PriorKind::kSubsetAverage) {
    for (uint32_t r : rows) subset_sum += target_column[r];
  }
  inst.prior = Prior(
      options, [&] { return GlobalAverage(table, target_index); }, subset_sum,
      rows.size());

  inst.total_weight = static_cast<double>(rows.size());
  std::vector<std::span<const ValueId>> columns = DimColumns(table, inst.dims);
  if (!options.merge_duplicates) {
    GatherRows(columns, target_column, rows, &inst);
    inst.weight.assign(rows.size(), 1.0);
    return inst;
  }

  // Merge rows with identical (codes, target) into weighted rows, in the
  // order each key first appears, then gather the first rows' columns.
  std::vector<uint32_t> first_rows;
  MergeRows(
      columns, target_column, rows,
      [&](uint32_t r) {
        first_rows.push_back(r);
        inst.weight.push_back(1.0);
      },
      [&](uint32_t g, uint32_t) { inst.weight[g] += 1.0; });
  GatherRows(columns, target_column, first_rows, &inst);
  return inst;
}

TableMerge::TableMerge(const Table& table, int target_index)
    : table_(&table), target_index_(target_index) {
  if (!CheckTarget(table, target_index).ok()) return;
  std::vector<int> all_dims(table.NumDims());
  std::iota(all_dims.begin(), all_dims.end(), 0);
  multiplicity_.assign(table.NumRows(), 0);
  MergeRows(
      DimColumns(table, all_dims), table.TargetColumn(static_cast<size_t>(target_index)),
      std::views::iota(uint32_t{0}, static_cast<uint32_t>(table.NumRows())),
      [this](uint32_t r) { multiplicity_[r] = 1; },
      [this](uint32_t, uint32_t first) { ++multiplicity_[first]; });
  global_average_ = GlobalAverage(table, target_index);
}

Result<SummaryInstance> TableMerge::Slice(const PredicateSet& query_predicates,
                                          const InstanceOptions& options) const {
  const Table& table = *table_;
  VQ_ASSIGN_OR_RETURN(SummaryInstance inst,
                      InstanceSchema(table, query_predicates, target_index_));
  std::span<const double> target_column =
      table.TargetColumn(static_cast<size_t>(target_index_));
  std::vector<std::span<const ValueId>> columns = DimColumns(table, inst.dims);

  // The instance's source rows, collected before any column is read: every
  // visited row is written, and kept (the count advances) when it is
  // matched unmerged or starts a group.
  size_t max_rows = table.NumRows();
  const TableIndex* index = nullptr;
  size_t rarest = 0;
  if (!query_predicates.empty()) {
    index = &table.index();
    for (size_t i = 1; i < query_predicates.size(); ++i) {
      const EqPredicate& p = query_predicates[i];
      const EqPredicate& best = query_predicates[rarest];
      if (index->Count(static_cast<size_t>(p.dim), p.value) <
          index->Count(static_cast<size_t>(best.dim), best.value)) {
        rarest = i;
      }
    }
    max_rows = index->Count(static_cast<size_t>(query_predicates[rarest].dim),
                            query_predicates[rarest].value);
  }
  std::unique_ptr<uint32_t[]> rows = std::make_unique_for_overwrite<uint32_t[]>(max_rows);
  size_t num_rows = 0;
  size_t matched = 0;
  double subset_sum = 0.0;
  bool subset_average = options.prior_kind == PriorKind::kSubsetAverage;
  bool merge = options.merge_duplicates;
  auto visit = [&](uint32_t r) {
    ++matched;
    if (subset_average) subset_sum += target_column[r];
    rows[num_rows] = r;
    num_rows += !merge || multiplicity_[r] != 0;
  };

  if (index == nullptr) {
    for (uint32_t r = 0; r < table.NumRows(); ++r) visit(r);
  } else {
    // Walk the rarest predicate's postings in ascending row order and check
    // the rest against their columns.
    std::vector<std::pair<std::span<const ValueId>, ValueId>> checks;
    for (size_t i = 0; i < query_predicates.size(); ++i) {
      if (i == rarest) continue;
      const EqPredicate& p = query_predicates[i];
      checks.emplace_back(table.DimColumn(static_cast<size_t>(p.dim)), p.value);
    }
    const EqPredicate& p = query_predicates[rarest];
    for (uint32_t r : index->Postings(static_cast<size_t>(p.dim), p.value)) {
      bool match = true;
      for (const auto& [column, value] : checks) {
        if (column[r] != value) {
          match = false;
          break;
        }
      }
      if (match) visit(r);
    }
  }

  if (matched == 0) {
    return Status::NotFound("query predicates select no rows");
  }
  std::span<const uint32_t> kept(rows.get(), num_rows);
  GatherRows(columns, target_column, kept, &inst);
  if (merge) {
    inst.weight.resize(num_rows);
    for (size_t i = 0; i < num_rows; ++i) inst.weight[i] = multiplicity_[kept[i]];
  } else {
    inst.weight.assign(num_rows, 1.0);
  }
  inst.total_weight = static_cast<double>(matched);
  inst.prior = Prior(
      options, [this] { return global_average_; }, subset_sum, matched);
  return inst;
}

}  // namespace vq
