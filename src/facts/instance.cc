#include "facts/instance.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "relational/group_by.h"
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

}  // namespace

Result<SummaryInstance> BuildInstance(const Table& table,
                                      const PredicateSet& query_predicates,
                                      int target_index,
                                      const InstanceOptions& options) {
  // Validate before the O(rows) filter scan so bad arguments fail cheaply.
  if (target_index < 0 || static_cast<size_t>(target_index) >= table.NumTargets()) {
    return Status::InvalidArgument("target index " + std::to_string(target_index) +
                                   " out of range");
  }
  return BuildInstanceFromRows(table, query_predicates, target_index,
                               FilterRows(table, query_predicates), options);
}

Result<SummaryInstance> BuildInstanceFromRows(const Table& table,
                                              const PredicateSet& query_predicates,
                                              int target_index,
                                              const std::vector<uint32_t>& rows,
                                              const InstanceOptions& options) {
  if (target_index < 0 || static_cast<size_t>(target_index) >= table.NumTargets()) {
    return Status::InvalidArgument("target index " + std::to_string(target_index) +
                                   " out of range");
  }
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

  if (rows.empty()) {
    return Status::NotFound("query predicates select no rows");
  }

  std::span<const double> target_column =
      table.TargetColumn(static_cast<size_t>(target_index));

  // Prior.
  switch (options.prior_kind) {
    case PriorKind::kGlobalAverage:
      inst.prior = GlobalAverage(table, target_index);
      break;
    case PriorKind::kSubsetAverage: {
      double sum = 0.0;
      for (uint32_t r : rows) sum += target_column[r];
      inst.prior = sum / static_cast<double>(rows.size());
      break;
    }
    case PriorKind::kZero:
      inst.prior = 0.0;
      break;
    case PriorKind::kConstant:
      inst.prior = options.prior_value;
      break;
  }

  size_t num_dims = inst.dims.size();
  inst.total_weight = static_cast<double>(rows.size());

  if (!options.merge_duplicates) {
    inst.num_rows = rows.size();
    inst.codes.resize(rows.size() * num_dims);
    inst.target.resize(rows.size());
    inst.weight.assign(rows.size(), 1.0);
    for (size_t i = 0; i < rows.size(); ++i) {
      for (size_t d = 0; d < num_dims; ++d) {
        inst.codes[i * num_dims + d] =
            table.DimCode(rows[i], static_cast<size_t>(inst.dims[d]));
      }
      inst.target[i] = target_column[rows[i]];
    }
    return inst;
  }

  // Merge rows with identical (codes, target) into weighted rows, in the
  // order each key first appears, through a flat open-addressing table
  // (linear probing, load <= 1/2) of merged-row indices. The hash only picks
  // the bucket: a row merges only when its target and every code are equal.
  constexpr uint32_t kEmpty = UINT32_MAX;
  size_t capacity = std::bit_ceil(2 * rows.size());
  int shift = 64 - std::countr_zero(capacity);
  std::vector<uint32_t> buckets(capacity, kEmpty);
  std::vector<uint64_t> merged_hash;  // per merged row
  std::vector<std::span<const ValueId>> columns(num_dims);
  for (size_t d = 0; d < num_dims; ++d) {
    columns[d] = table.DimColumn(static_cast<size_t>(inst.dims[d]));
  }
  std::vector<ValueId> row_codes(num_dims);
  for (uint32_t r : rows) {
    Fnv64 fnv;  // FNV-1a over codes (util/fnv.h)
    for (size_t d = 0; d < num_dims; ++d) {
      row_codes[d] = columns[d][r];
      fnv.MixWord(static_cast<uint64_t>(row_codes[d]) + 1);
    }
    double v = target_column[r];
    uint64_t h = RowKeyHash(fnv.state, v);
    for (size_t b = h >> shift;; b = (b + 1) & (capacity - 1)) {
      uint32_t m = buckets[b];
      if (m == kEmpty) {
        buckets[b] = static_cast<uint32_t>(inst.num_rows);
        merged_hash.push_back(h);
        inst.codes.insert(inst.codes.end(), row_codes.begin(), row_codes.end());
        inst.target.push_back(v);
        inst.weight.push_back(1.0);
        ++inst.num_rows;
        break;
      }
      if (merged_hash[m] == h && inst.target[m] == v &&
          std::equal(row_codes.begin(), row_codes.end(),
                     inst.codes.begin() + static_cast<ptrdiff_t>(m * num_dims))) {
        inst.weight[m] += 1.0;
        break;
      }
    }
  }
  return inst;
}

}  // namespace vq
