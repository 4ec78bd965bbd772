#include "facts/catalog.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "relational/group_by.h"

namespace vq {

namespace {

/// n choose k for the small arguments Build needs (n <= 31, k <= 4); exact,
/// since every intermediate c * (n - i) is divisible by i + 1.
uint64_t Binomial(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  uint64_t c = 1;
  for (uint64_t i = 0; i < k; ++i) c = c * (n - i) / (i + 1);
  return c;
}

/// sum + x, except that a NaN sum stays as it is. Only the NaN's sign and
/// payload are at stake: + commutes, and when both operands are NaN an x86
/// addition returns its first, so without this the bits would depend on
/// which operand order the compiler emits (a sum held in a register comes
/// first, one added to from memory second). With it, a sum keeps the first
/// NaN it turns into, whatever the order.
inline double AddToSum(double sum, double x) { return std::isnan(sum) ? sum : sum + x; }

}  // namespace

Result<FactCatalog> FactCatalog::Build(const SummaryInstance& instance,
                                       int max_fact_dims, int min_fact_dims) {
  if (max_fact_dims < 0 || static_cast<size_t>(max_fact_dims) > kMaxGroupDims) {
    return Status::InvalidArgument("max_fact_dims must be in [0, " +
                                   std::to_string(kMaxGroupDims) + "]");
  }
  if (min_fact_dims < 0 || min_fact_dims > max_fact_dims) {
    return Status::InvalidArgument("min_fact_dims must be in [0, max_fact_dims]");
  }
  size_t num_dims = instance.dims.size();
  if (num_dims > 31) {
    return Status::Unsupported("more than 31 fact-eligible dimensions");
  }
  if (instance.dim_cardinalities.size() != num_dims) {
    return Status::InvalidArgument("instance lacks a cardinality per dimension");
  }
  // Every group partitions the rows, so the CSR tables hold exactly
  // num_groups * num_rows entries behind uint32 offsets: reject what they
  // cannot address before allocating a single scope join.
  size_t num_rows = instance.num_rows;
  uint64_t num_groups = 0;
  for (int k = min_fact_dims; k <= max_fact_dims; ++k) {
    num_groups += Binomial(num_dims, static_cast<uint64_t>(k));
  }
  if (num_rows > 0 && num_groups > UINT32_MAX / num_rows) {
    return Status::Unsupported(
        "scope join of " + std::to_string(num_groups) + " fact groups x " +
        std::to_string(num_rows) + " rows exceeds 2^32 entries");
  }

  FactCatalog catalog;
  catalog.num_rows_ = num_rows;
  catalog.groups_.reserve(num_groups);
  // Group g's scope entries fill [g * num_rows, (g + 1) * num_rows) of the
  // CSR table; every entry is written exactly once below.
  size_t num_entries = num_groups * num_rows;
  catalog.scope_rows_ = std::make_unique_for_overwrite<uint32_t[]>(num_entries);
  uint32_t* rows = catalog.scope_rows_.get();
  std::vector<uint32_t>& offsets = catalog.scope_row_offsets_;
  offsets.push_back(0);
  // Pass 1's row -> group-local fact id, reused by every group.
  std::unique_ptr<uint32_t[]> local_ids = std::make_unique_for_overwrite<uint32_t[]>(num_rows);
  std::vector<uint32_t> cursor;
  const double* target = instance.target.data();
  const double* weight = instance.weight.data();
  GroupIndexer indexer;
  uint32_t num_masks = 1u << num_dims;
  for (uint32_t mask = 0; mask < num_masks; ++mask) {
    if (std::popcount(mask) > max_fact_dims || std::popcount(mask) < min_fact_dims) {
      continue;
    }
    uint32_t group_index = static_cast<uint32_t>(catalog.groups_.size());
    FactGroup group;
    group.mask = mask;
    size_t radices[kMaxGroupDims] = {};
    const ValueId* group_columns[kMaxGroupDims] = {};
    for (size_t d = 0; d < num_dims; ++d) {
      if (mask & (1u << d)) {
        radices[group.dim_positions.size()] = instance.dim_cardinalities[d];
        group_columns[group.dim_positions.size()] = instance.codes.data() + d * num_rows;
        group.dim_positions.push_back(static_cast<int>(d));
      }
    }
    group.first_fact = static_cast<FactId>(catalog.facts_.size());

    if (mask == 0) {
      // The overall group: one fact over every row (none on an empty
      // instance), keyed PackGroupKey({}) = 0. Its list is 0..n-1, summed in
      // the same pass.
      uint32_t begin = offsets.back();
      double scope_weight = 0.0;
      double sum = 0.0;
      for (size_t r = 0; r < num_rows; ++r) {
        rows[begin + r] = static_cast<uint32_t>(r);
        scope_weight += weight[r];
        sum = AddToSum(sum, target[r] * weight[r]);
      }
      if (num_rows > 0) {
        group.num_facts = 1;
        catalog.facts_.push_back(Fact{group_index, 0, sum, scope_weight});
        offsets.push_back(begin + static_cast<uint32_t>(num_rows));
      }
    } else {
      // Pass 1: row -> group-local fact id and rows per fact. Integer work
      // only.
      indexer.Reset({radices, group.dim_positions.size()});
      indexer.InsertColumns(group_columns, num_rows, local_ids.get(), &cursor);
      group.num_facts = static_cast<uint32_t>(indexer.size());
      for (uint32_t i = 0; i < group.num_facts; ++i) {
        catalog.facts_.push_back(Fact{group_index, indexer.key(i), 0.0, 0.0});
        uint32_t begin = offsets.back();
        offsets.push_back(begin + cursor[i]);
        cursor[i] = begin;
      }
      // Pass 2: counting-sort the row ids into the CSR lists (rows arrive
      // ascending, so every list is ascending) and add each row's weight
      // and weighted target to its fact, the weighted sum held in `value`
      // until the division below. Each fact receives its rows in ascending
      // order -- the order a row-by-row scan adds them in -- so the sums
      // keep their exact bits.
      Fact* facts = catalog.facts_.data() + group.first_fact;
      for (size_t r = 0; r < num_rows; ++r) {
        uint32_t id = local_ids[r];
        rows[cursor[id]++] = static_cast<uint32_t>(r);
        facts[id].scope_weight += weight[r];
        facts[id].value = AddToSum(facts[id].value, target[r] * weight[r]);
      }
    }
    for (Fact& fact : std::span(catalog.facts_).subspan(group.first_fact)) {
      fact.value = fact.scope_weight > 0.0 ? fact.value / fact.scope_weight : 0.0;
    }
    catalog.groups_.push_back(std::move(group));
  }

  assert(catalog.groups_.size() == num_groups);
  // The bitsets are num_facts * num_rows BITS -- quadratic when facts
  // approach the row count -- so they are capped; the Evaluator falls back
  // to its reference paths when HasScopeBits() is false.
  catalog.scope_words_ = (num_rows + 63) / 64;
  catalog.has_scope_bits_ =
      catalog.facts_.size() * catalog.scope_words_ <= kMaxScopeBitsWords;
  catalog.lazy_ = std::make_unique<LazyTables>();
  return catalog;
}

const uint64_t* FactCatalog::ScopeBitsTable() const {
  assert(has_scope_bits_);
  std::call_once(lazy_->bits_once, [this] {
    std::vector<uint64_t>& bits = lazy_->bits;
    bits.assign(facts_.size() * scope_words_, 0);
    for (FactId id = 0; id < facts_.size(); ++id) {
      uint64_t* fact_bits = bits.data() + id * scope_words_;
      for (uint32_t r : ScopeRows(id)) fact_bits[r >> 6] |= uint64_t{1} << (r & 63);
    }
  });
  return lazy_->bits.data();
}

const FactId* FactCatalog::BuildRowFactTable() const {
  std::call_once(lazy_->row_fact_once, [this] {
    // Every group partitions the rows, so each entry is written exactly once.
    lazy_->row_fact = std::make_unique_for_overwrite<FactId[]>(groups_.size() * num_rows_);
    for (FactId id = 0; id < facts_.size(); ++id) {
      FactId* join = lazy_->row_fact.get() + size_t{facts_[id].group} * num_rows_;
      for (uint32_t r : ScopeRows(id)) join[r] = id;
    }
    lazy_->row_fact_built.store(lazy_->row_fact.get(), std::memory_order_release);
  });
  return lazy_->row_fact.get();
}

int FactCatalog::GroupIndexForMask(uint32_t mask) const {
  // Build enumerates groups in ascending mask order.
  auto it = std::ranges::lower_bound(groups_, mask, {}, &FactGroup::mask);
  return it != groups_.end() && it->mask == mask
             ? static_cast<int>(it - groups_.begin())
             : -1;
}

std::vector<std::pair<std::string, std::string>> FactCatalog::DescribeScope(
    const Table& table, const SummaryInstance& instance, FactId id) const {
  const Fact& fact = facts_[id];
  const FactGroup& group = groups_[fact.group];
  std::vector<std::pair<std::string, std::string>> out;
  // Unpack 16-bit fields in reverse of packing order.
  uint64_t packed = fact.packed;
  std::vector<ValueId> values(group.dim_positions.size());
  for (size_t i = group.dim_positions.size(); i-- > 0;) {
    values[i] = static_cast<ValueId>((packed & 0xFFFF) - 1);
    packed >>= 16;
  }
  for (size_t i = 0; i < group.dim_positions.size(); ++i) {
    int dim_pos = group.dim_positions[i];
    int table_dim = instance.dims[static_cast<size_t>(dim_pos)];
    out.emplace_back(table.DimName(static_cast<size_t>(table_dim)),
                     table.dict(static_cast<size_t>(table_dim)).Lookup(values[i]));
  }
  return out;
}

}  // namespace vq
