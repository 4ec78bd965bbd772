#include "facts/catalog.h"

#include <bit>
#include <cassert>
#include <cmath>

#include "relational/group_by.h"

namespace vq {

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

  FactCatalog catalog;
  GroupIndexer indexer;
  uint32_t num_masks = 1u << num_dims;
  for (uint32_t mask = 0; mask < num_masks; ++mask) {
    if (std::popcount(mask) > max_fact_dims || std::popcount(mask) < min_fact_dims) {
      continue;
    }
    FactGroup group;
    group.mask = mask;
    size_t radices[kMaxGroupDims];
    for (size_t d = 0; d < num_dims; ++d) {
      if (mask & (1u << d)) {
        radices[group.dim_positions.size()] = instance.dim_cardinalities[d];
        group.dim_positions.push_back(static_cast<int>(d));
      }
    }
    group.first_fact = static_cast<FactId>(catalog.facts_.size());
    group.row_fact.resize(instance.num_rows, kNoFact);

    // One pass: assign each row to its value-combination fact, creating
    // facts on first sight and accumulating sum/weight for typical values.
    size_t group_dims = group.dim_positions.size();
    indexer.Reset({radices, group_dims});
    std::vector<double> sums;
    ValueId codes[kMaxGroupDims];
    for (size_t r = 0; r < instance.num_rows; ++r) {
      for (size_t i = 0; i < group_dims; ++i) {
        codes[i] = instance.CodeAt(r, static_cast<size_t>(group.dim_positions[i]));
      }
      uint32_t local = indexer.Insert(codes);
      if (local == sums.size()) {
        Fact fact;
        fact.group = static_cast<uint32_t>(catalog.groups_.size());
        fact.packed = indexer.key(local);
        catalog.facts_.push_back(fact);
        sums.push_back(0.0);
      }
      FactId id = group.first_fact + local;
      group.row_fact[r] = id;
      double w = instance.weight[r];
      catalog.facts_[id].scope_weight += w;
      sums[local] += instance.target[r] * w;
    }
    group.num_facts = static_cast<uint32_t>(catalog.facts_.size()) - group.first_fact;
    for (uint32_t i = 0; i < group.num_facts; ++i) {
      Fact& fact = catalog.facts_[group.first_fact + i];
      fact.value = fact.scope_weight > 0.0 ? sums[i] / fact.scope_weight : 0.0;
    }
    catalog.mask_to_group_.emplace(mask, static_cast<uint32_t>(catalog.groups_.size()));
    catalog.groups_.push_back(std::move(group));
  }

  // Materialize per-fact row membership from the scope joins: one flat
  // bitset (bit r set iff the row is in scope) plus CSR row lists. Every
  // group partitions the rows, so the CSR arrays hold exactly num_groups *
  // num_rows entries and per-fact popcounts sum to num_rows within a group.
  size_t num_facts = catalog.facts_.size();
  size_t words = (instance.num_rows + 63) / 64;
  catalog.scope_words_ = words;
  // The flat bitset is num_facts * num_rows BITS -- quadratic when facts
  // approach the row count -- so it is capped; the Evaluator falls back to
  // its reference paths when HasScopeBits() is false.
  catalog.has_scope_bits_ = num_facts * words <= kMaxScopeBitsWords;
  if (catalog.has_scope_bits_) catalog.scope_bits_.assign(num_facts * words, 0);
  catalog.scope_row_offsets_.assign(num_facts + 2, 0);
  for (const FactGroup& group : catalog.groups_) {
    for (size_t r = 0; r < instance.num_rows; ++r) {
      ++catalog.scope_row_offsets_[group.row_fact[r] + 2];
    }
  }
  for (size_t i = 2; i < catalog.scope_row_offsets_.size(); ++i) {
    catalog.scope_row_offsets_[i] += catalog.scope_row_offsets_[i - 1];
  }
  catalog.scope_rows_.resize(catalog.groups_.size() * instance.num_rows);
  catalog.scope_devs_.resize(catalog.scope_rows_.size());
  catalog.scope_weights_.resize(catalog.scope_rows_.size());
  catalog.scope_prior_devs_.resize(catalog.scope_rows_.size());
  // scope_row_offsets_[id + 1] doubles as the fill cursor of fact id during
  // this pass; afterwards it has advanced to the fact's end offset, which is
  // exactly what ScopeRows(id) expects. The SoA block-delta tables are
  // filled in the same pass (typical values are final by this point).
  for (const FactGroup& group : catalog.groups_) {
    for (size_t r = 0; r < instance.num_rows; ++r) {
      FactId id = group.row_fact[r];
      uint32_t pos = catalog.scope_row_offsets_[id + 1]++;
      catalog.scope_rows_[pos] = static_cast<uint32_t>(r);
      catalog.scope_devs_[pos] =
          std::fabs(catalog.facts_[id].value - instance.target[r]);
      catalog.scope_weights_[pos] = instance.weight[r];
      catalog.scope_prior_devs_[pos] = std::fabs(instance.prior - instance.target[r]);
      if (catalog.has_scope_bits_) {
        catalog.scope_bits_[id * words + (r >> 6)] |= uint64_t{1} << (r & 63);
      }
    }
  }
  catalog.scope_row_offsets_.pop_back();
  return catalog;
}

int FactCatalog::GroupIndexForMask(uint32_t mask) const {
  auto it = mask_to_group_.find(mask);
  return it == mask_to_group_.end() ? -1 : static_cast<int>(it->second);
}

bool FactCatalog::RowInScope(size_t row, FactId id) const {
  const Fact& fact = facts_[id];
  return groups_[fact.group].row_fact[row] == id;
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
