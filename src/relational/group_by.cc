#include "relational/group_by.h"

#include <algorithm>
#include <cassert>

namespace vq {

uint64_t PackGroupKey(std::span<const ValueId> codes) {
  assert(codes.size() <= kMaxGroupDims);
  uint64_t key = 0;
  for (ValueId code : codes) {
    assert(code <= kMaxPackableCode);
    key = (key << 16) | static_cast<uint64_t>(code + 1);  // +1 distinguishes width
  }
  return key;
}

uint64_t RadixProduct(std::span<const size_t> radices) {
  uint64_t product = 1;
  for (size_t radix : radices) {
    if (__builtin_mul_overflow(product, static_cast<uint64_t>(radix), &product)) {
      return UINT64_MAX;
    }
  }
  return product;
}

void GroupIndexer::Reset(std::span<const size_t> radices) {
  assert(radices.size() <= kMaxGroupDims);
  num_dims_ = radices.size();
  std::copy(radices.begin(), radices.end(), radices_);
  for (uint32_t slot : used_slots_) slots_[slot] = kEmpty;
  used_slots_.clear();
  keys_.clear();
  sparse_.clear();
  uint64_t product = RadixProduct(radices);
  dense_ = product <= kMaxDenseSlots;
  if (dense_ && slots_.size() < product) slots_.resize(product, kEmpty);
}

uint32_t GroupIndexer::InsertSparse(const ValueId* codes) {
  uint64_t key = PackGroupKey({codes, num_dims_});
  auto [it, inserted] = sparse_.try_emplace(key, static_cast<uint32_t>(keys_.size()));
  if (inserted) keys_.push_back(key);
  return it->second;
}

namespace {

/// Resets `indexer` to the dictionaries of `dims` and calls
/// visit(i, group id) for each row_ids[i] in order.
template <typename Visit>
void ForEachGroupedRow(const Table& table, std::span<const uint32_t> row_ids,
                       const std::vector<int>& dims, GroupIndexer* indexer,
                       Visit visit) {
  assert(dims.size() <= kMaxGroupDims);
  size_t radices[kMaxGroupDims];
  std::span<const ValueId> columns[kMaxGroupDims];
  for (size_t d = 0; d < dims.size(); ++d) {
    radices[d] = table.dict(static_cast<size_t>(dims[d])).size();
    columns[d] = table.DimColumn(static_cast<size_t>(dims[d]));
  }
  indexer->Reset({radices, dims.size()});
  ValueId codes[kMaxGroupDims];
  for (size_t i = 0; i < row_ids.size(); ++i) {
    for (size_t d = 0; d < dims.size(); ++d) codes[d] = columns[d][row_ids[i]];
    visit(i, indexer->Insert(codes));
  }
}

}  // namespace

double GroupByResult::AverageOf(uint64_t key) const {
  auto it = index.find(key);
  if (it == index.end()) return 0.0;
  const AggregateGroup& g = groups[it->second];
  return g.count > 0.0 ? g.sum / g.count : 0.0;
}

GroupByResult GroupBy(const Table& table, std::span<const uint32_t> row_ids,
                      const std::vector<int>& dims, std::span<const double> values,
                      std::span<const double> weights) {
  GroupByResult out;
  GroupIndexer indexer;
  ForEachGroupedRow(table, row_ids, dims, &indexer, [&](size_t i, uint32_t id) {
    if (id == out.groups.size()) out.groups.push_back(AggregateGroup{indexer.key(id)});
    AggregateGroup& group = out.groups[id];
    double w = weights.empty() ? 1.0 : weights[i];
    group.count += w;
    if (!values.empty()) group.sum += values[i] * w;
  });
  out.index.reserve(out.groups.size());
  for (uint32_t id = 0; id < out.groups.size(); ++id) {
    out.index.emplace(out.groups[id].key, id);
  }
  return out;
}

size_t CountDistinctCombos(const Table& table, std::span<const uint32_t> row_ids,
                           const std::vector<int>& dims) {
  GroupIndexer indexer;
  ForEachGroupedRow(table, row_ids, dims, &indexer, [](size_t, uint32_t) {});
  return indexer.size();
}

}  // namespace vq
