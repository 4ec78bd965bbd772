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

template <size_t kDims>
void GroupIndexer::InsertColumnsFixed(const ValueId* const* columns,
                                      size_t num_rows, uint32_t* ids,
                                      std::vector<uint32_t>* counts) {
  ValueId codes[kDims + 1] = {};  // +1: the 0-dimension grouping still needs an array
  counts->assign(keys_.size(), 0);
  if (!dense_) {
    for (size_t r = 0; r < num_rows; ++r) {
      for (size_t i = 0; i < kDims; ++i) codes[i] = columns[i][r];
      uint32_t id = InsertSparse(codes);
      if (id == counts->size()) counts->push_back(0);
      ids[r] = id;
      ++(*counts)[id];
    }
    return;
  }
  // Locals for the members the loop reads: keys_ stores uint64_t, which may
  // alias them, so they would otherwise be reloaded after every new group.
  uint64_t radices[kDims + 1] = {};
  std::copy(radices_, radices_ + kDims, radices);
  uint32_t* slots = slots_.data();
  uint32_t* count = counts->data();
  for (size_t r = 0; r < num_rows; ++r) {
    uint64_t slot = 0;
    for (size_t i = 0; i < kDims; ++i) slot = slot * radices[i] + columns[i][r];
    uint32_t id = slots[slot];
    if (id == kEmpty) [[unlikely]] {
      for (size_t i = 0; i < kDims; ++i) codes[i] = columns[i][r];
      id = InsertDense(slot, codes);
      counts->push_back(0);
      count = counts->data();
    }
    ids[r] = id;
    ++count[id];
  }
}

void GroupIndexer::InsertColumns(const ValueId* const* columns, size_t num_rows,
                                 uint32_t* ids, std::vector<uint32_t>* counts) {
  static_assert(kMaxGroupDims == 4, "one instantiation per dimension count");
  switch (num_dims_) {
    case 0: return InsertColumnsFixed<0>(columns, num_rows, ids, counts);
    case 1: return InsertColumnsFixed<1>(columns, num_rows, ids, counts);
    case 2: return InsertColumnsFixed<2>(columns, num_rows, ids, counts);
    case 3: return InsertColumnsFixed<3>(columns, num_rows, ids, counts);
    default: return InsertColumnsFixed<4>(columns, num_rows, ids, counts);
  }
}

}  // namespace vq
