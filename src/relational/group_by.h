// Grouping over dimension subsets (the Gamma operator of Algorithms 1-3):
// the packed group keys and the grouping indexer every grouping pass of the
// batch step shares (fact enumeration, query enumeration).
#ifndef VQ_RELATIONAL_GROUP_BY_H_
#define VQ_RELATIONAL_GROUP_BY_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "storage/table.h"

namespace vq {

/// Packs up to four dimension codes (each < 2^16) into one 64-bit key.
/// The fact-catalog build enforces these limits; voice-query dimensions are
/// small categorical domains.
inline constexpr size_t kMaxGroupDims = 4;
inline constexpr ValueId kMaxPackableCode = (1u << 16) - 1;

/// Packs `codes` (one per grouped dimension, in dimension order) into a key.
uint64_t PackGroupKey(std::span<const ValueId> codes);

/// Product of `radices`, saturating at UINT64_MAX instead of wrapping.
uint64_t RadixProduct(std::span<const size_t> radices);

/// \brief Assigns dense group ids, in first-seen order, to code combinations
/// over up to kMaxGroupDims dimensions.
///
/// Codes map to a mixed-radix slot ((c0*r1 + c1)*r2 + c2)... where r_i is
/// dimension i's dictionary cardinality. When the radix product is at most
/// kMaxDenseSlots, the slot indexes a flat uint32 array directly: no hashing,
/// no per-group allocation. Above it, the packed key (PackGroupKey) goes to a
/// std::unordered_map instead. Both paths number groups in the order
/// their first row arrives, so ids are independent of the path taken. One
/// indexer is meant to be reused across many groupings (Reset clears only
/// the slots the previous grouping touched).
class GroupIndexer {
 public:
  /// Largest radix product served by the dense slot array (256 KiB of
  /// uint32 slots).
  static constexpr uint64_t kMaxDenseSlots = uint64_t{1} << 16;

  /// Starts a grouping over dimensions with the given radices (at most
  /// kMaxGroupDims); forgets every group of the previous grouping.
  void Reset(std::span<const size_t> radices);

  /// Group id of `codes` (one per dimension, code i < radix i); a combination
  /// seen for the first time gets id size() - 1 after the call.
  uint32_t Insert(const ValueId* codes) {
    if (!dense_) return InsertSparse(codes);
    uint64_t slot = 0;
    for (size_t i = 0; i < num_dims_; ++i) slot = slot * radices_[i] + codes[i];
    return InsertDense(slot, codes);
  }

  /// Column-at-a-time Insert: ids[r] = Insert(codes of row r) for rows
  /// [0, num_rows), where columns[i][r] is row r's code in dimension i (one
  /// column per dimension of the last Reset, in dimension order). Also
  /// leaves in `counts` the number of these rows per group id (one entry
  /// per id, size() entries). The loop is instantiated per dimension count,
  /// so the slot arithmetic unrolls; ids and first-seen order are exactly
  /// those of row-by-row Insert.
  void InsertColumns(const ValueId* const* columns, size_t num_rows, uint32_t* ids,
                     std::vector<uint32_t>* counts);

  /// Number of groups seen since Reset.
  size_t size() const { return keys_.size(); }
  /// Packed key (PackGroupKey) of group `id`.
  uint64_t key(uint32_t id) const { return keys_[id]; }
  /// True when the current grouping uses the dense slot array.
  bool dense() const { return dense_; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  uint32_t InsertDense(uint64_t slot, const ValueId* codes) {
    uint32_t& id = slots_[slot];
    if (id == kEmpty) {
      id = static_cast<uint32_t>(keys_.size());
      keys_.push_back(PackGroupKey({codes, num_dims_}));
      used_slots_.push_back(static_cast<uint32_t>(slot));
    }
    return id;
  }
  uint32_t InsertSparse(const ValueId* codes);
  template <size_t kDims>
  void InsertColumnsFixed(const ValueId* const* columns, size_t num_rows,
                          uint32_t* ids, std::vector<uint32_t>* counts);

  size_t num_dims_ = 0;
  size_t radices_[kMaxGroupDims] = {};
  bool dense_ = true;
  std::vector<uint64_t> keys_;  ///< packed key per group id
  // Dense path: slot -> group id (kEmpty when unseen), plus the slots in use
  // so Reset restores kEmpty in O(groups) rather than O(slots).
  std::vector<uint32_t> slots_;
  std::vector<uint32_t> used_slots_;
  // Sparse path: packed key -> group id.
  std::unordered_map<uint64_t, uint32_t> sparse_;
};

}  // namespace vq

#endif  // VQ_RELATIONAL_GROUP_BY_H_
