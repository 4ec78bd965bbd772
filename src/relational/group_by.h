// Group-by aggregation over dimension subsets (the Gamma operator of
// Algorithms 1-3), and the grouping indexer every per-row grouping pass of
// the batch step shares (fact enumeration, query enumeration).
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
    uint32_t& id = slots_[slot];
    if (id == kEmpty) {
      id = static_cast<uint32_t>(keys_.size());
      keys_.push_back(PackGroupKey({codes, num_dims_}));
      used_slots_.push_back(static_cast<uint32_t>(slot));
    }
    return id;
  }

  /// Number of groups seen since Reset.
  size_t size() const { return keys_.size(); }
  /// Packed key (PackGroupKey) of group `id`.
  uint64_t key(uint32_t id) const { return keys_[id]; }
  /// True when the current grouping uses the dense slot array.
  bool dense() const { return dense_; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  uint32_t InsertSparse(const ValueId* codes);

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

/// One output group of a group-by: its packed key and aggregates.
struct AggregateGroup {
  uint64_t key = 0;
  double sum = 0.0;
  double count = 0.0;  // weighted count
};

/// \brief Result of a group-by: groups in first-seen order plus an index.
struct GroupByResult {
  std::vector<AggregateGroup> groups;
  std::unordered_map<uint64_t, uint32_t> index;  // key -> position in groups

  double AverageOf(uint64_t key) const;
};

/// Groups `row_ids` of `table` by the dimension columns in `dims`
/// (at most kMaxGroupDims), aggregating SUM and COUNT of
/// `values[i]` * `weights[i]` where index i aligns with `row_ids`.
/// Pass an empty `values` to aggregate counts only; empty `weights` means
/// unit weights.
GroupByResult GroupBy(const Table& table, std::span<const uint32_t> row_ids,
                      const std::vector<int>& dims, std::span<const double> values,
                      std::span<const double> weights);

/// Number of distinct value combinations over `dims` among `row_ids`.
/// This is the fact-count statistic M(g) of the paper's cost model
/// (Section VI-C: "the number of facts simply equals the number of distinct
/// value combinations in the dimension columns they restrict").
size_t CountDistinctCombos(const Table& table, std::span<const uint32_t> row_ids,
                           const std::vector<int>& dims);

}  // namespace vq

#endif  // VQ_RELATIONAL_GROUP_BY_H_
