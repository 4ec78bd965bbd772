// Fact enumeration and the materialized scope join.
//
// A fact (Definition 2) has a scope -- equality predicates on a subset of
// the instance's fact-eligible dimensions -- and a typical value, the
// average target over rows within scope. Facts are organized into *fact
// groups*, one per restricted-dimension subset (Section VI-B prunes at this
// granularity).
#ifndef VQ_FACTS_CATALOG_H_
#define VQ_FACTS_CATALOG_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "facts/instance.h"
#include "util/status.h"

namespace vq {

/// Index of a fact within a FactCatalog.
using FactId = uint32_t;
inline constexpr FactId kNoFact = UINT32_MAX;

/// \brief A candidate fact: scope (group + packed values) and typical value.
struct Fact {
  uint32_t group = 0;      ///< index into FactCatalog::groups
  uint64_t packed = 0;     ///< packed scope values (16 bits per dimension)
  double value = 0.0;      ///< typical value: weighted average within scope
  double scope_weight = 0.0;  ///< total row weight within scope
};

/// \brief A fact group: all facts restricting the same dimension subset.
struct FactGroup {
  uint32_t mask = 0;            ///< bitmask over instance dimension positions
  std::vector<int> dim_positions;  ///< set bits of mask, ascending
  FactId first_fact = 0;        ///< facts [first_fact, first_fact + num_facts)
  uint32_t num_facts = 0;
  /// Materialized scope join: per instance row, the unique fact of this
  /// group whose scope contains the row (every row matches exactly one value
  /// combination). This is the paper's join with condition M, computed once.
  std::vector<FactId> row_fact;
};

/// \brief All candidate facts for one summarization instance.
class FactCatalog {
 public:
  /// Enumerates facts restricting between `min_fact_dims` and
  /// `max_fact_dims` dimensions. With the default min of 0, the 0-dimension
  /// group contributes the single "overall" fact (the paper's speeches use
  /// it, e.g. "It is 35 overall" in Table II); pass min_fact_dims = 1 to
  /// restrict to specific subsets as the paper's running example does.
  /// Requires max_fact_dims <= kMaxGroupDims, <= 31 instance dimensions and
  /// one cardinality per dimension bounding its codes.
  ///
  /// Each group's facts are the distinct value combinations of its
  /// dimensions (Section VI-C), found in one pass over the rows through a
  /// GroupIndexer keyed by the instance's dim_cardinalities: direct
  /// mixed-radix slots for small domains, a hash map of packed keys past
  /// GroupIndexer::kMaxDenseSlots. Facts are numbered group by group, in the
  /// order their first row appears, so FactIds do not depend on the path.
  static Result<FactCatalog> Build(const SummaryInstance& instance, int max_fact_dims,
                                   int min_fact_dims = 0);

  const std::vector<FactGroup>& groups() const { return groups_; }
  const std::vector<Fact>& facts() const { return facts_; }
  size_t NumFacts() const { return facts_.size(); }
  size_t NumGroups() const { return groups_.size(); }

  const Fact& fact(FactId id) const { return facts_[id]; }
  const FactGroup& group(uint32_t g) const { return groups_[g]; }

  /// Group index for a dimension mask; -1 if not enumerated.
  int GroupIndexForMask(uint32_t mask) const;

  /// True if `row` of the instance is within the scope of `id`.
  bool RowInScope(size_t row, FactId id) const;

  /// Words per fact in the row-membership bitsets (ceil(num_rows / 64)).
  size_t ScopeWords() const { return scope_words_; }

  /// True when per-fact scope bitsets were materialized. They cost
  /// num_facts * num_rows bits -- quadratic when distinct value
  /// combinations approach the row count -- so Build skips them past
  /// kMaxScopeBitsWords and the Evaluator falls back to its row-at-a-time
  /// reference paths (the CSR ScopeRows, whose size is bounded by the
  /// scope joins themselves, are always available).
  bool HasScopeBits() const { return has_scope_bits_; }

  /// Cap on the bitset allocation: 1<<23 64-bit words = 64 MiB per catalog.
  /// Instances in this problem merge far below it; the cap only disarms
  /// adversarial cardinality/row combinations on the on-demand path.
  static constexpr size_t kMaxScopeBitsWords = size_t{1} << 23;

  /// Row-membership bitset of `id` over the merged instance block: bit r of
  /// word r/64 is set iff instance row r is within the fact's scope. The
  /// Evaluator ORs these per speech to split rows into covered/uncovered
  /// word-at-a-time instead of re-checking scopes row by row.
  /// Precondition: HasScopeBits().
  std::span<const uint64_t> ScopeBits(FactId id) const {
    return {scope_bits_.data() + id * scope_words_, scope_words_};
  }

  /// Ascending instance rows within the scope of `id` (the bitset's set
  /// bits, CSR-packed). Scope-local loops (ApplyFact, the initialization
  /// join) iterate these instead of scanning the whole block.
  std::span<const uint32_t> ScopeRows(FactId id) const {
    return {scope_rows_.data() + scope_row_offsets_[id],
            scope_rows_.data() + scope_row_offsets_[id + 1]};
  }

  /// SoA block-delta tables aligned entry-for-entry with ScopeRows(id): the
  /// fact's absolute deviation |value - target[row]| and the row's weight,
  /// precomputed once per catalog. The SIMD gain kernels
  /// (simd::Kernels::gather_positive_gain and friends) stream these two
  /// contiguous arrays and only gather the one per-row column that actually
  /// changes between calls (prior/current deviation), instead of re-deriving
  /// |value - target| row by row inside every join. The three SoA tables
  /// (devs, weights, prior devs) cost three doubles per (group, row) entry
  /// -- the same shape as the CSR lists, never quadratic.
  std::span<const double> ScopeDevs(FactId id) const {
    return {scope_devs_.data() + scope_row_offsets_[id],
            scope_devs_.data() + scope_row_offsets_[id + 1]};
  }
  std::span<const double> ScopeWeights(FactId id) const {
    return {scope_weights_.data() + scope_row_offsets_[id],
            scope_weights_.data() + scope_row_offsets_[id + 1]};
  }
  /// |prior - target[row]| per scope entry: the gathered column of the
  /// initialization join, pre-gathered into CSR order so the single-fact
  /// utility reduction is a pure dense stream (simd::Kernels::positive_gain,
  /// no gather at all). Only the greedy iterations, whose deviation column
  /// changes between calls, still gather.
  std::span<const double> ScopePriorDevs(FactId id) const {
    return {scope_prior_devs_.data() + scope_row_offsets_[id],
            scope_prior_devs_.data() + scope_row_offsets_[id + 1]};
  }

  /// Decodes a fact's scope as (dimension name, value string) pairs, using
  /// the source table's dictionaries.
  std::vector<std::pair<std::string, std::string>> DescribeScope(
      const Table& table, const SummaryInstance& instance, FactId id) const;

 private:
  std::vector<FactGroup> groups_;
  std::vector<Fact> facts_;
  std::unordered_map<uint32_t, uint32_t> mask_to_group_;
  /// Per-fact row membership, precomputed once from the scope joins: flat
  /// num_facts x scope_words_ bitset plus the same sets as CSR row lists
  /// (exactly num_groups * num_rows entries -- each group partitions rows).
  size_t scope_words_ = 0;
  bool has_scope_bits_ = false;
  std::vector<uint64_t> scope_bits_;
  std::vector<uint32_t> scope_row_offsets_;
  std::vector<uint32_t> scope_rows_;
  /// CSR-aligned SoA companions of scope_rows_ (see ScopeDevs/ScopeWeights/
  /// ScopePriorDevs).
  std::vector<double> scope_devs_;
  std::vector<double> scope_weights_;
  std::vector<double> scope_prior_devs_;
};

}  // namespace vq

#endif  // VQ_FACTS_CATALOG_H_
