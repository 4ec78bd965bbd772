// Fact enumeration and the scope join.
//
// A fact (Definition 2) has a scope -- equality predicates on a subset of
// the instance's fact-eligible dimensions -- and a typical value, the
// average target over rows within scope. Facts are organized into *fact
// groups*, one per restricted-dimension subset (Section VI-B prunes at this
// granularity).
#ifndef VQ_FACTS_CATALOG_H_
#define VQ_FACTS_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>  // std::call_once for the lazy scope tables (not locking)
#include <span>
#include <string>
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
  ///
  /// The grouping reads the instance's column-major codes directly; each
  /// group takes two passes. Pass 1 writes row -> group-local fact ids,
  /// column-at-a-time, into one scratch buffer every group reuses, and
  /// counts rows per fact (integer work only). Pass 2, one pass in ascending
  /// row order, counting-sorts the row ids into the CSR lists and adds each
  /// row's weight and weighted target to its fact -- the order a row-by-row
  /// scan adds them in, so the sums are bit-identical. The overall group (no
  /// dimensions) skips pass 1: one sequential pass writes its list, every
  /// row, and sums it.
  /// Returns Unsupported, before allocating anything, when
  /// num_groups * num_rows exceeds UINT32_MAX.
  static Result<FactCatalog> Build(const SummaryInstance& instance, int max_fact_dims,
                                   int min_fact_dims = 0);

  const std::vector<FactGroup>& groups() const { return groups_; }
  const std::vector<Fact>& facts() const { return facts_; }
  size_t NumFacts() const { return facts_.size(); }
  size_t NumGroups() const { return groups_.size(); }

  const Fact& fact(FactId id) const { return facts_[id]; }
  const FactGroup& group(uint32_t g) const { return groups_[g]; }

  /// Group index for a dimension mask (a binary search: groups_ ascend by
  /// mask); -1 if not enumerated.
  int GroupIndexForMask(uint32_t mask) const;

  /// True if `row` of the instance is within the scope of `id`. Reads the
  /// scope join (RowFacts), building it on the first call.
  bool RowInScope(size_t row, FactId id) const {
    return RowFacts(facts_[id].group)[row] == id;
  }

  /// The scope join of group `g`: per instance row, the unique fact of the
  /// group whose scope contains the row (every row matches exactly one value
  /// combination) -- the paper's join with condition M. No greedy solver
  /// reads it (they walk ScopeRows), so Build does not store it: the first
  /// RowFacts() or RowInScope() call builds every group's join from the CSR
  /// lists, once, under std::call_once (safe to race from any number of
  /// threads), at 4 B per (group, row); later calls only read.
  std::span<const FactId> RowFacts(uint32_t g) const {
    return {RowFactTable() + size_t{g} * num_rows_, num_rows_};
  }

  /// Words per fact in the row-membership bitsets (ceil(num_rows / 64)).
  size_t ScopeWords() const { return scope_words_; }

  /// True when the per-fact scope bitsets fit under kMaxScopeBitsWords, so
  /// ScopeBits() may be called. They cost num_facts * num_rows bits --
  /// quadratic when distinct value combinations approach the row count -- so
  /// past the cap the Evaluator falls back to its row-at-a-time reference
  /// paths (the CSR ScopeRows, whose size is bounded by the scope joins
  /// themselves, are always available).
  bool HasScopeBits() const { return has_scope_bits_; }

  /// Cap on the bitset allocation: 1<<23 64-bit words = 64 MiB per catalog.
  /// Instances in this problem merge far below it; the cap only disarms
  /// adversarial cardinality/row combinations on the on-demand path.
  static constexpr size_t kMaxScopeBitsWords = size_t{1} << 23;

  /// Row-membership bitset of `id` over the merged instance block: bit r of
  /// word r/64 is set iff instance row r is within the fact's scope. The
  /// Evaluator ORs these per speech to split rows into covered/uncovered
  /// word-at-a-time instead of re-checking scopes row by row.
  ///
  /// Only the speech evaluators read them (Evaluator::Error, Utility and
  /// RowExpectations: exact search, brute force, the studies); greedy never
  /// does. So Build does not materialize them: the first ScopeBits() call
  /// builds every fact's bitset from ScopeRows, once, under std::call_once
  /// (safe to race from any number of threads), and later calls only read.
  /// Precondition: HasScopeBits().
  std::span<const uint64_t> ScopeBits(FactId id) const {
    return {ScopeBitsTable() + id * scope_words_, scope_words_};
  }

  /// Ascending instance rows within the scope of `id`, CSR-packed. Scope-local
  /// loops (ApplyFact, the initialization join) iterate these instead of
  /// scanning the whole block; the gain kernels (simd::Kernels::
  /// gather_positive_gain and friends) gather each row's target and weight
  /// from the instance and derive |value - target| on the fly, so the
  /// catalog stores no per-entry deviation or weight.
  ///
  /// Every group partitions the rows, so the CSR lists hold exactly
  /// num_groups * num_rows entries at 4 B each (a uint32 row) -- the shape
  /// of the scope joins, never quadratic; the joins themselves are built
  /// only on demand (RowFacts). Build rejects instances whose entry count
  /// does not fit the uint32 CSR offsets.
  std::span<const uint32_t> ScopeRows(FactId id) const {
    return {scope_rows_.get() + scope_row_offsets_[id],
            scope_rows_.get() + scope_row_offsets_[id + 1]};
  }

  /// Decodes a fact's scope as (dimension name, value string) pairs, using
  /// the source table's dictionaries.
  std::vector<std::pair<std::string, std::string>> DescribeScope(
      const Table& table, const SummaryInstance& instance, FactId id) const;

 private:
  /// Builds the scope bitsets on first use (see ScopeBits); their base.
  const uint64_t* ScopeBitsTable() const;
  /// The scope join's base (see RowFacts); builds it on the first call.
  const FactId* RowFactTable() const {
    const FactId* built = lazy_->row_fact_built.load(std::memory_order_acquire);
    return built != nullptr ? built : BuildRowFactTable();
  }
  const FactId* BuildRowFactTable() const;

  std::vector<FactGroup> groups_;
  std::vector<Fact> facts_;
  /// Per-fact row membership as CSR row lists (see ScopeRows). Build writes
  /// every entry exactly once, so the array is allocated uninitialized.
  std::vector<uint32_t> scope_row_offsets_;
  std::unique_ptr<uint32_t[]> scope_rows_;
  /// The tables built on first use. Held by pointer so the catalog stays
  /// movable.
  struct LazyTables {
    /// The flat num_facts x scope_words_ bitset (see ScopeBits).
    std::once_flag bits_once;
    std::vector<uint64_t> bits;
    /// The flat num_groups x num_rows_ scope join (see RowFacts), and its
    /// base once built: RowInScope runs once per (row, fact) in the reference
    /// paths, so its fast path is one acquire load, not a call_once.
    std::once_flag row_fact_once;
    std::unique_ptr<FactId[]> row_fact;
    std::atomic<const FactId*> row_fact_built{nullptr};
  };
  size_t num_rows_ = 0;
  size_t scope_words_ = 0;
  bool has_scope_bits_ = false;
  std::unique_ptr<LazyTables> lazy_;
};

}  // namespace vq

#endif  // VQ_FACTS_CATALOG_H_
