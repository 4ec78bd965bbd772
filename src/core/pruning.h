// Fact-group pruning plans for the greedy algorithm (Algorithm 3): which
// groups are joined first as pruning sources, and which are bounded as
// targets against the best source gain.
#ifndef VQ_CORE_PRUNING_H_
#define VQ_CORE_PRUNING_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "facts/catalog.h"

namespace vq {

/// Which fact-pruning strategy the greedy algorithm uses (Figure 3's
/// G-B / G-P / G-O variants).
enum class FactPruning {
  kNone,       ///< G-B: compute utility for every fact group
  kNaive,      ///< G-P: fixed plan -- smallest group as source, rest targets
  kOptimized,  ///< G-O: lazy fact selection over cached per-fact gain bounds
};

const char* FactPruningName(FactPruning pruning);

/// \brief A pruning plan: utility is computed for `sources` first; then each
/// `target` group's upper bound is compared against the best source gain,
/// pruning dominated targets together with all their specializations.
struct PruningPlan {
  std::vector<uint32_t> sources;
  std::vector<uint32_t> targets;  ///< in application order
};

/// The G-P plan over groups with `fact_counts[g]` member facts: the smallest
/// group is the only source; all other groups are targets in ascending
/// fact-count order (ties keep group order). With no groups, the empty plan.
PruningPlan NaivePlan(const std::vector<size_t>& fact_counts);

/// The plan the greedy algorithm applies for `pruning` over `catalog`'s
/// groups: NaivePlan for G-P with at least two groups, else none -- G-B
/// joins every group, and G-O bounds single facts lazily instead of
/// planning (see core/greedy.h). Plans depend only on static group
/// statistics, so one plan serves every greedy iteration. `num_rows` is
/// not read: the naive plan needs no cost model.
std::optional<PruningPlan> SelectPruningPlan(const FactCatalog& catalog, size_t num_rows,
                                             FactPruning pruning);

}  // namespace vq

#endif  // VQ_CORE_PRUNING_H_
