#include "relational/predicate.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "storage/index.h"

namespace vq {

Result<EqPredicate> MakePredicate(const Table& table, const std::string& dim_name,
                                  const std::string& value) {
  int dim = table.DimIndex(dim_name);
  if (dim < 0) {
    return Status::NotFound("dimension column '" + dim_name + "' not in table '" +
                            table.name() + "'");
  }
  auto code = table.dict(static_cast<size_t>(dim)).Find(value);
  if (!code.has_value()) {
    return Status::NotFound("value '" + value + "' not in column '" + dim_name + "'");
  }
  return EqPredicate{dim, *code};
}

Status NormalizePredicates(PredicateSet* predicates) {
  std::sort(predicates->begin(), predicates->end(),
            [](const EqPredicate& a, const EqPredicate& b) {
              return a.dim != b.dim ? a.dim < b.dim : a.value < b.value;
            });
  for (size_t i = 1; i < predicates->size(); ++i) {
    if ((*predicates)[i].dim == (*predicates)[i - 1].dim) {
      return Status::InvalidArgument("duplicate predicate on dimension " +
                                     std::to_string((*predicates)[i].dim));
    }
  }
  return Status::OK();
}

bool RowMatches(const Table& table, size_t row, const PredicateSet& predicates) {
  for (const auto& p : predicates) {
    if (table.DimCode(row, static_cast<size_t>(p.dim)) != p.value) return false;
  }
  return true;
}

std::vector<uint32_t> FilterRows(const Table& table, const PredicateSet& predicates) {
  if (predicates.empty()) {
    std::vector<uint32_t> rows(table.NumRows());
    std::iota(rows.begin(), rows.end(), 0);
    return rows;
  }
  const TableIndex& index = table.index();
  size_t rarest = 0;
  for (size_t i = 1; i < predicates.size(); ++i) {
    if (index.Count(static_cast<size_t>(predicates[i].dim), predicates[i].value) <
        index.Count(static_cast<size_t>(predicates[rarest].dim),
                    predicates[rarest].value)) {
      rarest = i;
    }
  }
  std::span<const uint32_t> postings = index.Postings(
      static_cast<size_t>(predicates[rarest].dim), predicates[rarest].value);
  std::vector<uint32_t> rows(postings.begin(), postings.end());
  if (predicates.size() == 1) return rows;

  // Compact the copy in place, in ascending row order: every row is written
  // back, and kept (the count advances) when it passes every other
  // predicate's column check. No branch on the outcome, which would
  // mispredict often on unselective conjunctions.
  std::vector<std::pair<const ValueId*, ValueId>> checks;
  checks.reserve(predicates.size() - 1);
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i == rarest) continue;
    checks.emplace_back(table.DimColumn(static_cast<size_t>(predicates[i].dim)).data(),
                        predicates[i].value);
  }
  size_t kept = 0;
  for (uint32_t r : rows) {
    bool match = true;
    for (const auto& [column, value] : checks) match &= column[r] == value;
    rows[kept] = r;
    kept += match;
  }
  rows.resize(kept);
  return rows;
}

bool IsSubsetOf(const PredicateSet& subset, const PredicateSet& superset) {
  for (const auto& p : subset) {
    bool found = false;
    for (const auto& q : superset) {
      if (p == q) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

std::string PredicatesToString(const Table& table, const PredicateSet& predicates) {
  if (predicates.empty()) return "<all rows>";
  std::string out;
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i > 0) out += " AND ";
    const auto& p = predicates[i];
    out += table.DimName(static_cast<size_t>(p.dim));
    out += "=";
    out += table.dict(static_cast<size_t>(p.dim)).Lookup(p.value);
  }
  return out;
}

std::string PredicatesKey(const PredicateSet& predicates) {
  std::string out;
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i > 0) out.push_back('|');
    out += std::to_string(predicates[i].dim);
    out.push_back(':');
    out += std::to_string(predicates[i].value);
  }
  return out;
}

}  // namespace vq
