#include "relational/predicate.h"

#include <algorithm>

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
