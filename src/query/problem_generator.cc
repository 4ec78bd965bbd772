#include "query/problem_generator.h"

#include <bit>

#include "relational/group_by.h"

namespace vq {

std::string VoiceQuery::Key() const {
  return "t=" + std::to_string(target_index) + "|" + PredicatesKey(predicates);
}

Result<ProblemGenerator> ProblemGenerator::Create(const Table* table,
                                                  Configuration config) {
  ProblemGenerator generator(table, std::move(config));
  for (const auto& name : generator.config_.dimensions) {
    int idx = table->DimIndex(name);
    if (idx < 0) {
      return Status::NotFound("configured dimension '" + name + "' not in table '" +
                              table->name() + "'");
    }
    generator.dim_indices_.push_back(idx);
  }
  for (const auto& name : generator.config_.targets) {
    int idx = table->TargetIndex(name);
    if (idx < 0) {
      return Status::NotFound("configured target '" + name + "' not in table '" +
                              table->name() + "'");
    }
    generator.target_indices_.push_back(idx);
  }
  if (generator.config_.max_query_predicates >
      static_cast<int>(generator.dim_indices_.size())) {
    generator.config_.max_query_predicates =
        static_cast<int>(generator.dim_indices_.size());
  }
  return generator;
}

namespace {

/// Calls visit(dims) for every predicate dimension subset of at most
/// `max_predicates` (and kMaxGroupDims) of `dim_indices`, in mask order;
/// `dims` are the subset's table dimensions.
template <typename Visit>
void ForEachPredicateDims(const std::vector<int>& dim_indices, int max_predicates,
                          Visit visit) {
  size_t num_dims = dim_indices.size();
  uint32_t num_masks = 1u << num_dims;
  std::vector<int> dims;
  for (uint32_t mask = 0; mask < num_masks; ++mask) {
    int bits = std::popcount(mask);
    if (bits > max_predicates || static_cast<size_t>(bits) > kMaxGroupDims) continue;
    dims.clear();
    for (size_t d = 0; d < num_dims; ++d) {
      if (mask & (1u << d)) dims.push_back(dim_indices[d]);
    }
    visit(dims);
  }
}

/// Groups every row of `table` by the columns `dims` (at most
/// kMaxGroupDims) through `indexer`: afterwards indexer->size() is the
/// number of value combinations that appear in the data and key(i) the
/// i-th in first-row order. Section III considers "equality predicates for
/// all value combinations that appear in the data set". `ids` and `counts`
/// are scratch for InsertColumns' per-row and per-group output.
void GroupRows(const Table& table, const std::vector<int>& dims, GroupIndexer* indexer,
               std::vector<uint32_t>* ids, std::vector<uint32_t>* counts) {
  size_t radices[kMaxGroupDims] = {};
  const ValueId* columns[kMaxGroupDims] = {};
  for (size_t i = 0; i < dims.size(); ++i) {
    radices[i] = table.dict(static_cast<size_t>(dims[i])).size();
    columns[i] = table.DimColumn(static_cast<size_t>(dims[i])).data();
  }
  indexer->Reset({radices, dims.size()});
  ids->resize(table.NumRows());
  indexer->InsertColumns(columns, table.NumRows(), ids->data(), counts);
}

}  // namespace

std::vector<VoiceQuery> ProblemGenerator::GenerateQueries() const {
  std::vector<PredicateSet> predicate_sets;
  GroupIndexer indexer;
  std::vector<uint32_t> ids;
  std::vector<uint32_t> counts;
  std::vector<ValueId> values;
  ForEachPredicateDims(dim_indices_, config_.max_query_predicates,
                       [&](const std::vector<int>& dims) {
    if (dims.empty()) {
      predicate_sets.push_back({});
      return;
    }
    GroupRows(*table_, dims, &indexer, &ids, &counts);
    values.resize(dims.size());
    for (uint32_t id = 0; id < indexer.size(); ++id) {
      // Unpack 16-bit fields (reverse of packing order).
      uint64_t packed = indexer.key(id);
      for (size_t i = dims.size(); i-- > 0;) {
        values[i] = static_cast<ValueId>((packed & 0xFFFF) - 1);
        packed >>= 16;
      }
      PredicateSet predicates;
      for (size_t i = 0; i < dims.size(); ++i) {
        predicates.push_back(EqPredicate{dims[i], values[i]});
      }
      Status st = NormalizePredicates(&predicates);
      (void)st;  // dims are distinct by construction
      predicate_sets.push_back(std::move(predicates));
    }
  });

  std::vector<VoiceQuery> queries;
  queries.reserve(predicate_sets.size() * target_indices_.size());
  for (int target : target_indices_) {
    for (const auto& predicates : predicate_sets) {
      VoiceQuery query;
      query.target_index = target;
      query.predicates = predicates;
      queries.push_back(std::move(query));
    }
  }
  return queries;
}

size_t ProblemGenerator::CountQueries() const {
  size_t per_target = 0;
  GroupIndexer indexer;
  std::vector<uint32_t> ids;
  std::vector<uint32_t> counts;
  ForEachPredicateDims(dim_indices_, config_.max_query_predicates,
                       [&](const std::vector<int>& dims) {
    GroupRows(*table_, dims, &indexer, &ids, &counts);
    per_target += indexer.size();
  });
  return per_target * target_indices_.size();
}

}  // namespace vq
