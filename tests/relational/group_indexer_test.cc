#include <gtest/gtest.h>

#include <vector>

#include "relational/group_by.h"
#include "util/rng.h"

namespace vq {
namespace {

TEST(RadixProductTest, SaturatesInsteadOfWrapping) {
  EXPECT_EQ(RadixProduct(std::vector<size_t>{}), 1u);
  EXPECT_EQ(RadixProduct(std::vector<size_t>{4, 5, 6}), 120u);
  size_t limit = kMaxPackableCode;  // the largest admissible dictionary
  EXPECT_EQ(RadixProduct(std::vector<size_t>{limit, limit, limit, limit}),
            18445618199572250625ull);  // 65535^4, just below 2^64
  size_t over = limit + 1;
  EXPECT_EQ(RadixProduct(std::vector<size_t>{over, over, over, over}), UINT64_MAX);
}

/// Feeds the same code stream to a dense and a sparse indexer (the sparse
/// one sees radices inflated past kMaxDenseSlots) and expects identical ids
/// in first-seen order, identical packed keys, and clean reuse after Reset.
TEST(GroupIndexerTest, DenseAndSparsePathsAgree) {
  std::vector<size_t> radices = {7, 3, 5};
  std::vector<size_t> inflated = {7, 3, 5000};
  GroupIndexer dense;
  GroupIndexer sparse;
  for (uint64_t seed : {1ull, 2ull}) {
    dense.Reset(radices);
    sparse.Reset(inflated);
    ASSERT_TRUE(dense.dense());
    ASSERT_FALSE(sparse.dense());
    Rng rng(seed);
    std::vector<std::vector<ValueId>> first_seen;
    for (int i = 0; i < 2000; ++i) {
      ValueId codes[3];
      for (size_t d = 0; d < 3; ++d) {
        codes[d] = static_cast<ValueId>(rng.NextBelow(radices[d]));
      }
      uint32_t id = dense.Insert(codes);
      ASSERT_EQ(sparse.Insert(codes), id);
      if (id == first_seen.size()) first_seen.emplace_back(codes, codes + 3);
      ASSERT_EQ(first_seen[id], std::vector<ValueId>(codes, codes + 3));
    }
    ASSERT_EQ(dense.size(), first_seen.size());
    ASSERT_EQ(sparse.size(), first_seen.size());
    for (uint32_t id = 0; id < first_seen.size(); ++id) {
      EXPECT_EQ(dense.key(id), PackGroupKey(first_seen[id]));
      EXPECT_EQ(sparse.key(id), dense.key(id));
    }
  }
  // Zero dimensions: one group, on the dense path (switching from sparse).
  sparse.Reset({});
  EXPECT_TRUE(sparse.dense());
  EXPECT_EQ(sparse.Insert(nullptr), 0u);
  EXPECT_EQ(sparse.Insert(nullptr), 0u);
  EXPECT_EQ(sparse.size(), 1u);
  EXPECT_EQ(sparse.key(0), PackGroupKey({}));
}

}  // namespace
}  // namespace vq
