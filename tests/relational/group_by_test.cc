#include "relational/group_by.h"

#include <gtest/gtest.h>

namespace vq {
namespace {

TEST(PackGroupKeyTest, DistinctAndOrderSensitive) {
  ValueId a[] = {1, 2};
  ValueId b[] = {2, 1};
  ValueId c[] = {1};
  EXPECT_NE(PackGroupKey({a, 2}), PackGroupKey({b, 2}));
  EXPECT_NE(PackGroupKey({a, 2}), PackGroupKey({c, 1}));
  // Width is encoded: key(1) != key(0, 1) even though low bits could collide.
  ValueId d[] = {0, 1};
  EXPECT_NE(PackGroupKey({c, 1}), PackGroupKey({d, 2}));
  EXPECT_EQ(PackGroupKey({}), 0u);
}

}  // namespace
}  // namespace vq
