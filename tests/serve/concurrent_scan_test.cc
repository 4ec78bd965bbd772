// Concurrency coverage for the scan path, run under ThreadSanitizer by the
// serve-tsan preset (the binary name matches its ^(serve_|engine_|obs_)
// filter): concurrent FilterRows calls race the lazily built table index's
// double-checked publish (itself built one dimension per task on the shared
// pool).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "relational/predicate.h"
#include "storage/table.h"
#include "util/rng.h"

namespace vq {
namespace {

std::vector<uint32_t> NaiveFilterRows(const Table& table,
                                      const PredicateSet& predicates) {
  std::vector<uint32_t> out;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    if (RowMatches(table, r, predicates)) out.push_back(static_cast<uint32_t>(r));
  }
  return out;
}

/// Six dimensions, so the index build hands several dimensions to the pool.
Table ManyDimTable(size_t num_rows) {
  Rng rng(20210318);
  Table table("concurrent");
  constexpr size_t kDims = 6;
  for (size_t d = 0; d < kDims; ++d) table.AddDimColumn("d" + std::to_string(d));
  table.AddTargetColumn("y");
  std::vector<std::string> values(kDims);
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t d = 0; d < kDims; ++d) {
      values[d] = "v" + std::to_string(rng.NextZipf(6 + d, 1.0));
    }
    (void)table.AppendRow(values, {static_cast<double>(rng.NextInt(0, 50))});
  }
  return table;
}

/// Concurrent first use of a table: threads race the lazy index build
/// (itself parallelized across the shared pool) and immediately filter.
TEST(ConcurrentScanTest, LazyIndexBuildRacesFilters) {
  for (int round = 0; round < 4; ++round) {
    Table table = ManyDimTable(3000);
    PredicateSet predicates = {EqPredicate{0, 0}, EqPredicate{1, 0}};
    ASSERT_TRUE(NormalizePredicates(&predicates).ok());
    std::vector<uint32_t> expected = NaiveFilterRows(table, predicates);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 8; ++i) {
          if (FilterRows(table, predicates) != expected) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0);
  }
}

}  // namespace
}  // namespace vq
