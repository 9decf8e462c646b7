// Edge-case tests for the shared byte-budgeted LRU core (common/lru.h):
// degenerate budgets (zero bytes, entry exactly at budget) and the
// least-recently-used eviction order.
#include <gtest/gtest.h>

#include <string>

#include "common/lru.h"

namespace pcde {
namespace {

TEST(LruTest, ZeroByteBudgetRejectsEveryNonEmptyEntry) {
  Lru<int, std::string> lru(0);
  EXPECT_FALSE(lru.Insert(1, "a", 1));
  EXPECT_EQ(lru.entries(), 0u);
  EXPECT_EQ(lru.bytes(), 0u);
  EXPECT_EQ(lru.Find(1), nullptr);

  // A zero-byte entry technically fits a zero-byte budget.
  EXPECT_TRUE(lru.Insert(2, "b", 0));
  EXPECT_EQ(lru.entries(), 1u);
  EXPECT_EQ(lru.bytes(), 0u);
  ASSERT_NE(lru.Find(2), nullptr);
  EXPECT_EQ(*lru.Find(2), "b");
}

TEST(LruTest, EntryExactlyAtBudgetIsAdmittedAloneAndEvictsPredecessors) {
  Lru<int, std::string> lru(10);

  // Exactly at budget: admitted, no eviction needed.
  EXPECT_TRUE(lru.Insert(1, "full", 10));
  EXPECT_EQ(lru.entries(), 1u);
  EXPECT_EQ(lru.bytes(), 10u);

  // A second exact-budget entry displaces the first entirely.
  EXPECT_TRUE(lru.Insert(2, "next", 10));
  EXPECT_EQ(lru.entries(), 1u);
  EXPECT_EQ(lru.bytes(), 10u);
  EXPECT_EQ(lru.Find(1), nullptr);
  ASSERT_NE(lru.Find(2), nullptr);

  // One byte over budget is rejected outright and leaves state untouched.
  EXPECT_FALSE(lru.Insert(3, "huge", 11));
  EXPECT_EQ(lru.entries(), 1u);
  EXPECT_EQ(lru.bytes(), 10u);
  EXPECT_EQ(lru.Find(3), nullptr);
}

TEST(LruTest, EvictionOrderIsLeastRecentlyUsedAndNewestSurvives) {
  Lru<int, int> lru(3);
  ASSERT_TRUE(lru.Insert(1, 10, 1));
  ASSERT_TRUE(lru.Insert(2, 20, 1));
  ASSERT_TRUE(lru.Insert(3, 30, 1));
  ASSERT_NE(lru.Find(1), nullptr);  // refresh 1 so 2 is now the LRU victim

  ASSERT_TRUE(lru.Insert(4, 40, 2));  // needs two slots: evicts 2, then 3
  EXPECT_EQ(lru.Find(2), nullptr);
  EXPECT_EQ(lru.Find(3), nullptr);
  ASSERT_NE(lru.Find(1), nullptr);
  ASSERT_NE(lru.Find(4), nullptr);
  EXPECT_EQ(lru.entries(), 2u);
  EXPECT_EQ(lru.bytes(), 3u);
}

}  // namespace
}  // namespace pcde
