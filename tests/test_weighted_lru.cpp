// WeightedLru, the weight-bounded LRU behind ScheduleCache, SubgraphCache,
// PartitionCanonMemo and the service's delta base registry, tested on its
// own: keys forced onto one hash, re-insertion of a resident key, refusal of
// an entry heavier than the capacity, coldest-first eviction with its
// reported count and weight, and the count-bounded case of unit weights.

#include "support/weighted_lru.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace sts {
namespace {

using Lru = WeightedLru<std::string, int>;

constexpr std::uint64_t kForcedHash = 0x5eed;

std::vector<int> values_by_recency(const Lru& lru) {
  std::vector<int> values;
  lru.for_each([&values](int value) { values.push_back(value); });
  return values;
}

TEST(WeightedLru, KeysSharingAHashStayApart) {
  Lru lru(8);
  ASSERT_NE(lru.insert(kForcedHash, "a", 1, 1).value, nullptr);
  ASSERT_NE(lru.insert(kForcedHash, "b", 2, 1).value, nullptr);
  EXPECT_EQ(lru.size(), 2u);
  ASSERT_NE(lru.find(kForcedHash, std::string_view("a")), nullptr);
  EXPECT_EQ(*lru.find(kForcedHash, std::string_view("a")), 1);
  EXPECT_EQ(*lru.find(kForcedHash, std::string_view("b")), 2);
  EXPECT_EQ(lru.find(kForcedHash, std::string_view("c")), nullptr);
  ASSERT_NE(lru.peek(kForcedHash, std::string_view("b")), nullptr);
  EXPECT_EQ(*lru.peek(kForcedHash, std::string_view("b")), 2);
  EXPECT_EQ(lru.total_weight(), 2u);

  // Tuple keys (the fragment cache's (context, form)) probe through a tuple
  // of references and are matched on every element.
  WeightedLru<std::tuple<std::string, std::string>, int> pairs(8);
  (void)pairs.insert(kForcedHash, {"ctx", "form-1"}, 1, 1);
  (void)pairs.insert(kForcedHash, {"ctx", "form-2"}, 2, 1);
  const std::string context = "ctx";
  const std::string form = "form-2";
  ASSERT_NE(pairs.find(kForcedHash, std::tie(context, form)), nullptr);
  EXPECT_EQ(*pairs.find(kForcedHash, std::tie(context, form)), 2);
}

TEST(WeightedLru, ReinsertingAResidentKeyReturnsTheResidentUnchanged) {
  Lru lru(8);
  ASSERT_NE(lru.insert(1, "k", 1, 2).value, nullptr);
  const Lru::Inserted again = lru.insert(1, "k", 99, 5);
  ASSERT_NE(again.value, nullptr);
  EXPECT_EQ(*again.value, 1) << "the resident value wins";
  EXPECT_EQ(again.evicted.count, 0u);
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.total_weight(), 2u) << "and keeps its own weight";
}

TEST(WeightedLru, EntryHeavierThanTheCapacityIsRefused) {
  Lru lru(4);
  (void)lru.insert(1, "a", 1, 2);
  (void)lru.insert(2, "b", 2, 2);
  const Lru::Inserted refused = lru.insert(3, "c", 3, 5);
  EXPECT_EQ(refused.value, nullptr);
  EXPECT_EQ(refused.evicted.count, 0u);
  EXPECT_EQ(refused.evicted.weight, 0u);
  EXPECT_EQ(lru.peek(3, "c"), nullptr);
  EXPECT_NE(lru.peek(1, "a"), nullptr) << "residents stay";
  EXPECT_NE(lru.peek(2, "b"), nullptr);
  EXPECT_EQ(lru.total_weight(), 4u);

  // Exactly the capacity still fits, by evicting everyone else.
  const Lru::Inserted whole = lru.insert(4, "d", 4, 4);
  ASSERT_NE(whole.value, nullptr);
  EXPECT_EQ(whole.evicted.count, 2u);
  EXPECT_EQ(whole.evicted.weight, 4u);
  EXPECT_EQ(values_by_recency(lru), std::vector<int>{4});
}

TEST(WeightedLru, EvictsColdestFirstAndReportsWhatItDropped) {
  Lru lru(10);
  (void)lru.insert(1, "a", 1, 3);
  (void)lru.insert(2, "b", 2, 3);
  (void)lru.insert(3, "c", 3, 3);
  ASSERT_NE(lru.find(1, "a"), nullptr);  // bump: recency is now a, c, b
  ASSERT_NE(lru.peek(2, "b"), nullptr);  // peek does not bump
  EXPECT_EQ(values_by_recency(lru), (std::vector<int>{1, 3, 2}));

  // 9 + 5 > 10: b goes first, then c, and a survives.
  const Lru::Inserted inserted = lru.insert(4, "d", 4, 5);
  ASSERT_NE(inserted.value, nullptr);
  EXPECT_EQ(inserted.evicted.count, 2u);
  EXPECT_EQ(inserted.evicted.weight, 6u);
  EXPECT_EQ(values_by_recency(lru), (std::vector<int>{4, 1}));
  EXPECT_EQ(lru.total_weight(), 8u);
  EXPECT_EQ(lru.capacity(), 10u);
}

TEST(WeightedLru, UnitWeightsMakeACountBoundedLru) {
  Lru lru(3);
  for (int i = 0; i < 3; ++i) {
    (void)lru.insert(static_cast<std::uint64_t>(i), std::to_string(i), i, 1);
  }
  ASSERT_NE(lru.find(0, "0"), nullptr);
  const Lru::Inserted inserted = lru.insert(3, "3", 3, 1);
  EXPECT_EQ(inserted.evicted.count, 1u);
  EXPECT_EQ(inserted.evicted.weight, 1u);
  EXPECT_EQ(values_by_recency(lru), (std::vector<int>{3, 0, 2})) << "1 was least recently used";
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.total_weight(), 3u);

  lru.clear();
  EXPECT_EQ(lru.size(), 0u);
  EXPECT_EQ(lru.total_weight(), 0u);
  EXPECT_EQ(lru.peek(3, "3"), nullptr);
}

}  // namespace
}  // namespace sts
