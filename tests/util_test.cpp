// Utility layer: intrusive list, fixed pool, deterministic RNG, stats, dual-loop timer.

#include <gtest/gtest.h>

#include <vector>

#include "bench/stats.hpp"
#include "src/util/dual_loop_timer.hpp"
#include "src/util/fixed_pool.hpp"
#include "src/util/intrusive_list.hpp"
#include "tests/rng.hpp"

namespace fsup {
namespace {

struct Item {
  int value = 0;
  ListNode link;
};

using ItemList = IntrusiveList<Item, &Item::link>;

TEST(IntrusiveListTest, StartsEmpty) {
  ItemList l;
  EXPECT_TRUE(l.empty());
  EXPECT_EQ(0u, l.size());
  EXPECT_EQ(nullptr, l.Front());
  EXPECT_EQ(nullptr, l.PopFront());
}

TEST(IntrusiveListTest, PushBackPopFrontIsFifo) {
  ItemList l;
  Item a{1, {}}, b{2, {}}, c{3, {}};
  l.PushBack(&a);
  l.PushBack(&b);
  l.PushBack(&c);
  EXPECT_EQ(3u, l.size());
  EXPECT_EQ(1, l.PopFront()->value);
  EXPECT_EQ(2, l.PopFront()->value);
  EXPECT_EQ(3, l.PopFront()->value);
  EXPECT_TRUE(l.empty());
}

TEST(IntrusiveListTest, PushFrontIsLifo) {
  ItemList l;
  Item a{1, {}}, b{2, {}};
  l.PushFront(&a);
  l.PushFront(&b);
  EXPECT_EQ(2, l.Front()->value);
  EXPECT_EQ(1, l.Back()->value);
}

TEST(IntrusiveListTest, EraseMiddle) {
  ItemList l;
  Item a{1, {}}, b{2, {}}, c{3, {}};
  l.PushBack(&a);
  l.PushBack(&b);
  l.PushBack(&c);
  l.Erase(&b);
  EXPECT_FALSE(b.link.linked());
  EXPECT_EQ(2u, l.size());
  EXPECT_EQ(1, l.PopFront()->value);
  EXPECT_EQ(3, l.PopFront()->value);
}

TEST(IntrusiveListTest, InsertBefore) {
  ItemList l;
  Item a{1, {}}, c{3, {}}, b{2, {}};
  l.PushBack(&a);
  l.PushBack(&c);
  l.InsertBefore(&c, &b);
  EXPECT_EQ(1, l.PopFront()->value);
  EXPECT_EQ(2, l.PopFront()->value);
  EXPECT_EQ(3, l.PopFront()->value);
}

TEST(IntrusiveListTest, UnlinkIsIdempotent) {
  Item a{1, {}};
  a.link.Unlink();  // not linked: no-op
  ItemList l;
  l.PushBack(&a);
  a.link.Unlink();
  EXPECT_TRUE(l.empty());
  a.link.Unlink();
}

TEST(IntrusiveListTest, ContainsAndIteration) {
  ItemList l;
  Item a{1, {}}, b{2, {}}, outside{9, {}};
  l.PushBack(&a);
  l.PushBack(&b);
  EXPECT_TRUE(l.Contains(&a));
  EXPECT_FALSE(l.Contains(&outside));
  int sum = 0;
  for (Item* it : l) {
    sum += it->value;
  }
  EXPECT_EQ(3, sum);
}

TEST(IntrusiveListTest, ForEachSafeAllowsUnlink) {
  ItemList l;
  Item items[5];
  for (int i = 0; i < 5; ++i) {
    items[i].value = i;
    l.PushBack(&items[i]);
  }
  l.ForEachSafe([&](Item* it) {
    if (it->value % 2 == 0) {
      l.Erase(it);
    }
  });
  EXPECT_EQ(2u, l.size());
  EXPECT_EQ(1, l.PopFront()->value);
  EXPECT_EQ(3, l.PopFront()->value);
}

TEST(IntrusiveListTest, MoveBetweenLists) {
  ItemList l1, l2;
  Item a{1, {}};
  l1.PushBack(&a);
  l1.Erase(&a);
  l2.PushBack(&a);
  EXPECT_TRUE(l1.empty());
  EXPECT_TRUE(l2.Contains(&a));
}

TEST(FixedPoolTest, ReusesSlots) {
  FixedPool<Item> pool(4);
  void* p1 = pool.Get();
  void* p2 = pool.Get();
  EXPECT_NE(p1, p2);
  pool.Put(p1);
  void* p3 = pool.Get();
  EXPECT_EQ(p1, p3);  // LIFO reuse
  EXPECT_EQ(3u, pool.pool_hits());
  EXPECT_EQ(0u, pool.heap_fallbacks());
  pool.Put(p2);
  pool.Put(p3);
}

TEST(FixedPoolTest, FallsBackToHeapWhenExhausted) {
  FixedPool<Item> pool(1);
  void* p1 = pool.Get();
  void* p2 = pool.Get();
  EXPECT_EQ(1u, pool.heap_fallbacks());
  pool.Put(p1);
  pool.Put(p2);
}

TEST(FixedPoolTest, TracksOutstanding) {
  FixedPool<Item> pool(2);
  EXPECT_EQ(0u, pool.outstanding());
  void* p = pool.Get();
  EXPECT_EQ(1u, pool.outstanding());
  pool.Put(p);
  EXPECT_EQ(0u, pool.outstanding());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng r(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.NextBelow(7), 7u);
  }
  EXPECT_EQ(0u, r.NextBelow(0));
  EXPECT_EQ(0u, r.NextBelow(1));
}

TEST(RngTest, BoolRoughlyFair) {
  Rng r(5);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    heads += r.NextBool() ? 1 : 0;
  }
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

TEST(StatsTest, BasicMoments) {
  Stats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(8, s.count());
  EXPECT_DOUBLE_EQ(5.0, s.mean());
  EXPECT_DOUBLE_EQ(2.0, s.min());
  EXPECT_DOUBLE_EQ(9.0, s.max());
  EXPECT_NEAR(2.138, s.stddev(), 0.01);
}

TEST(StatsTest, EmptyIsZero) {
  Stats s;
  EXPECT_EQ(0, s.count());
  EXPECT_EQ(0.0, s.mean());
  EXPECT_EQ(0.0, s.stddev());
}

TEST(DualLoopTest, MonotonicClockAdvances) {
  const int64_t a = NowNs();
  const int64_t b = NowNs();
  EXPECT_GE(b, a);
}

TEST(DualLoopTest, MeasuresRoughCostOfKnownWork) {
  DualLoopTimer timer(20000, 3);
  volatile int sink = 0;
  const double cost = timer.MeasureNs([&] {
    for (int i = 0; i < 50; ++i) {
      sink = sink + i;
    }
  });
  EXPECT_GT(cost, 1.0);     // 50 adds cannot be free
  EXPECT_LT(cost, 10000.0);  // nor cost 10µs
}

TEST(DualLoopTest, EmptyOpMeasuresNearZero) {
  DualLoopTimer timer(100000, 3);
  const double cost = timer.MeasureNs([] {});
  EXPECT_LT(cost, 5.0);
}

}  // namespace
}  // namespace fsup
