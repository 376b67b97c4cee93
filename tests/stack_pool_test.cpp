// Size-classed stack pool edge cases: class geometry, per-class recycling, the non-pow2
// bypass, the bytes-based recycle budget with largest-first eviction, the guard-owner lookup
// the SIGSEGV handler uses (current, non-current, recycled, parked and evicted stacks), the
// stack size a lazy thread is activated with, a size whose page round-up wraps, and deep
// frames: a first frame far down the stack, and OS signal frames pushed there.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>

#include "src/core/attr.hpp"
#include "src/core/bench_probes.hpp"
#include "src/core/pthread.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/kernel/stack_pool.hpp"
#include "src/util/counters.hpp"

namespace fsup {
namespace {

class StackPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

TEST_F(StackPoolTest, ClassIndexGeometry) {
  EXPECT_EQ(0, StackPool::ClassIndex(kMinStackSize));
  EXPECT_EQ(1, StackPool::ClassIndex(kMinStackSize * 2));
  EXPECT_EQ(3, StackPool::ClassIndex(kDefaultStackSize));  // 128 KiB = 16 KiB << 3
  EXPECT_EQ(9, StackPool::ClassIndex(StackPool::kMaxPooledStackSize));
  // Outside the pow2 ladder: below the floor, above the ceiling, or not a power of two.
  EXPECT_EQ(-1, StackPool::ClassIndex(kMinStackSize / 2));
  EXPECT_EQ(-1, StackPool::ClassIndex(StackPool::kMaxPooledStackSize * 2));
  EXPECT_EQ(-1, StackPool::ClassIndex(kMinStackSize * 3));
  EXPECT_EQ(-1, StackPool::ClassIndex(kDefaultStackSize + hostos::PageSize()));
}

TEST_F(StackPoolTest, PerClassRecyclingReturnsTheSameMapping) {
  StackPool pool;
  Tcb* small = pool.Allocate(kMinStackSize);
  Tcb* big = pool.Allocate(kMinStackSize * 4);
  ASSERT_NE(nullptr, small);
  ASSERT_NE(nullptr, big);
  void* small_base = small->stack_base;
  void* big_base = big->stack_base;
  EXPECT_TRUE(small->stack_pooled);
  EXPECT_TRUE(big->stack_pooled);
  pool.Free(small);
  pool.Free(big);
  EXPECT_EQ(StackPool::kPrecached + 2, pool.pooled_stacks());
  EXPECT_EQ(StackPool::kPrecached * kDefaultStackSize + kMinStackSize * 5, pool.pooled_bytes());

  // Each request is served from its own class: no cross-class mixups, no fresh maps.
  const uint64_t maps = counters::Get(counters::kPoolMaps);
  const uint64_t reuses = probe::StackPoolReuses();
  Tcb* big2 = pool.Allocate(kMinStackSize * 4);
  Tcb* small2 = pool.Allocate(kMinStackSize);
  ASSERT_NE(nullptr, big2);
  ASSERT_NE(nullptr, small2);
  EXPECT_EQ(big_base, big2->stack_base);
  EXPECT_EQ(small_base, small2->stack_base);
  EXPECT_EQ(maps, counters::Get(counters::kPoolMaps));
  EXPECT_EQ(reuses + 2, probe::StackPoolReuses());
  pool.Free(big2);
  pool.Free(small2);
}

TEST_F(StackPoolTest, NonPow2SizesBypassTheFreeLists) {
  StackPool pool;
  Tcb* t = pool.Allocate(kMinStackSize * 3);
  ASSERT_NE(nullptr, t);
  EXPECT_FALSE(t->stack_pooled);
  EXPECT_GE(t->stack_size, kMinStackSize * 3);
  // Freed odd-size stacks are unmapped, not hoarded on a list no class can serve.
  pool.Free(t);
  EXPECT_EQ(StackPool::kPrecached, pool.pooled_stacks());
  EXPECT_EQ(StackPool::kPrecached * kDefaultStackSize, pool.pooled_bytes());
}

TEST_F(StackPoolTest, BudgetEvictsLargestFirst) {
  // Four of the largest class overflow the budget on top of the precached stacks and a small
  // one: freeing the fourth evicts one of the largest and keeps the 16 KiB one (largest-first
  // bounds address-space pinning while keeping the cheap, common classes warm).
  constexpr size_t kBig = StackPool::kMaxPooledStackSize;
  static_assert(StackPool::kPrecached * kDefaultStackSize + kMinStackSize + 4 * kBig >
                StackPool::kBudgetBytes);
  static_assert(StackPool::kPrecached * kDefaultStackSize + kMinStackSize + 3 * kBig <=
                StackPool::kBudgetBytes);
  StackPool pool;
  Tcb* big[4];
  for (Tcb*& t : big) {
    t = pool.Allocate(kBig);
    ASSERT_NE(nullptr, t);
  }
  Tcb* small = pool.Allocate(kMinStackSize);
  ASSERT_NE(nullptr, small);
  void* small_base = small->stack_base;
  pool.Free(small);
  EXPECT_EQ(StackPool::kPrecached + 1, pool.pooled_stacks());  // under budget: kept
  const uint64_t evictions = counters::Get(counters::PoolClass(9, counters::kPoolClass0Evictions));
  for (Tcb* t : big) {
    pool.Free(t);
  }
  EXPECT_EQ(StackPool::kPrecached + 1 + 3, pool.pooled_stacks());  // one big one evicted
  EXPECT_EQ(evictions + 1,
            counters::Get(counters::PoolClass(9, counters::kPoolClass0Evictions)));

  Tcb* small2 = pool.Allocate(kMinStackSize);
  ASSERT_NE(nullptr, small2);
  EXPECT_EQ(small_base, small2->stack_base);
  pool.Free(small2);
}

TEST_F(StackPoolTest, TcbSlotsComeFromTheSlabFreeList) {
  StackPool pool;
  Tcb* t = pool.Allocate(kMinStackSize);
  ASSERT_NE(nullptr, t);
  pool.Free(t);
  // LIFO slab free list: the very next allocation reuses the slot — creation touches no
  // allocator once warm (the paper's pre-cache claim, TCB half).
  Tcb* t2 = pool.Allocate(kMinStackSize);
  EXPECT_EQ(static_cast<void*>(t), static_cast<void*>(t2));
  pool.Free(t2);
}

using ThreadList = IntrusiveList<Tcb, &Tcb::all_link>;

TEST_F(StackPoolTest, GuardOwnerNamesTheCurrentThread) {
  StackPool pool;
  Tcb* t = pool.Allocate(kDefaultStackSize);
  ASSERT_NE(nullptr, t);
  char* base = static_cast<char*>(t->stack_base);
  ThreadList none;  // the current thread is found without the walk
  EXPECT_EQ(t, StackPool::GuardOwner(base - 1, t, none));
  EXPECT_EQ(t, StackPool::GuardOwner(base - hostos::PageSize(), t, none));
  // Usable bytes and the byte below the guard page are not a guard hit.
  EXPECT_EQ(nullptr, StackPool::GuardOwner(base, t, none));
  EXPECT_EQ(nullptr, StackPool::GuardOwner(base - hostos::PageSize() - 1, t, none));
  pool.Free(t);
}

TEST_F(StackPoolTest, GuardOwnerNamesANonCurrentVictim) {
  StackPool pool;
  Tcb* t1 = pool.Allocate(kDefaultStackSize);
  Tcb* t2 = pool.Allocate(kDefaultStackSize);
  Tcb* t3 = pool.Allocate(kMinStackSize);
  ASSERT_NE(nullptr, t1);
  ASSERT_NE(nullptr, t2);
  ASSERT_NE(nullptr, t3);
  ThreadList threads;
  threads.PushBack(t1);
  threads.PushBack(t2);
  threads.PushBack(t3);
  // t1 runs; a hit on t2's or t3's guard page names that thread, not the current one.
  EXPECT_EQ(t2, StackPool::GuardOwner(static_cast<char*>(t2->stack_base) - 1, t1, threads));
  EXPECT_EQ(t3, StackPool::GuardOwner(static_cast<char*>(t3->stack_base) - 1, t1, threads));
  EXPECT_EQ(t1, StackPool::GuardOwner(static_cast<char*>(t1->stack_base) - 1, t1, threads));
  // An address on no thread stack is nobody's.
  int on_main_stack = 0;
  EXPECT_EQ(nullptr, StackPool::GuardOwner(&on_main_stack, t1, threads));
  EXPECT_EQ(nullptr, StackPool::GuardOwner(nullptr, t1, threads));
  for (Tcb* t : {t1, t2, t3}) {
    t->all_link.Unlink();
    pool.Free(t);
  }
}

TEST_F(StackPoolTest, GuardOwnerNamesTheCurrentTenantOfARecycledStack) {
  StackPool pool;
  Tcb* first = pool.Allocate(kDefaultStackSize);
  ASSERT_NE(nullptr, first);
  char* base = static_cast<char*>(first->stack_base);
  pool.Free(first);
  // Another thread takes the freed TCB slot, so the stack's next tenant is a different TCB.
  Tcb* other = pool.Allocate(kMinStackSize);
  Tcb* tenant = pool.Allocate(kDefaultStackSize);
  ASSERT_NE(nullptr, other);
  ASSERT_NE(nullptr, tenant);
  ASSERT_EQ(base, static_cast<char*>(tenant->stack_base));  // recycled, not remapped
  ASSERT_NE(first, tenant);
  ThreadList threads;
  threads.PushBack(other);
  threads.PushBack(tenant);
  EXPECT_EQ(tenant, StackPool::GuardOwner(base - 1, other, threads));
  for (Tcb* t : {other, tenant}) {
    t->all_link.Unlink();
    pool.Free(t);
  }
}

TEST_F(StackPoolTest, ParkedOrEvictedStackIsNobodys) {
  StackPool pool;
  Tcb* live = pool.Allocate(kMinStackSize);
  Tcb* parked = pool.Allocate(kDefaultStackSize);
  Tcb* big[4];
  for (Tcb*& t : big) {
    t = pool.Allocate(StackPool::kMaxPooledStackSize);
    ASSERT_NE(nullptr, t);
  }
  ASSERT_NE(nullptr, live);
  ASSERT_NE(nullptr, parked);
  char* parked_base = static_cast<char*>(parked->stack_base);
  char* evicted_base = static_cast<char*>(big[3]->stack_base);
  pool.Free(parked);
  for (Tcb* t : big) {
    pool.Free(t);  // the last one is over budget: unmapped at once
  }
  EXPECT_EQ(StackPool::kPrecached + 3, pool.pooled_stacks());
  // Nothing runs on a parked stack or an unmapped one, so no guard hit there is a thread's.
  ThreadList threads;
  threads.PushBack(live);
  EXPECT_EQ(nullptr, StackPool::GuardOwner(parked_base - 1, live, threads));
  EXPECT_EQ(nullptr, StackPool::GuardOwner(evicted_base - 1, live, threads));
  EXPECT_EQ(nullptr, StackPool::GuardOwner(parked_base - 1, nullptr, threads));
  live->all_link.Unlink();
  pool.Free(live);
}

TEST_F(StackPoolTest, LazyThreadGetsItsRequestedStackSize) {
  static size_t seen = 0;
  seen = 0;
  ThreadAttr attr;
  attr.lazy = true;
  attr.stack_size = 1u << 20;
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, &attr,
                         +[](void*) -> void* {
                           seen = pt_self()->stack_size;
                           return nullptr;
                         },
                         nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));  // activates it
  EXPECT_EQ(size_t{1} << 20, seen);
}

TEST_F(StackPoolTest, WrappingStackSizeFailsWithEagain) {
  // SIZE_MAX - 100 wraps to 0 when rounded up to a page: refused, never mapped.
  ThreadAttr attr;
  attr.stack_size = SIZE_MAX - 100;
  const uint64_t maps = counters::Get(counters::kPoolMaps);
  pt_thread_t t;
  EXPECT_EQ(EAGAIN, pt_create(&t, &attr, +[](void*) -> void* { return nullptr; }, nullptr));
  EXPECT_EQ(maps, counters::Get(counters::kPoolMaps));
  // The runtime is unharmed: an ordinary thread still runs.
  ASSERT_EQ(0, pt_create(&t, nullptr, +[](void*) -> void* { return nullptr; }, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
}

// A first frame far down a fresh 128 KiB stack runs like any other.
__attribute__((noinline)) void* DeepFrameBody(void*) {
  volatile char frame[96 * 1024];
  frame[0] = 1;
  frame[sizeof(frame) - 1] = 2;
  return nullptr;
}

TEST_F(StackPoolTest, DeepFirstFrameRuns) {
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, &DeepFrameBody, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
}

// OS signal frames pushed deep in a thread stack: an RR thread spins about 100 KiB down its
// 128 KiB stack while an RR partner takes turns with it, so every turn the partner gets is a
// SIGALRM slice tick whose signal frame landed below that deep frame.
volatile long g_partner_spins = 0;
volatile bool g_deep_done = false;
size_t g_deep_depth = 0;

__attribute__((noinline)) void* DeepSpinBody(void*) {
  volatile char frame[100 * 1024];
  frame[0] = 1;
  frame[sizeof(frame) - 1] = 2;
  const Tcb* self = pt_self();
  g_deep_depth = static_cast<size_t>(static_cast<char*>(self->stack_base) + self->stack_size -
                                     const_cast<char*>(&frame[0]));
  long seen = g_partner_spins;
  for (int turns = 0; turns < 4;) {
    if (g_partner_spins != seen) {  // the partner ran: we were sliced away and came back
      seen = g_partner_spins;
      ++turns;
    }
  }
  g_deep_done = true;
  return nullptr;
}

TEST_F(StackPoolTest, SliceTicksLandDeepInAThreadStack) {
  g_partner_spins = 0;
  g_deep_done = false;
  pt_enable_time_slicing(1000);
  ThreadAttr rr;
  rr.inherit_policy = false;
  rr.policy = SchedPolicy::kRr;
  pt_thread_t deep, partner;
  ASSERT_EQ(0, pt_create(&deep, &rr, &DeepSpinBody, nullptr));
  ASSERT_EQ(0, pt_create(&partner, &rr,
                         +[](void*) -> void* {
                           while (!g_deep_done) {
                             g_partner_spins = g_partner_spins + 1;
                           }
                           return nullptr;
                         },
                         nullptr));
  ASSERT_EQ(0, pt_join(deep, nullptr));
  ASSERT_EQ(0, pt_join(partner, nullptr));
  pt_disable_time_slicing();
  EXPECT_TRUE(g_deep_done);
  EXPECT_GE(g_deep_depth, size_t{100} * 1024);
  EXPECT_LT(g_deep_depth, size_t{kDefaultStackSize});
}

}  // namespace
}  // namespace fsup
