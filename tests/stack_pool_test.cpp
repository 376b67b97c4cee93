// Size-classed stack pool edge cases: class geometry, per-class recycling, the non-pow2
// bypass, the bytes-based recycle budget with largest-first eviction, lazy-commit demand
// paging (unit level via ClassifyStackFault and end-to-end via a deep-frame thread), the
// mapping registry (recycled, parked and evicted stacks), and the watermark of a stack no
// larger than the initial commit.

#include <gtest/gtest.h>

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
  StackPool pool(0);
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
  EXPECT_EQ(2u, pool.pooled_stacks());
  EXPECT_EQ(kMinStackSize * 5, pool.pooled_bytes());

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
  StackPool pool(0);
  Tcb* t = pool.Allocate(kMinStackSize * 3);
  ASSERT_NE(nullptr, t);
  EXPECT_FALSE(t->stack_pooled);
  EXPECT_GE(t->stack_size, kMinStackSize * 3);
  // Freed odd-size stacks are unmapped, not hoarded on a list no class can serve.
  pool.Free(t);
  EXPECT_EQ(0u, pool.pooled_stacks());
  EXPECT_EQ(0u, pool.pooled_bytes());
}

TEST_F(StackPoolTest, BudgetEvictsLargestFirst) {
  // Budget below big+small: freeing both must evict the 1 MiB stack and keep the 16 KiB one
  // (largest-first bounds address-space pinning while keeping the cheap, common classes warm).
  StackPool pool(0, 65536);
  EXPECT_EQ(65536u, pool.pool_budget_bytes());
  Tcb* big = pool.Allocate(1u << 20);
  Tcb* small = pool.Allocate(kMinStackSize);
  ASSERT_NE(nullptr, big);
  ASSERT_NE(nullptr, small);
  void* small_base = small->stack_base;
  pool.Free(small);
  EXPECT_EQ(1u, pool.pooled_stacks());  // under budget: kept
  pool.Free(big);
  EXPECT_EQ(1u, pool.pooled_stacks());  // over budget: the 1 MiB entry was evicted
  EXPECT_EQ(size_t{kMinStackSize}, pool.pooled_bytes());

  Tcb* small2 = pool.Allocate(kMinStackSize);
  ASSERT_NE(nullptr, small2);
  EXPECT_EQ(small_base, small2->stack_base);
  pool.Free(small2);
}

TEST_F(StackPoolTest, TcbSlotsComeFromTheSlabFreeList) {
  StackPool pool(0);
  Tcb* t = pool.Allocate(kMinStackSize);
  ASSERT_NE(nullptr, t);
  pool.Free(t);
  // LIFO slab free list: the very next allocation reuses the slot — creation touches no
  // allocator once warm (the paper's pre-cache claim, TCB half).
  Tcb* t2 = pool.Allocate(kMinStackSize);
  EXPECT_EQ(static_cast<void*>(t), static_cast<void*>(t2));
  pool.Free(t2);
}

TEST_F(StackPoolTest, ClassifyStackFaultResolvesLazyAndGuardFaults) {
  const uint64_t commits = counters::Get(counters::kPoolLazyCommits);
  StackPool pool(0);
  Tcb* t1 = pool.Allocate(kDefaultStackSize);
  Tcb* t2 = pool.Allocate(kDefaultStackSize);
  ASSERT_NE(nullptr, t1);
  ASSERT_NE(nullptr, t2);
  char* base2 = static_cast<char*>(t2->stack_base);
  ASSERT_GT(t2->stack_commit_lo, base2);  // a lazy band exists below the watermark

  // A write deep below t2's watermark, with some OTHER thread current: the ordered registry
  // finds the owner and commits in place.
  auto r = pool.ClassifyStackFault(base2 + 64, t1);
  EXPECT_EQ(StackFaultInfo::Kind::kCommitted, r.kind);
  EXPECT_EQ(t2, r.thread);
  EXPECT_EQ(base2, t2->stack_commit_lo);
  EXPECT_EQ(commits + 1, counters::Get(counters::kPoolLazyCommits));

  // The same address again is a real fault now (committed pages don't re-fault) — it must
  // not be swallowed as demand paging.
  r = pool.ClassifyStackFault(base2 + 64, t1);
  EXPECT_EQ(StackFaultInfo::Kind::kNone, r.kind);

  // Guard-page hits classify as overflow with the right victim, current thread or not.
  r = pool.ClassifyStackFault(base2 - 1, t1);
  EXPECT_EQ(StackFaultInfo::Kind::kOverflow, r.kind);
  EXPECT_EQ(t2, r.thread);
  char* base1 = static_cast<char*>(t1->stack_base);
  r = pool.ClassifyStackFault(base1 - 1, t1);
  EXPECT_EQ(StackFaultInfo::Kind::kOverflow, r.kind);
  EXPECT_EQ(t1, r.thread);

  // An address on no registered stack is nobody's business.
  int on_main_stack = 0;
  r = pool.ClassifyStackFault(&on_main_stack, t1);
  EXPECT_EQ(StackFaultInfo::Kind::kNone, r.kind);

  pool.Free(t1);
  pool.Free(t2);
}

TEST_F(StackPoolTest, FaultsOnARecycledStackNameTheCurrentTenant) {
  StackPool pool(0);
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
  ASSERT_GT(tenant->stack_commit_lo, base);  // the first tenant never grew it

  auto r = pool.ClassifyStackFault(base + 64, other);
  EXPECT_EQ(StackFaultInfo::Kind::kCommitted, r.kind);
  EXPECT_EQ(tenant, r.thread);
  EXPECT_EQ(base, tenant->stack_commit_lo);
  r = pool.ClassifyStackFault(base - 1, other);
  EXPECT_EQ(StackFaultInfo::Kind::kOverflow, r.kind);
  EXPECT_EQ(tenant, r.thread);
  pool.Free(other);
  pool.Free(tenant);
}

TEST_F(StackPoolTest, ParkedStackStaysRegisteredButOwnsNoFaults) {
  const uint64_t commits = counters::Get(counters::kPoolLazyCommits);
  StackPool pool(0);
  Tcb* t = pool.Allocate(kDefaultStackSize);
  ASSERT_NE(nullptr, t);
  char* base = static_cast<char*>(t->stack_base);
  EXPECT_EQ(1u, pool.registered_stacks());
  pool.Free(t);
  // Parking a stack does not touch the registry (only map and unmap do), but nothing runs on
  // a parked stack, so no fault on it is a thread's.
  EXPECT_EQ(1u, pool.pooled_stacks());
  EXPECT_EQ(1u, pool.registered_stacks());
  EXPECT_EQ(StackFaultInfo::Kind::kNone, pool.ClassifyStackFault(base + 64, nullptr).kind);
  EXPECT_EQ(StackFaultInfo::Kind::kNone, pool.ClassifyStackFault(base - 1, nullptr).kind);
  EXPECT_EQ(commits, counters::Get(counters::kPoolLazyCommits));
}

TEST_F(StackPoolTest, EvictedStackLeavesTheRegistry) {
  StackPool pool(0, 65536);
  Tcb* big = pool.Allocate(1u << 20);
  ASSERT_NE(nullptr, big);
  char* base = static_cast<char*>(big->stack_base);
  pool.Free(big);  // over budget: unmapped at once
  EXPECT_EQ(0u, pool.pooled_stacks());
  EXPECT_EQ(0u, pool.registered_stacks());
  EXPECT_EQ(StackFaultInfo::Kind::kNone, pool.ClassifyStackFault(base + 64, nullptr).kind);
  EXPECT_EQ(StackFaultInfo::Kind::kNone, pool.ClassifyStackFault(base - 1, nullptr).kind);
}

TEST_F(StackPoolTest, RecycledStackKeepsItsCommitWatermark) {
  StackPool pool(0);
  Tcb* t = pool.Allocate(kDefaultStackSize);
  ASSERT_NE(nullptr, t);
  char* base = static_cast<char*>(t->stack_base);
  ASSERT_TRUE(StackPool::CommitFaultOnThread(base + 64, t));  // fully commit
  EXPECT_EQ(base, t->stack_commit_lo);
  pool.Free(t);
  // The recycled stack comes back warm: already-committed pages are not re-reserved, so the
  // next tenant pays no demand faults for them.
  Tcb* t2 = pool.Allocate(kDefaultStackSize);
  ASSERT_NE(nullptr, t2);
  EXPECT_EQ(base, static_cast<char*>(t2->stack_base));
  EXPECT_EQ(base, t2->stack_commit_lo);
  pool.Free(t2);
}

TEST_F(StackPoolTest, MinimumStackIsBornFullyCommitted) {
  // A kMinStackSize stack is no larger than the initial commit, which MapStack clamps to the
  // stack: the watermark it reports sits exactly at the base, never below it.
  ASSERT_LE(kMinStackSize, hostos::kStackInitialCommitPages * hostos::PageSize());
  StackPool pool(0);
  Tcb* t = pool.Allocate(kMinStackSize);
  ASSERT_NE(nullptr, t);
  // Watermark at the base: no lazy band, every page is RW from birth.
  EXPECT_EQ(static_cast<char*>(t->stack_base), t->stack_commit_lo);
  EXPECT_EQ(StackFaultInfo::Kind::kNone,
            pool.ClassifyStackFault(static_cast<char*>(t->stack_base) + 64, t).kind);
  pool.Free(t);
}

// End-to-end demand paging: a thread whose first frame lands far below the initial commit
// faults once, the SIGSEGV handler commits the reservation, and the thread never notices.
__attribute__((noinline)) void* DeepFrameBody(void*) {
  volatile char frame[96 * 1024];  // default stack 128 KiB, initial commit far smaller
  frame[0] = 1;
  frame[sizeof(frame) - 1] = 2;
  return nullptr;
}

TEST_F(StackPoolTest, DeepFirstFrameIsDemandCommittedTransparently) {
  const uint64_t before = probe::StackPoolLazyCommits();
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, &DeepFrameBody, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_GE(probe::StackPoolLazyCommits(), before + 1);
}

}  // namespace
}  // namespace fsup
