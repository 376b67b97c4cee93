// Kernel internals: monitor flags, ready queue, stack pool, host-OS call accounting.

#include <gtest/gtest.h>

#include "src/core/bench_probes.hpp"
#include "src/core/pthread.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/kernel/kernel.hpp"
#include "src/kernel/ready_queue.hpp"
#include "src/kernel/stack_pool.hpp"

namespace fsup {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

TEST_F(KernelTest, EnterExitTogglesFlag) {
  EXPECT_FALSE(kernel::InKernel());
  kernel::Enter();
  EXPECT_TRUE(kernel::InKernel());
  kernel::Exit();
  EXPECT_FALSE(kernel::InKernel());
}

TEST_F(KernelTest, EnterExitProbeIsBalanced) {
  for (int i = 0; i < 1000; ++i) {
    kernel::EnterExitProbe();
  }
  EXPECT_FALSE(kernel::InKernel());
}

TEST_F(KernelTest, MainThreadIsCurrent) {
  KernelState& k = kernel::ks();
  EXPECT_EQ(k.main_tcb, k.current);
  EXPECT_EQ(ThreadState::kRunning, k.current->state);
  EXPECT_EQ(1u, k.live_threads);
  EXPECT_STREQ("main", k.main_tcb->name);
}

TEST_F(KernelTest, ReadyQueuePriorityOrder) {
  ReadyQueue q;
  Tcb a, b, c;
  a.prio = 5;
  b.prio = 10;
  c.prio = 5;
  q.PushBack(&a);
  q.PushBack(&b);
  q.PushBack(&c);
  EXPECT_EQ(10, q.TopPrio());
  EXPECT_EQ(3u, q.size());
  EXPECT_EQ(&b, q.PopHighest());
  EXPECT_EQ(&a, q.PopHighest());  // FIFO within a level
  EXPECT_EQ(&c, q.PopHighest());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(-1, q.TopPrio());
  EXPECT_EQ(nullptr, q.PopHighest());
}

TEST_F(KernelTest, ReadyQueuePushFrontJumpsItsLevel) {
  ReadyQueue q;
  Tcb a, b;
  a.prio = b.prio = 7;
  q.PushBack(&a);
  q.PushFront(&b);
  EXPECT_EQ(&b, q.PopHighest());
  EXPECT_EQ(&a, q.PopHighest());
}

TEST_F(KernelTest, ReadyQueueEraseMaintainsBitmap) {
  ReadyQueue q;
  Tcb a, b;
  a.prio = 3;
  b.prio = 9;
  q.PushBack(&a);
  q.PushBack(&b);
  q.Erase(&b);
  EXPECT_EQ(3, q.TopPrio());
  q.Erase(&a);
  EXPECT_TRUE(q.empty());
  q.Erase(&a);  // double erase is a no-op
}

TEST_F(KernelTest, ReadyQueuePopLowestAndNth) {
  ReadyQueue q;
  Tcb a, b, c;
  a.prio = 1;
  b.prio = 5;
  c.prio = 9;
  q.PushBack(&a);
  q.PushBack(&b);
  q.PushBack(&c);
  EXPECT_EQ(&a, q.PopLowest());
  EXPECT_EQ(&b, q.PopNth(1));  // order: c(9), b(5) → index 1 is b
  EXPECT_EQ(&c, q.PopNth(0));
}

TEST_F(KernelTest, PushBackLowestLevelParksBehindEveryone) {
  ReadyQueue q;
  Tcb lo, hi;
  lo.prio = 2;
  hi.prio = 20;
  q.PushBack(&lo);
  q.PushBackLowestLevel(&hi);  // parked at level 2 despite prio 20
  EXPECT_EQ(&lo, q.PopHighest());
  EXPECT_EQ(&hi, q.PopHighest());
  EXPECT_EQ(20, hi.prio);  // the priority field is untouched
}

TEST_F(KernelTest, StackPoolRecyclesDefaultStacks) {
  StackPool pool;
  Tcb* t1 = pool.Allocate(kDefaultStackSize);
  ASSERT_NE(nullptr, t1);
  void* stack1 = t1->stack_base;
  pool.Free(t1);
  Tcb* t2 = pool.Allocate(kDefaultStackSize);
  ASSERT_NE(nullptr, t2);
  EXPECT_EQ(stack1, t2->stack_base);  // recycled, no fresh mmap
  pool.Free(t2);
}

TEST_F(KernelTest, StackPoolGuardPageBelowStack) {
  StackPool pool;
  Tcb* t = pool.Allocate(kDefaultStackSize);
  ASSERT_NE(nullptr, t);
  const char* base = static_cast<const char*>(t->stack_base);
  EXPECT_TRUE(hostos::InGuardPage(base - 1, t->stack_base));
  EXPECT_FALSE(hostos::InGuardPage(base, t->stack_base));
  EXPECT_FALSE(hostos::InGuardPage(base - hostos::PageSize() - 1, t->stack_base));
  pool.Free(t);
}

TEST_F(KernelTest, StackPoolOddSizesBypassPool) {
  StackPool pool;
  const uint64_t maps_before = counters::Get(counters::kPoolMaps);
  Tcb* t = pool.Allocate(kDefaultStackSize * 4);
  ASSERT_NE(nullptr, t);
  EXPECT_EQ(maps_before + 1, counters::Get(counters::kPoolMaps));
  EXPECT_GE(t->stack_size, kDefaultStackSize * 4);
  pool.Free(t);
}

TEST_F(KernelTest, WarmCreationPerformsNoStackMaps) {
  // The paper's pooling claim: with a warm pool, thread creation allocates nothing.
  pt_thread_t t;
  auto body = +[](void*) -> void* { return nullptr; };
  // Warm up: create and join once so the pool holds a recycled stack.
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  const uint64_t maps_before = probe::StackPoolMaps();
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
    ASSERT_EQ(0, pt_join(t, nullptr));
  }
  EXPECT_EQ(maps_before, probe::StackPoolMaps());
}

TEST_F(KernelTest, UnixKernelProbeWorks) {
  EXPECT_GT(probe::UnixKernelEnterExit(), 0);  // pid of this process
}

TEST_F(KernelTest, HostCallCountersAdvance) {
  hostos::ResetCallCounts();
  sigset_t cur;
  hostos::Sigprocmask(SIG_BLOCK, nullptr, &cur);
  EXPECT_EQ(1u, hostos::CallCount(hostos::Call::kSigprocmask));
}

TEST_F(KernelTest, ReinitResetsState) {
  pt_thread_t t;
  auto body = +[](void*) -> void* { return nullptr; };
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_GT(pt_stats().ctx_switches, 0u);
  pt_reinit();
  EXPECT_EQ(0u, pt_stats().ctx_switches);
  EXPECT_EQ(1u, pt_stats().live_threads);
  // The runtime is fully functional after the reset.
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  ASSERT_EQ(0, pt_join(t, nullptr));
}

}  // namespace
}  // namespace fsup
