// Thread lifecycle: create, join, detach, exit, yield, identities, attributes, lazy creation.

#include <gtest/gtest.h>

#include <cerrno>
#include <vector>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"
#include "src/kernel/kernel.hpp"

namespace fsup {
namespace {

class ThreadTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

void* ReturnArg(void* arg) { return arg; }

void* AddOne(void* arg) {
  auto* n = static_cast<int*>(arg);
  ++*n;
  return n;
}

TEST_F(ThreadTest, CreateAndJoinReturnsEntryValue) {
  pt_thread_t t;
  int x = 41;
  ASSERT_EQ(0, pt_create(&t, nullptr, &AddOne, &x));
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(&x, ret);
  EXPECT_EQ(42, x);
}

TEST_F(ThreadTest, JoinNullRetvalAllowed) {
  pt_thread_t t;
  int x = 0;
  ASSERT_EQ(0, pt_create(&t, nullptr, &AddOne, &x));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(1, x);
}

TEST_F(ThreadTest, ManyThreadsAllRun) {
  constexpr int kThreads = 50;
  std::vector<pt_thread_t> ts(kThreads);
  std::vector<int> vals(kThreads, 0);
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(0, pt_create(&ts[i], nullptr, &AddOne, &vals[i]));
  }
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(0, pt_join(ts[i], nullptr));
    EXPECT_EQ(1, vals[i]);
  }
}

TEST_F(ThreadTest, SelfJoinIsDeadlockError) {
  EXPECT_EQ(EDEADLK, pt_join(pt_self(), nullptr));
}

TEST_F(ThreadTest, JoinInvalidHandleIsEsrch) {
  Tcb bogus;
  EXPECT_EQ(ESRCH, pt_join(&bogus, nullptr));
  EXPECT_EQ(ESRCH, pt_join(nullptr, nullptr));
}

void* ExitWithValue(void*) {
  pt_exit(reinterpret_cast<void*>(0x1234));
}

TEST_F(ThreadTest, PtExitValueReachesJoiner) {
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, &ExitWithValue, nullptr));
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(reinterpret_cast<void*>(0x1234), ret);
}

TEST_F(ThreadTest, DetachedThreadCannotBeJoined) {
  ThreadAttr a;
  a.detached = true;
  pt_thread_t t;
  int x = 0;
  ASSERT_EQ(0, pt_create(&t, &a, &AddOne, &x));
  const int rc = pt_join(t, nullptr);
  EXPECT_TRUE(rc == EINVAL || rc == ESRCH) << rc;  // ESRCH if already reaped
  pt_yield();  // let it run
}

TEST_F(ThreadTest, DetachAfterTerminationReclaims) {
  pt_thread_t t;
  int x = 0;
  ASSERT_EQ(0, pt_create(&t, nullptr, &AddOne, &x));
  pt_yield();  // default equal priority: FIFO runs it to completion on yield
  EXPECT_EQ(1, x);
  EXPECT_EQ(0, pt_detach(t));
}

TEST_F(ThreadTest, DetachLiveThreadReapsItAfterExit) {
  pt_thread_t t;
  int x = 0;
  ASSERT_EQ(0, pt_create(&t, nullptr, &AddOne, &x));
  ASSERT_EQ(0, pt_detach(t));  // still live: only marked, reaped once it has ended
  EXPECT_EQ(EINVAL, pt_detach(t));
  EXPECT_EQ(EINVAL, pt_join(t, nullptr));
  EXPECT_EQ(2u, kernel::ks().all_threads.size());
  pt_yield();  // it runs to completion; the switch back here reaps the zombie it left
  EXPECT_EQ(1, x);
  EXPECT_EQ(1u, pt_stats().live_threads);
  EXPECT_EQ(1u, kernel::ks().all_threads.size());
}

TEST_F(ThreadTest, DoubleDetachFails) {
  ThreadAttr a;
  a.detached = true;
  pt_thread_t t;
  int x = 0;
  ASSERT_EQ(0, pt_create(&t, &a, &AddOne, &x));
  const int rc = pt_detach(t);
  EXPECT_TRUE(rc == EINVAL || rc == ESRCH);
  pt_yield();
}

TEST_F(ThreadTest, SelfAndEqual) {
  pt_thread_t self = pt_self();
  EXPECT_TRUE(pt_equal(self, pt_self()));
  EXPECT_NE(0u, pt_id(self));
}

void* CaptureSelf(void* arg) {
  *static_cast<pt_thread_t*>(arg) = pt_self();
  return nullptr;
}

TEST_F(ThreadTest, ChildSelfMatchesHandle) {
  pt_thread_t t;
  pt_thread_t seen = nullptr;
  ASSERT_EQ(0, pt_create(&t, nullptr, &CaptureSelf, &seen));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_TRUE(pt_equal(t, seen));
}

TEST_F(ThreadTest, HigherPriorityChildPreemptsCreator) {
  // The creator runs at kDefaultPrio; a higher-priority child must run to completion at
  // creation time, before pt_create returns.
  ThreadAttr a = MakeThreadAttr(kDefaultPrio + 1);
  pt_thread_t t;
  int x = 0;
  ASSERT_EQ(0, pt_create(&t, &a, &AddOne, &x));
  EXPECT_EQ(1, x);  // already ran
  ASSERT_EQ(0, pt_join(t, nullptr));
}

TEST_F(ThreadTest, LowerPriorityChildWaitsForJoin) {
  ThreadAttr a = MakeThreadAttr(kDefaultPrio - 1);
  pt_thread_t t;
  int x = 0;
  ASSERT_EQ(0, pt_create(&t, &a, &AddOne, &x));
  EXPECT_EQ(0, x);  // lower priority: cannot have run yet
  pt_yield();       // yield does not help either — we still outrank it
  EXPECT_EQ(0, x);
  ASSERT_EQ(0, pt_join(t, nullptr));  // blocking lets it run
  EXPECT_EQ(1, x);
}

TEST_F(ThreadTest, PriorityInheritedFromCreatorByDefault) {
  pt_thread_t t;
  int x = 0;
  ASSERT_EQ(0, pt_create(&t, nullptr, &AddOne, &x));
  int prio = -1;
  ASSERT_EQ(0, pt_getprio(t, &prio));
  int self_prio = -1;
  ASSERT_EQ(0, pt_getprio(pt_self(), &self_prio));
  EXPECT_EQ(self_prio, prio);
  ASSERT_EQ(0, pt_join(t, nullptr));
}

TEST_F(ThreadTest, InvalidPriorityRejected) {
  pt_thread_t t;
  ThreadAttr a = MakeThreadAttr(kMaxPrio + 1);
  EXPECT_EQ(EINVAL, pt_create(&t, &a, &ReturnArg, nullptr));
  EXPECT_EQ(EINVAL, pt_setprio(pt_self(), -5));
}

TEST_F(ThreadTest, YieldBetweenEqualPriorityThreadsRoundRobins) {
  constexpr int kRounds = 3;
  static std::vector<int>* order;
  std::vector<int> local_order;
  order = &local_order;
  struct Arg {
    int id;
  };
  auto body = +[](void* argp) -> void* {
    const int id = static_cast<Arg*>(argp)->id;
    for (int r = 0; r < kRounds; ++r) {
      order->push_back(id);
      pt_yield();
    }
    return nullptr;
  };
  Arg a1{1}, a2{2};
  pt_thread_t t1, t2;
  ASSERT_EQ(0, pt_create(&t1, nullptr, body, &a1));
  ASSERT_EQ(0, pt_create(&t2, nullptr, body, &a2));
  ASSERT_EQ(0, pt_join(t1, nullptr));
  ASSERT_EQ(0, pt_join(t2, nullptr));
  // Strict alternation 1,2,1,2,...
  ASSERT_EQ(2 * kRounds, static_cast<int>(local_order.size()));
  for (int i = 0; i < 2 * kRounds; ++i) {
    EXPECT_EQ(i % 2 == 0 ? 1 : 2, local_order[i]) << i;
  }
}

TEST_F(ThreadTest, LazyThreadDoesNotRunUntilActivated) {
  ThreadAttr a = MakeLazyAttr(kDefaultPrio + 1);  // higher prio: would run instantly if live
  pt_thread_t t;
  int x = 0;
  ASSERT_EQ(0, pt_create(&t, &a, &AddOne, &x));
  EXPECT_EQ(0, x);  // deferred: no stack, no dispatch
  ASSERT_EQ(0, pt_activate(t));
  EXPECT_EQ(1, x);  // higher priority: preempted us at activation
  ASSERT_EQ(0, pt_join(t, nullptr));
}

TEST_F(ThreadTest, JoinActivatesLazyThread) {
  ThreadAttr a = MakeLazyAttr(-1);
  pt_thread_t t;
  int x = 0;
  ASSERT_EQ(0, pt_create(&t, &a, &AddOne, &x));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(1, x);
}

TEST_F(ThreadTest, StatsCountSwitches) {
  const RuntimeStats before = pt_stats();
  pt_thread_t t;
  int x = 0;
  ASSERT_EQ(0, pt_create(&t, nullptr, &AddOne, &x));
  ASSERT_EQ(0, pt_join(t, nullptr));
  const RuntimeStats after = pt_stats();
  EXPECT_GT(after.ctx_switches, before.ctx_switches);
  EXPECT_EQ(1u, after.live_threads);
}

TEST_F(ThreadTest, NamedThreadKeepsName) {
  ThreadAttr a = MakeThreadAttr(-1, "worker-7");
  pt_thread_t t;
  int x = 0;
  ASSERT_EQ(0, pt_create(&t, &a, &AddOne, &x));
  EXPECT_STREQ("worker-7", t->name);
  ASSERT_EQ(0, pt_join(t, nullptr));
}

void* Chain(void* arg) {
  auto depth = reinterpret_cast<intptr_t>(arg);
  if (depth == 0) {
    return nullptr;
  }
  pt_thread_t t;
  if (pt_create(&t, nullptr, &Chain, reinterpret_cast<void*>(depth - 1)) != 0) {
    return reinterpret_cast<void*>(-1);
  }
  void* ret = nullptr;
  pt_join(t, &ret);
  return ret;
}

TEST_F(ThreadTest, NestedCreateJoinChain) {
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, &Chain, reinterpret_cast<void*>(20)));
  void* ret = reinterpret_cast<void*>(-1);
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(nullptr, ret);
}

}  // namespace
}  // namespace fsup
