// Mutex semantics: fast path, contention, handoff order, error cases, trylock, destroy.

#include <gtest/gtest.h>

#include <cerrno>
#include <vector>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"
#include "src/debug/trace.hpp"

namespace fsup {
namespace {

class MutexTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

TEST_F(MutexTest, InitLockUnlockDestroy) {
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  EXPECT_EQ(0, pt_mutex_lock(&m));
  EXPECT_EQ(0, pt_mutex_unlock(&m));
  EXPECT_EQ(0, pt_mutex_destroy(&m));
}

TEST_F(MutexTest, FastPathRecordsOwner) {
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  ASSERT_EQ(0, pt_mutex_lock(&m));
  EXPECT_EQ(pt_self(), m.holder());  // Figure 4: owner recorded atomically with the lock
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  EXPECT_EQ(nullptr, m.holder());
  pt_mutex_destroy(&m);
}

TEST_F(MutexTest, RelockByOwnerIsDeadlockError) {
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  ASSERT_EQ(0, pt_mutex_lock(&m));
  EXPECT_EQ(EDEADLK, pt_mutex_lock(&m));
  EXPECT_EQ(EDEADLK, pt_mutex_trylock(&m));
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  pt_mutex_destroy(&m);
}

TEST_F(MutexTest, UnlockByNonOwnerIsEperm) {
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  EXPECT_EQ(EPERM, pt_mutex_unlock(&m));  // not locked at all
  pt_mutex_destroy(&m);
}

TEST_F(MutexTest, UninitializedMutexRejected) {
  pt_mutex_t m{};
  EXPECT_EQ(EINVAL, pt_mutex_lock(&m));
  EXPECT_EQ(EINVAL, pt_mutex_unlock(&m));
  EXPECT_EQ(EINVAL, pt_mutex_lock(nullptr));
}

TEST_F(MutexTest, DestroyLockedMutexIsEbusy) {
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  ASSERT_EQ(0, pt_mutex_lock(&m));
  EXPECT_EQ(EBUSY, pt_mutex_destroy(&m));
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  EXPECT_EQ(0, pt_mutex_destroy(&m));
}

struct ContendArg {
  pt_mutex_t* m;
  std::vector<int>* order;
  int id;
};

void* LockAppendUnlock(void* argp) {
  auto* a = static_cast<ContendArg*>(argp);
  EXPECT_EQ(0, pt_mutex_lock(a->m));
  a->order->push_back(a->id);
  EXPECT_EQ(0, pt_mutex_unlock(a->m));
  return nullptr;
}

TEST_F(MutexTest, ContendedLockBlocksUntilUnlock) {
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  ASSERT_EQ(0, pt_mutex_lock(&m));

  std::vector<int> order;
  ContendArg a{&m, &order, 1};
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, &LockAppendUnlock, &a));
  pt_yield();  // child runs, blocks on the mutex
  EXPECT_TRUE(order.empty());
  ASSERT_EQ(0, pt_mutex_unlock(&m));  // handoff
  ASSERT_EQ(0, pt_join(t, nullptr));
  ASSERT_EQ(1u, order.size());
  pt_mutex_destroy(&m);
}

TEST_F(MutexTest, HandoffWakesHighestPriorityWaiter) {
  // Paper: "the waiting thread with the highest priority will acquire the mutex".
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  ASSERT_EQ(0, pt_mutex_lock(&m));

  std::vector<int> order;
  ContendArg lo{&m, &order, 1};
  ContendArg mid{&m, &order, 2};
  ContendArg hi{&m, &order, 3};
  pt_thread_t t_lo, t_mid, t_hi;
  ThreadAttr a_lo = MakeThreadAttr(kDefaultPrio - 2);
  ThreadAttr a_mid = MakeThreadAttr(kDefaultPrio - 1);
  // Create in low→high order so arrival order differs from priority order.
  ASSERT_EQ(0, pt_create(&t_lo, &a_lo, &LockAppendUnlock, &lo));
  ASSERT_EQ(0, pt_create(&t_mid, &a_mid, &LockAppendUnlock, &mid));
  ASSERT_EQ(0, pt_create(&t_hi, nullptr, &LockAppendUnlock, &hi));
  pt_yield();  // equal-priority hi runs and blocks; lower ones are still queued behind us
  // Drop our priority so the lower-priority contenders also get to run and block.
  ASSERT_EQ(0, pt_setprio(pt_self(), kDefaultPrio - 3));
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  ASSERT_EQ(0, pt_join(t_lo, nullptr));
  ASSERT_EQ(0, pt_join(t_mid, nullptr));
  ASSERT_EQ(0, pt_join(t_hi, nullptr));
  ASSERT_EQ(3u, order.size());
  EXPECT_EQ(3, order[0]);  // highest priority first
  EXPECT_EQ(2, order[1]);
  EXPECT_EQ(1, order[2]);
  pt_mutex_destroy(&m);
}

TEST_F(MutexTest, TrylockOnHeldMutexIsEbusy) {
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  ASSERT_EQ(0, pt_mutex_lock(&m));
  pt_thread_t t;
  auto body = +[](void* mp) -> void* {
    return reinterpret_cast<void*>(
        static_cast<intptr_t>(pt_mutex_trylock(static_cast<pt_mutex_t*>(mp))));
  };
  ASSERT_EQ(0, pt_create(&t, nullptr, body, &m));
  void* rc = nullptr;
  ASSERT_EQ(0, pt_join(t, &rc));
  EXPECT_EQ(EBUSY, static_cast<int>(reinterpret_cast<intptr_t>(rc)));
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  pt_mutex_destroy(&m);
}

TEST_F(MutexTest, TrylockAcquiresFreeMutex) {
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  EXPECT_EQ(0, pt_mutex_trylock(&m));
  EXPECT_EQ(pt_self(), m.holder());
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  pt_mutex_destroy(&m);
}

TEST_F(MutexTest, CriticalSectionCountsAreExact) {
  // N threads increment a counter K times each under one mutex; the total must be exact even
  // with yields inside the critical section forcing interleaving.
  constexpr int kThreads = 8;
  constexpr int kIters = 100;
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  struct Shared {
    pt_mutex_t* m;
    long counter = 0;
  } shared{&m};
  auto body = +[](void* sp) -> void* {
    auto* s = static_cast<Shared*>(sp);
    for (int i = 0; i < kIters; ++i) {
      EXPECT_EQ(0, pt_mutex_lock(s->m));
      const long snapshot = s->counter;
      pt_yield();  // try to get someone else into the critical section
      s->counter = snapshot + 1;
      EXPECT_EQ(0, pt_mutex_unlock(s->m));
    }
    return nullptr;
  };
  std::vector<pt_thread_t> ts(kThreads);
  for (auto& t : ts) {
    ASSERT_EQ(0, pt_create(&t, nullptr, body, &shared));
  }
  for (auto& t : ts) {
    ASSERT_EQ(0, pt_join(t, nullptr));
  }
  EXPECT_EQ(static_cast<long>(kThreads) * kIters, shared.counter);
  pt_mutex_destroy(&m);
}

TEST_F(MutexTest, SlowPathUsedWhenTracing) {
  // With tracing enabled the fast path is disabled and every lock/unlock is recorded.
  debug::trace::Clear();
  debug::trace::Enable(true);
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  ASSERT_EQ(0, pt_mutex_lock(&m));
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  debug::trace::Enable(false);
  bool saw_lock = false, saw_unlock = false;
  for (const debug::trace::Record& r : debug::trace::SnapshotAll()) {
    saw_lock |= r.event == debug::trace::Event::kMutexLock;
    saw_unlock |= r.event == debug::trace::Event::kMutexUnlock;
  }
  EXPECT_TRUE(saw_lock);
  EXPECT_TRUE(saw_unlock);
  pt_mutex_destroy(&m);
}

TEST_F(MutexTest, ContendedAcquireCounterAdvances) {
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  ASSERT_EQ(0, pt_mutex_lock(&m));
  pt_thread_t t;
  ContendArg a{&m, nullptr, 0};
  auto body = +[](void* mp) -> void* {
    auto* mm = static_cast<pt_mutex_t*>(mp);
    EXPECT_EQ(0, pt_mutex_lock(mm));
    EXPECT_EQ(0, pt_mutex_unlock(mm));
    return nullptr;
  };
  (void)a;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, &m));
  pt_yield();
  EXPECT_GE(m.contended_acquires, 1u);
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  ASSERT_EQ(0, pt_join(t, nullptr));
  pt_mutex_destroy(&m);
}

TEST_F(MutexTest, ManyMutexesIndependent) {
  constexpr int kMutexes = 32;
  std::vector<pt_mutex_t> ms(kMutexes);
  for (auto& m : ms) {
    ASSERT_EQ(0, pt_mutex_init(&m));
    ASSERT_EQ(0, pt_mutex_lock(&m));
  }
  for (auto& m : ms) {
    EXPECT_EQ(pt_self(), m.holder());
    ASSERT_EQ(0, pt_mutex_unlock(&m));
    ASSERT_EQ(0, pt_mutex_destroy(&m));
  }
}

}  // namespace
}  // namespace fsup
