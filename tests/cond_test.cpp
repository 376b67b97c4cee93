// Condition variables: atomic unlock+wait, relock before return, priority wakeup order,
// broadcast, timedwait, error cases, and the predicate-loop contract.

#include <gtest/gtest.h>

#include <cerrno>
#include <vector>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"

namespace fsup {
namespace {

class CondTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

struct PredWait {
  pt_mutex_t m;
  pt_cond_t c;
  bool flag = false;
  int wakeups = 0;

  void Init() {
    ASSERT_EQ(0, pt_mutex_init(&m));
    ASSERT_EQ(0, pt_cond_init(&c));
  }
  void Destroy() {
    EXPECT_EQ(0, pt_cond_destroy(&c));
    EXPECT_EQ(0, pt_mutex_destroy(&m));
  }
};

void* WaitForFlag(void* p) {
  auto* w = static_cast<PredWait*>(p);
  EXPECT_EQ(0, pt_mutex_lock(&w->m));
  while (!w->flag) {
    EXPECT_EQ(0, pt_cond_wait(&w->c, &w->m));
    ++w->wakeups;
  }
  EXPECT_EQ(0, pt_mutex_unlock(&w->m));
  return nullptr;
}

TEST_F(CondTest, SignalWakesWaiter) {
  PredWait w;
  w.Init();
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, &WaitForFlag, &w));
  pt_yield();  // waiter blocks
  ASSERT_EQ(0, pt_mutex_lock(&w.m));
  w.flag = true;
  ASSERT_EQ(0, pt_cond_signal(&w.c));
  ASSERT_EQ(0, pt_mutex_unlock(&w.m));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(1, w.wakeups);
  w.Destroy();
}

TEST_F(CondTest, WaitReleasesMutexAtomically) {
  PredWait w;
  w.Init();
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, &WaitForFlag, &w));
  pt_yield();
  // If the waiter still held the mutex we would block here forever; instead it must be free.
  EXPECT_EQ(0, pt_mutex_trylock(&w.m));
  w.flag = true;
  ASSERT_EQ(0, pt_cond_signal(&w.c));
  ASSERT_EQ(0, pt_mutex_unlock(&w.m));
  ASSERT_EQ(0, pt_join(t, nullptr));
  w.Destroy();
}

TEST_F(CondTest, WaiterRelocksBeforeReturning) {
  PredWait w;
  w.Init();
  struct Arg {
    PredWait* w;
    bool observed_locked = false;
  } arg{&w};
  auto body = +[](void* ap) -> void* {
    auto* a = static_cast<Arg*>(ap);
    EXPECT_EQ(0, pt_mutex_lock(&a->w->m));
    while (!a->w->flag) {
      EXPECT_EQ(0, pt_cond_wait(&a->w->c, &a->w->m));
    }
    a->observed_locked = a->w->m.holder() == pt_self();
    EXPECT_EQ(0, pt_mutex_unlock(&a->w->m));
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, &arg));
  pt_yield();
  ASSERT_EQ(0, pt_mutex_lock(&w.m));
  w.flag = true;
  ASSERT_EQ(0, pt_cond_signal(&w.c));
  ASSERT_EQ(0, pt_mutex_unlock(&w.m));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_TRUE(arg.observed_locked);
  w.Destroy();
}

TEST_F(CondTest, WaitWithoutMutexHeldIsEperm) {
  PredWait w;
  w.Init();
  EXPECT_EQ(EPERM, pt_cond_wait(&w.c, &w.m));
  w.Destroy();
}

TEST_F(CondTest, SignalWithNoWaitersIsNoop) {
  PredWait w;
  w.Init();
  EXPECT_EQ(0, pt_cond_signal(&w.c));
  EXPECT_EQ(0, pt_cond_broadcast(&w.c));
  w.Destroy();
}

TEST_F(CondTest, BroadcastWakesAll) {
  PredWait w;
  w.Init();
  constexpr int kWaiters = 5;
  std::vector<pt_thread_t> ts(kWaiters);
  for (auto& t : ts) {
    ASSERT_EQ(0, pt_create(&t, nullptr, &WaitForFlag, &w));
  }
  pt_yield();
  ASSERT_EQ(0, pt_mutex_lock(&w.m));
  w.flag = true;
  ASSERT_EQ(0, pt_cond_broadcast(&w.c));
  ASSERT_EQ(0, pt_mutex_unlock(&w.m));
  for (auto& t : ts) {
    ASSERT_EQ(0, pt_join(t, nullptr));
  }
  EXPECT_EQ(kWaiters, w.wakeups);
  w.Destroy();
}

struct OrderArg {
  PredWait* w;
  std::vector<int>* order;
  int id;
};

void* WaitThenRecord(void* ap) {
  auto* a = static_cast<OrderArg*>(ap);
  EXPECT_EQ(0, pt_mutex_lock(&a->w->m));
  while (!a->w->flag) {
    EXPECT_EQ(0, pt_cond_wait(&a->w->c, &a->w->m));
    if (a->w->flag) {
      break;
    }
  }
  a->order->push_back(a->id);
  EXPECT_EQ(0, pt_mutex_unlock(&a->w->m));
  return nullptr;
}

TEST_F(CondTest, SignalWakesHighestPriorityWaiter) {
  // Paper: "If more than one thread is blocked on a condition variable, the thread with the
  // highest priority will become ready."
  PredWait w;
  w.Init();
  std::vector<int> order;
  OrderArg lo{&w, &order, 1};
  OrderArg hi{&w, &order, 2};
  ThreadAttr a_lo = MakeThreadAttr(kDefaultPrio - 1);
  ThreadAttr a_hi = MakeThreadAttr(kDefaultPrio - 0);
  pt_thread_t t_lo, t_hi;
  ASSERT_EQ(0, pt_create(&t_lo, &a_lo, &WaitThenRecord, &lo));
  ASSERT_EQ(0, pt_create(&t_hi, &a_hi, &WaitThenRecord, &hi));
  // Let both block: the equal-priority hi blocks on yield; lower lo needs us to lower too.
  pt_yield();
  ASSERT_EQ(0, pt_setprio(pt_self(), kDefaultPrio - 2));
  ASSERT_EQ(0, pt_mutex_lock(&w.m));
  w.flag = true;
  ASSERT_EQ(0, pt_cond_broadcast(&w.c));
  ASSERT_EQ(0, pt_mutex_unlock(&w.m));
  ASSERT_EQ(0, pt_join(t_lo, nullptr));
  ASSERT_EQ(0, pt_join(t_hi, nullptr));
  ASSERT_EQ(2u, order.size());
  EXPECT_EQ(2, order[0]);  // higher priority woke (and ran) first
  EXPECT_EQ(1, order[1]);
  w.Destroy();
}

TEST_F(CondTest, PriorityRaisedWhileWaitingReordersTheWaiters) {
  // B waits before A at equal priority; raising A while it waits moves it ahead of B, so one
  // signal wakes A first.
  PredWait w;
  w.Init();
  std::vector<int> order;
  OrderArg b{&w, &order, 1};
  OrderArg a{&w, &order, 2};
  pt_thread_t t_b, t_a;
  ASSERT_EQ(0, pt_create(&t_b, nullptr, &WaitThenRecord, &b));
  pt_yield();  // B blocks on the cond
  ASSERT_EQ(0, pt_create(&t_a, nullptr, &WaitThenRecord, &a));
  pt_yield();  // A blocks behind B
  ASSERT_EQ(0, pt_setprio(t_a, kDefaultPrio + 1));
  ASSERT_EQ(0, pt_mutex_lock(&w.m));
  w.flag = true;
  ASSERT_EQ(0, pt_cond_signal(&w.c));
  ASSERT_EQ(0, pt_mutex_unlock(&w.m));
  pt_yield();  // the woken waiter runs and records before the second signal
  ASSERT_EQ((std::vector<int>{2}), order);
  ASSERT_EQ(0, pt_mutex_lock(&w.m));
  ASSERT_EQ(0, pt_cond_signal(&w.c));
  ASSERT_EQ(0, pt_mutex_unlock(&w.m));
  ASSERT_EQ(0, pt_join(t_a, nullptr));
  ASSERT_EQ(0, pt_join(t_b, nullptr));
  EXPECT_EQ((std::vector<int>{2, 1}), order);
  w.Destroy();
}

TEST_F(CondTest, TimedWaitTimesOut) {
  PredWait w;
  w.Init();
  ASSERT_EQ(0, pt_mutex_lock(&w.m));
  const int rc = pt_cond_timedwait(&w.c, &w.m, 20 * 1000 * 1000);  // 20ms
  EXPECT_EQ(ETIMEDOUT, rc);
  EXPECT_EQ(pt_self(), w.m.holder());  // mutex re-held even on timeout
  ASSERT_EQ(0, pt_mutex_unlock(&w.m));
  w.Destroy();
}

TEST_F(CondTest, TimedWaitSignalBeatsTimeout) {
  PredWait w;
  w.Init();
  struct Arg {
    PredWait* w;
    int rc = -1;
  } arg{&w};
  auto body = +[](void* ap) -> void* {
    auto* a = static_cast<Arg*>(ap);
    EXPECT_EQ(0, pt_mutex_lock(&a->w->m));
    while (!a->w->flag) {
      a->rc = pt_cond_timedwait(&a->w->c, &a->w->m, 500 * 1000 * 1000);
      if (a->rc != 0) {
        break;
      }
    }
    EXPECT_EQ(0, pt_mutex_unlock(&a->w->m));
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, &arg));
  pt_yield();
  ASSERT_EQ(0, pt_mutex_lock(&w.m));
  w.flag = true;
  ASSERT_EQ(0, pt_cond_signal(&w.c));
  ASSERT_EQ(0, pt_mutex_unlock(&w.m));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(0, arg.rc);
  w.Destroy();
}

TEST_F(CondTest, DestroyWithWaitersIsEbusy) {
  PredWait w;
  w.Init();
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, &WaitForFlag, &w));
  pt_yield();
  EXPECT_EQ(EBUSY, pt_cond_destroy(&w.c));
  ASSERT_EQ(0, pt_mutex_lock(&w.m));
  w.flag = true;
  ASSERT_EQ(0, pt_cond_signal(&w.c));
  ASSERT_EQ(0, pt_mutex_unlock(&w.m));
  ASSERT_EQ(0, pt_join(t, nullptr));
  w.Destroy();
}

TEST_F(CondTest, InvalidArgsRejected) {
  PredWait w;
  w.Init();
  EXPECT_EQ(EINVAL, pt_cond_wait(nullptr, &w.m));
  EXPECT_EQ(EINVAL, pt_cond_wait(&w.c, nullptr));
  pt_cond_t uninit{};
  EXPECT_EQ(EINVAL, pt_cond_signal(&uninit));
  EXPECT_EQ(EINVAL, pt_cond_timedwait(&w.c, &w.m, -5));
  w.Destroy();
}

TEST_F(CondTest, PingPongHandshake) {
  // Two threads alternate through one cond var; total round count must be exact.
  struct Shared {
    pt_mutex_t m;
    pt_cond_t c;
    int turn = 0;
    int rounds = 0;
  } s;
  ASSERT_EQ(0, pt_mutex_init(&s.m));
  ASSERT_EQ(0, pt_cond_init(&s.c));
  constexpr int kRounds = 200;
  struct Arg {
    Shared* s;
    int me;
  } a0{&s, 0}, a1{&s, 1};
  auto body = +[](void* ap) -> void* {
    auto* a = static_cast<Arg*>(ap);
    Shared* s = a->s;
    EXPECT_EQ(0, pt_mutex_lock(&s->m));
    while (s->rounds < kRounds) {
      while (s->turn != a->me && s->rounds < kRounds) {
        EXPECT_EQ(0, pt_cond_wait(&s->c, &s->m));
      }
      if (s->rounds >= kRounds) {
        break;
      }
      s->turn = 1 - a->me;
      ++s->rounds;
      EXPECT_EQ(0, pt_cond_broadcast(&s->c));
    }
    EXPECT_EQ(0, pt_cond_broadcast(&s->c));
    EXPECT_EQ(0, pt_mutex_unlock(&s->m));
    return nullptr;
  };
  pt_thread_t t0, t1;
  ASSERT_EQ(0, pt_create(&t0, nullptr, body, &a0));
  ASSERT_EQ(0, pt_create(&t1, nullptr, body, &a1));
  ASSERT_EQ(0, pt_join(t0, nullptr));
  ASSERT_EQ(0, pt_join(t1, nullptr));
  EXPECT_EQ(kRounds, s.rounds);
  EXPECT_EQ(0, pt_cond_destroy(&s.c));
  EXPECT_EQ(0, pt_mutex_destroy(&s.m));
}

}  // namespace
}  // namespace fsup
