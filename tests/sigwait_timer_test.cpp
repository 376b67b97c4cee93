// sigwait, per-thread alarms, pt_delay, and SCHED_RR time slicing — the timer half of the
// signal machinery, driven by the real interval timer.

#include <gtest/gtest.h>

#include <unistd.h>

#include <csignal>
#include <cerrno>
#include <ctime>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/util/counters.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

class SigwaitTimerTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

TEST_F(SigwaitTimerTest, SigwaitConsumesDirectedSignal) {
  struct Arg {
    int got = 0;
    int rc = -1;
  };
  static Arg a;
  a = Arg{};
  auto body = +[](void*) -> void* {
    a.rc = pt_sigwait(SigBit(SIGUSR1) | SigBit(SIGUSR2), &a.got);
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();  // waiter suspends in sigwait
  ASSERT_EQ(0, pt_kill(t, SIGUSR2));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(0, a.rc);
  EXPECT_EQ(SIGUSR2, a.got);
}

TEST_F(SigwaitTimerTest, SecondSignalBeforeTheWokenWaiterRunsPendsForIt) {
  // The first SIGUSR2 wakes an equal-priority waiter, which does not run before main yields.
  // The second must pend at the process level for the waiter's next pt_sigwait: the woken
  // waiter no longer counts as unmasked for it (it would take the default action, which
  // ends the process).
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR2), nullptr));
  static int taken = 0;
  taken = 0;
  auto body = +[](void*) -> void* {
    for (int i = 0; i < 2; ++i) {
      int got = 0;
      if (pt_sigwait(SigBit(SIGUSR2), &got) == 0 && got == SIGUSR2) {
        ++taken;
      }
    }
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();  // the waiter suspends in pt_sigwait
  ::kill(::getpid(), SIGUSR2);
  ::kill(::getpid(), SIGUSR2);
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(2, taken);
}

TEST_F(SigwaitTimerTest, SigwaitReturnsAlreadyPendingSignal) {
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR1), nullptr));
  ASSERT_EQ(0, pt_kill(pt_self(), SIGUSR1));  // pends (masked)
  int got = 0;
  ASSERT_EQ(0, pt_sigwait(SigBit(SIGUSR1), &got));  // takes it without suspending
  EXPECT_EQ(SIGUSR1, got);
  EXPECT_FALSE(SigIsMember(pt_sigpending(), SIGUSR1));
}

TEST_F(SigwaitTimerTest, SigwaitMasksSetOnReturn) {
  // Paper action 3: "signals specified in the call to sigwait are masked for the thread".
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR1), nullptr));
  ASSERT_EQ(0, pt_kill(pt_self(), SIGUSR1));
  int got = 0;
  ASSERT_EQ(0, pt_sigwait(SigBit(SIGUSR1), &got));
  SigSet mask;
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, 0, &mask));
  EXPECT_TRUE(SigIsMember(mask, SIGUSR1));
}

TEST_F(SigwaitTimerTest, SigwaitTimesOut) {
  int got = 0;
  const int64_t start = NowNs();
  EXPECT_EQ(EAGAIN, pt_sigwait(SigBit(SIGUSR1), &got, 30 * 1000 * 1000));
  EXPECT_GE(NowNs() - start, 25 * 1000 * 1000);
}

TEST_F(SigwaitTimerTest, SigwaitRejectsCancelSignalAndEmptySet) {
  int got;
  EXPECT_EQ(EINVAL, pt_sigwait(0, &got));
  EXPECT_EQ(EINVAL, pt_sigwait(SigBit(kSigCancel), &got));
  EXPECT_EQ(EINVAL, pt_sigwait(SigBit(SIGUSR1), nullptr));
}

TEST_F(SigwaitTimerTest, DelaySleepsApproximatelyRightDuration) {
  const int64_t start = NowNs();
  EXPECT_EQ(0, pt_delay(40 * 1000 * 1000));  // 40ms
  const int64_t elapsed = NowNs() - start;
  EXPECT_GE(elapsed, 35 * 1000 * 1000);
  EXPECT_LT(elapsed, 500 * 1000 * 1000);
}

TEST_F(SigwaitTimerTest, DelayedThreadsWakeInDeadlineOrder) {
  struct Arg {
    int64_t ns;
    int* counter;
    int seen = -1;
  };
  static int counter = 0;
  counter = 0;
  auto body = +[](void* ap) -> void* {
    auto* a = static_cast<Arg*>(ap);
    EXPECT_EQ(0, pt_delay(a->ns));
    a->seen = counter++;
    return nullptr;
  };
  Arg a1{60 * 1000 * 1000, &counter};
  Arg a2{20 * 1000 * 1000, &counter};
  Arg a3{40 * 1000 * 1000, &counter};
  pt_thread_t t1, t2, t3;
  ASSERT_EQ(0, pt_create(&t1, nullptr, body, &a1));
  ASSERT_EQ(0, pt_create(&t2, nullptr, body, &a2));
  ASSERT_EQ(0, pt_create(&t3, nullptr, body, &a3));
  ASSERT_EQ(0, pt_join(t1, nullptr));
  ASSERT_EQ(0, pt_join(t2, nullptr));
  ASSERT_EQ(0, pt_join(t3, nullptr));
  EXPECT_EQ(2, a1.seen);  // 60ms last
  EXPECT_EQ(0, a2.seen);  // 20ms first
  EXPECT_EQ(1, a3.seen);  // 40ms middle
}

TEST_F(SigwaitTimerTest, DelayInterruptedByHandlerReturnsEintr) {
  static int handled = 0;
  handled = 0;
  auto handler = +[](int) { ++handled; };
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, handler, 0));
  struct Arg {
    int rc = -1;
  };
  static Arg a;
  a.rc = -1;
  auto body = +[](void*) -> void* {
    a.rc = pt_delay(3600LL * 1000 * 1000 * 1000);
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();  // sleeper blocks
  ASSERT_EQ(0, pt_kill(t, SIGUSR1));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(1, handled);
  EXPECT_EQ(EINTR, a.rc);
}

TEST_F(SigwaitTimerTest, AlarmDeliversSigalrmToArmingThread) {
  // Delivery-model recipient rule 3: the SIGALRM goes to the thread that armed the timer.
  static pt_thread_t armer = nullptr;
  static pt_thread_t handled_on = nullptr;
  handled_on = nullptr;
  auto handler = +[](int signo) {
    EXPECT_EQ(SIGALRM, signo);
    handled_on = pt_self();
  };
  ASSERT_EQ(0, pt_sigaction(SIGALRM, handler, 0));
  auto body = +[](void*) -> void* {
    armer = pt_self();
    EXPECT_EQ(0, pt_alarm(10 * 1000 * 1000));  // 10ms
    while (handled_on == nullptr) {
      pt_yield();  // spin until the alarm fires (the main thread also spins)
    }
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  const int64_t deadline = NowNs() + 2000 * 1000 * 1000LL;
  while (handled_on == nullptr && NowNs() < deadline) {
    pt_yield();
  }
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(armer, handled_on);
  EXPECT_NE(pt_self(), handled_on);
}

TEST_F(SigwaitTimerTest, AlarmCancelledBeforeFiring) {
  static int fired = 0;
  fired = 0;
  auto handler = +[](int) { ++fired; };
  ASSERT_EQ(0, pt_sigaction(SIGALRM, handler, 0));
  ASSERT_EQ(0, pt_alarm(20 * 1000 * 1000));
  ASSERT_EQ(0, pt_alarm(0));  // cancel
  EXPECT_EQ(0, pt_delay(40 * 1000 * 1000));
  EXPECT_EQ(0, fired);
}

TEST_F(SigwaitTimerTest, RrSlicingPreemptsCpuBoundThreads) {
  // Two CPU-bound SCHED_RR threads never yield; only the slice timer interleaves them.
  struct Arg {
    volatile long* my_count;
    volatile long* other_count;
    bool saw_other_progress = false;
  };
  static volatile long c1 = 0, c2 = 0;
  c1 = 0;
  c2 = 0;
  auto body = +[](void* ap) -> void* {
    auto* a = static_cast<Arg*>(ap);
    const long last_other = *a->other_count;
    for (long i = 0; i < 2000000000L; ++i) {
      *a->my_count = *a->my_count + 1;
      if (*a->other_count != last_other) {
        a->saw_other_progress = true;  // the other thread ran between our increments
        break;
      }
    }
    return nullptr;
  };
  Arg a1{&c1, &c2};
  Arg a2{&c2, &c1};
  ThreadAttr attr;
  attr.inherit_policy = false;
  attr.policy = SchedPolicy::kRr;
  pt_enable_time_slicing(5000);  // 5ms quantum
  pt_thread_t t1, t2;
  ASSERT_EQ(0, pt_create(&t1, &attr, body, &a1));
  ASSERT_EQ(0, pt_create(&t2, &attr, body, &a2));
  ASSERT_EQ(0, pt_join(t1, nullptr));
  ASSERT_EQ(0, pt_join(t2, nullptr));
  pt_disable_time_slicing();
  EXPECT_TRUE(a1.saw_other_progress || a2.saw_other_progress);
  EXPECT_GT(c1, 0);
  EXPECT_GT(c2, 0);
}

TEST_F(SigwaitTimerTest, FifoThreadsAreNotSliced) {
  // A FIFO thread runs to completion even with slicing enabled for RR threads.
  pt_enable_time_slicing(1000);
  static volatile bool done_first = false;
  done_first = false;
  auto first = +[](void*) -> void* {
    for (int i = 0; i < 20000000; ++i) {
      asm volatile("" ::: "memory");
    }
    done_first = true;
    return nullptr;
  };
  auto second = +[](void*) -> void* {
    EXPECT_TRUE(done_first);  // FIFO: we must not run before the first finishes
    return nullptr;
  };
  pt_thread_t t1, t2;
  ASSERT_EQ(0, pt_create(&t1, nullptr, first, nullptr));
  ASSERT_EQ(0, pt_create(&t2, nullptr, second, nullptr));
  ASSERT_EQ(0, pt_join(t1, nullptr));
  ASSERT_EQ(0, pt_join(t2, nullptr));
  pt_disable_time_slicing();
}

TEST_F(SigwaitTimerTest, TimedwaitUnderTimerLoad) {
  // Multiple timers armed simultaneously; each timed wait expires close to its own deadline.
  pt_mutex_t m;
  pt_cond_t c;
  ASSERT_EQ(0, pt_mutex_init(&m));
  ASSERT_EQ(0, pt_cond_init(&c));
  struct Arg {
    pt_mutex_t* m;
    pt_cond_t* c;
    int64_t timeout_ns;
    int64_t elapsed = 0;
  };
  auto body = +[](void* ap) -> void* {
    auto* a = static_cast<Arg*>(ap);
    const int64_t start = NowNs();
    EXPECT_EQ(0, pt_mutex_lock(a->m));
    EXPECT_EQ(ETIMEDOUT, pt_cond_timedwait(a->c, a->m, a->timeout_ns));
    EXPECT_EQ(0, pt_mutex_unlock(a->m));
    a->elapsed = NowNs() - start;
    return nullptr;
  };
  Arg a1{&m, &c, 20 * 1000 * 1000};
  Arg a2{&m, &c, 50 * 1000 * 1000};
  pt_thread_t t1, t2;
  ASSERT_EQ(0, pt_create(&t1, nullptr, body, &a1));
  ASSERT_EQ(0, pt_create(&t2, nullptr, body, &a2));
  ASSERT_EQ(0, pt_join(t1, nullptr));
  ASSERT_EQ(0, pt_join(t2, nullptr));
  EXPECT_GE(a1.elapsed, 15 * 1000 * 1000);
  EXPECT_GE(a2.elapsed, 45 * 1000 * 1000);
  pt_cond_destroy(&c);
  pt_mutex_destroy(&m);
}

// A timed wait met before its deadline leaves the interval timer armed for that deadline.
// Main waits with `timeout_ns` and a peer signals it, then parks in a cond wait (timed with
// `park_ns` when that is >= 0) until main releases it. The peer stays alive, so its exit does
// not settle the interval timer.
pt_mutex_t g_m;
pt_cond_t g_c;
bool g_signalled, g_released;
int64_t g_park_ns;
int g_park_rc;

pt_thread_t MeetTimedWaitEarly(int64_t timeout_ns, int64_t park_ns) {
  pt_mutex_init(&g_m);
  pt_cond_init(&g_c);
  g_signalled = g_released = false;
  g_park_ns = park_ns;
  g_park_rc = -1;
  pt_thread_t peer;
  EXPECT_EQ(0, pt_create(&peer, nullptr, +[](void*) -> void* {
    pt_mutex_lock(&g_m);
    g_signalled = true;
    pt_cond_signal(&g_c);
    while (!g_released) {
      g_park_rc = g_park_ns < 0 ? pt_cond_wait(&g_c, &g_m)
                                : pt_cond_timedwait(&g_c, &g_m, g_park_ns);
    }
    pt_mutex_unlock(&g_m);
    return nullptr;
  }, nullptr));
  pt_mutex_lock(&g_m);
  while (!g_signalled) {
    EXPECT_EQ(0, pt_cond_timedwait(&g_c, &g_m, timeout_ns));
  }
  pt_mutex_unlock(&g_m);
  return peer;
}

void Release(pt_thread_t peer) {
  pt_mutex_lock(&g_m);
  g_released = true;
  pt_cond_signal(&g_c);
  pt_mutex_unlock(&g_m);
  EXPECT_EQ(0, pt_join(peer, nullptr));
}

TEST_F(SigwaitTimerTest, TimedWaitMetEarlyThenIdleTakesNoStaleTick) {
  const uint64_t calls = hostos::CallCount(hostos::Call::kSetitimer);
  const uint64_t ticks = counters::Get(counters::kKernelTimerTicks);
  const pt_thread_t peer = MeetTimedWaitEarly(50 * 1000 * 1000, -1);
  EXPECT_EQ(calls + 1, hostos::CallCount(hostos::Call::kSetitimer));  // the arm; not the cancel
  // The delay's later deadline leaves the shot where it is; the idle wait moves it there.
  EXPECT_EQ(0, pt_delay(100 * 1000 * 1000));
  EXPECT_EQ(ticks + 1, counters::Get(counters::kKernelTimerTicks));  // the delay's own
  EXPECT_EQ(calls + 2, hostos::CallCount(hostos::Call::kSetitimer));
  Release(peer);
}

TEST_F(SigwaitTimerTest, TimedWaitMetEarlyThenBusyTakesAtMostOneEmptyTick) {
  // The peer parks with a live 10-s deadline that the early tick must not expire.
  const pt_thread_t peer = MeetTimedWaitEarly(20 * 1000 * 1000, 10'000'000'000);
  const uint64_t ticks = counters::Get(counters::kKernelTimerTicks);
  timespec start{}, now{};
  ::clock_gettime(CLOCK_MONOTONIC, &start);
  do {  // 60 ms in user code, past the dead deadline, with no library call
    ::clock_gettime(CLOCK_MONOTONIC, &now);
  } while ((now.tv_sec - start.tv_sec) * 1000000000 + (now.tv_nsec - start.tv_nsec) <
           60 * 1000 * 1000);
  EXPECT_LE(counters::Get(counters::kKernelTimerTicks), ticks + 1);
  Release(peer);
  EXPECT_EQ(0, g_park_rc);  // signalled, not timed out
}

}  // namespace
}  // namespace fsup
