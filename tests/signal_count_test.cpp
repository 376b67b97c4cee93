// Deterministic count gate for external signal delivery: exact host-call counts, not timings.
// The paper pays two sigsetmask calls per signal received by the process. fsup's universal
// handler runs under the mask it interrupted (empty sa_mask), and a delivery that switches
// threads returns into the preemption thunk before it switches, so no thread ever resumes
// under a handler frame and no delivery makes a mask call:
//
//   kill → pt_sigaction handler on the running thread     0 sigprocmask, 0 host calls
//   kill → an equal-priority thread waiting in pt_sigwait 0 sigprocmask, 0 host calls
//   kill → a higher-priority thread waiting in pt_sigwait 0 sigprocmask, 0 host calls
//   SIGALRM ending a round-robin slice                    0 sigprocmask
//   pt_delay on a lone thread                             1 timer tick, 1 setitimer
//
// The signals are sent with a raw kill(2), which hostos does not count. A slice still costs
// one setitimer, which re-arms the one-shot interval timer for the next slice; so does a
// delay, whose one shot is served by exactly one tick.

#include <gtest/gtest.h>

#include <csignal>
#include <unistd.h>

#include "src/core/pthread.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/util/counters.hpp"

namespace fsup {
namespace {

constexpr int kWarm = 5;
constexpr int kSignals = 200;

class SignalCountTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

TEST_F(SignalCountTest, KillToAHandlerOnTheRunningThreadMakesNoMaskCall) {
  static int handled = 0;
  handled = 0;
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, +[](int) { ++handled; }, 0));
  for (int i = 0; i < kWarm; ++i) {
    ::kill(::getpid(), SIGUSR1);
  }
  hostos::ResetCallCounts();
  for (int i = 0; i < kSignals; ++i) {
    ::kill(::getpid(), SIGUSR1);
  }
  EXPECT_EQ(kWarm + kSignals, handled);
  EXPECT_EQ(0u, hostos::CallCount(hostos::Call::kSigprocmask));
  EXPECT_EQ(0u, hostos::TotalCallCount());
}

TEST_F(SignalCountTest, KillToASigwaitThreadMakesNoMaskCall) {
  static int taken = 0;
  static bool stop = false;
  taken = 0;
  stop = false;
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR2), nullptr));  // main never takes it
  auto waiter = +[](void*) -> void* {
    while (!stop) {
      int signo = 0;
      if (pt_sigwait(SigBit(SIGUSR2), &signo) != 0 || signo != SIGUSR2) {
        return nullptr;
      }
      ++taken;
    }
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, waiter, nullptr));
  pt_yield();  // the waiter blocks in pt_sigwait
  auto one = [] {
    const int before = taken;
    ::kill(::getpid(), SIGUSR2);  // readies the waiter; no preemption at equal priority
    while (taken == before) {
      pt_yield();
    }
  };
  for (int i = 0; i < kWarm; ++i) {
    one();
  }
  hostos::ResetCallCounts();
  for (int i = 0; i < kSignals; ++i) {
    one();
  }
  EXPECT_EQ(kWarm + kSignals, taken);
  EXPECT_EQ(0u, hostos::CallCount(hostos::Call::kSigprocmask));
  EXPECT_EQ(0u, hostos::TotalCallCount());
  stop = true;
  ::kill(::getpid(), SIGUSR2);
  ASSERT_EQ(0, pt_join(t, nullptr));
}

TEST_F(SignalCountTest, KillThatSwitchesThreadsMakesNoMaskCall) {
  static int taken = 0;
  taken = 0;
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR2), nullptr));
  auto waiter = +[](void*) -> void* {
    while (taken < kWarm + kSignals) {
      int signo = 0;
      if (pt_sigwait(SigBit(SIGUSR2), &signo) != 0) {
        return nullptr;
      }
      ++taken;
    }
    return nullptr;
  };
  ThreadAttr hi;
  hi.priority = kDefaultPrio + 1;
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, &hi, waiter, nullptr));  // runs at once, blocks in pt_sigwait
  for (int i = 0; i < kWarm; ++i) {
    ::kill(::getpid(), SIGUSR2);  // the waiter preempts us once the handler has returned
  }
  hostos::ResetCallCounts();
  for (int i = 0; i < kSignals; ++i) {
    ::kill(::getpid(), SIGUSR2);
  }
  EXPECT_EQ(kWarm + kSignals, taken);
  EXPECT_EQ(0u, hostos::CallCount(hostos::Call::kSigprocmask));
  EXPECT_EQ(0u, hostos::TotalCallCount());
  ASSERT_EQ(0, pt_join(t, nullptr));
}

TEST_F(SignalCountTest, SliceSwitchBetweenRoundRobinSpinnersMakesNoMaskCall) {
  // Two round-robin spinners under 1 ms slices: every switch between them is a SIGALRM that
  // ends a slice, taken while a spinner runs user code. Each spinner counts the turns it
  // notices until they add up to kTurns; main waits in pt_join.
  constexpr int kTurns = 60;
  static volatile int turns = 0;
  static volatile int last = 0;
  turns = 0;
  last = 0;
  pt_enable_time_slicing(1000);
  ThreadAttr rr;
  rr.inherit_policy = false;
  rr.policy = SchedPolicy::kRr;
  auto spin = +[](void* arg) -> void* {
    const int me = static_cast<int>(reinterpret_cast<intptr_t>(arg));
    while (turns < kTurns) {
      if (last != me) {
        last = me;
        turns = turns + 1;
      }
    }
    return nullptr;
  };
  pt_thread_t t1, t2;
  ASSERT_EQ(0, pt_create(&t1, &rr, spin, reinterpret_cast<void*>(1)));
  ASSERT_EQ(0, pt_create(&t2, &rr, spin, reinterpret_cast<void*>(2)));
  const uint64_t switches_before = pt_stats().ctx_switches;
  hostos::ResetCallCounts();
  ASSERT_EQ(0, pt_join(t1, nullptr));
  ASSERT_EQ(0, pt_join(t2, nullptr));
  const uint64_t switches = pt_stats().ctx_switches - switches_before;
  const uint64_t mask_calls = hostos::CallCount(hostos::Call::kSigprocmask);
  pt_disable_time_slicing();
  EXPECT_GE(turns, kTurns);
  EXPECT_GE(switches, static_cast<uint64_t>(kTurns));
  EXPECT_EQ(0u, mask_calls) << "over " << switches << " switches";
}

TEST_F(SignalCountTest, DelayOnALoneThreadTakesOneTickAndOneSetitimer) {
  // The idle wait sleeps until the interval timer's SIGALRM: one shot, one tick. A timeout
  // racing the signal would tick in the kernel and again for the signal.
  constexpr int kDelays = 200;
  pt_metrics_enable(true);  // counts the ticks (metrics.timer_ticks)
  for (int i = 0; i < kWarm; ++i) {
    ASSERT_EQ(0, pt_delay(50 * 1000));
  }
  const uint64_t ticks_before = counters::Get(counters::kMetricsTimerTicks);
  hostos::ResetCallCounts();
  for (int i = 0; i < kDelays; ++i) {
    ASSERT_EQ(0, pt_delay(50 * 1000));
  }
  const uint64_t ticks = counters::Get(counters::kMetricsTimerTicks) - ticks_before;
  const uint64_t setitimers = hostos::CallCount(hostos::Call::kSetitimer);
  pt_metrics_enable(false);
  EXPECT_EQ(static_cast<uint64_t>(kDelays), ticks);
  EXPECT_EQ(static_cast<uint64_t>(kDelays), setitimers);
  EXPECT_EQ(0u, hostos::CallCount(hostos::Call::kSigprocmask));
}

}  // namespace
}  // namespace fsup
