// Deterministic count gate for external signal delivery: exact host-call counts, not timings.
// The paper pays two sigsetmask calls per signal received by the process. fsup's universal
// handler runs under the mask it interrupted (empty sa_mask, SA_NODEFER), and the process
// mask is shadowed, so a delivery that does not resume a thread under its handler frame makes
// no mask call at all:
//
//   kill → pt_sigaction handler on the running thread     0 sigprocmask, 0 host calls
//   kill → an equal-priority thread waiting in pt_sigwait 0 sigprocmask, 0 host calls
//
// A delivery that readies a higher-priority thread still pays the paper's two: one unblock
// as the handler switches away from its frame, one block when the frame's thread resumes.
// The signals are sent with a raw kill(2), which hostos does not count.

#include <gtest/gtest.h>

#include <csignal>
#include <unistd.h>

#include "src/core/pthread.hpp"
#include "src/hostos/unix_if.hpp"

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

TEST_F(SignalCountTest, KillThatSwitchesAwayFromTheHandlerFrameMakesTwoMaskCalls) {
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
    ::kill(::getpid(), SIGUSR2);  // the waiter preempts us inside the handler frame
  }
  hostos::ResetCallCounts();
  for (int i = 0; i < kSignals; ++i) {
    ::kill(::getpid(), SIGUSR2);
  }
  EXPECT_EQ(kWarm + kSignals, taken);
  EXPECT_EQ(2u * kSignals, hostos::CallCount(hostos::Call::kSigprocmask));
  EXPECT_EQ(2u * kSignals, hostos::TotalCallCount());
  ASSERT_EQ(0, pt_join(t, nullptr));
}

}  // namespace
}  // namespace fsup
