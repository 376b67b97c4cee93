// The process signal mask against fsup's model of it. The universal handler runs under the
// mask it interrupted (empty sa_mask, SA_NODEFER; SIGPROF excepted), the dispatcher resumes a
// thread with a pending handler frame with signals blocked and every other thread with them
// unblocked, and a shadow of the mask lets a request for the state already in force skip the
// syscall. Each case reads the real mask with a raw pthread_sigmask, outside hostos.
//
// The last suite is the idle-sleep race: a signal that lands after the dispatch loop's last
// look at the deferred set but before the sleep begins must end the sleep, not wait for it.

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <string>

#include "src/core/pthread.hpp"
#include "src/hostos/fault.hpp"
#include "src/signals/sigmodel.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

namespace fault = hostos::fault;

// True if the real mask blocks nothing, or nothing but `own` (the signal whose universal
// handler frame is running, which the host kernel blocks until the frame's sigreturn).
bool RealMaskEmpty(int own = 0) {
  sigset_t cur;
  ::pthread_sigmask(SIG_BLOCK, nullptr, &cur);
  if (own != 0) {
    ::sigdelset(&cur, own);
  }
  return ::sigisemptyset(&cur) != 0;
}

class OsMaskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Clear();
    pt_reinit();
  }
  void TearDown() override {
    fault::Clear();
    pt_reinit();
  }
};

// A thread of priority kDefaultPrio + 1 that takes `signo` through pt_sigwait `rounds` times
// and notes the real mask each time it runs.
struct Waiter {
  int signo = 0;
  int rounds = 1;
  int taken = 0;
  bool mask_empty_every_time = true;
};

void* WaitLoop(void* arg) {
  auto* w = static_cast<Waiter*>(arg);
  while (w->taken < w->rounds) {
    int signo = 0;
    if (pt_sigwait(SigBit(w->signo), &signo) != 0) {
      return nullptr;
    }
    w->mask_empty_every_time &= RealMaskEmpty();
    ++w->taken;
  }
  return nullptr;
}

pt_thread_t StartWaiter(Waiter* w) {
  ThreadAttr hi;
  hi.priority = kDefaultPrio + 1;
  pt_thread_t t{};
  EXPECT_EQ(0, pt_create(&t, &hi, &WaitLoop, w));  // preempts us and blocks in pt_sigwait
  return t;
}

TEST_F(OsMaskTest, HandlerReadiesAHigherPriorityThreadThatRunsUnblocked) {
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR1), nullptr));
  Waiter w;
  w.signo = SIGUSR1;
  w.rounds = 3;
  const pt_thread_t t = StartWaiter(&w);
  for (int i = 1; i <= w.rounds; ++i) {
    ::kill(::getpid(), SIGUSR1);  // the handler on main switches to the waiter
    // main is back: its handler frame resumed (signals blocked) and returned (sigreturn).
    EXPECT_EQ(i, w.taken);
    EXPECT_TRUE(RealMaskEmpty());
    EXPECT_EQ(sig::OsMask::kNone, sig::OsMaskShadow());
  }
  EXPECT_TRUE(w.mask_empty_every_time) << "the readied thread ran with signals blocked";
  ASSERT_EQ(0, pt_join(t, nullptr));
}

TEST_F(OsMaskTest, ThreadSwitchedToFromAResumedHandlerFrameRunsUnblocked) {
  // main takes SIGUSR1 in the universal handler, which switches to waiter A. When A blocks
  // again, main's frame resumes with signals blocked, and the raise action lands SIGUSR2 just
  // before that block takes effect: it is deferred, and main's kernel exit replays it, which
  // readies waiter B — switched to from main while main's frame still blocks signals.
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR1) | SigBit(SIGUSR2), nullptr));
  Waiter a, b;
  a.signo = SIGUSR1;
  b.signo = SIGUSR2;
  const pt_thread_t ta = StartWaiter(&a);
  const pt_thread_t tb = StartWaiter(&b);
  fault::RaiseNth(hostos::Call::kSigprocmask, 2, SIGUSR2);
  ::kill(::getpid(), SIGUSR1);
  EXPECT_EQ(1u, fault::InjectedCount(hostos::Call::kSigprocmask));
  EXPECT_EQ(1, a.taken);
  EXPECT_EQ(1, b.taken);
  EXPECT_TRUE(a.mask_empty_every_time);
  EXPECT_TRUE(b.mask_empty_every_time) << "B inherited the blocked mask of main's frame";
  EXPECT_TRUE(RealMaskEmpty());
  ASSERT_EQ(0, pt_join(ta, nullptr));
  ASSERT_EQ(0, pt_join(tb, nullptr));
}

TEST_F(OsMaskTest, ExternalSignalAfterAFakeCallOnACondWaiterIsDelivered) {
  static pt_mutex_t m;
  static pt_cond_t c;
  static bool done = false;
  static int fake_calls = 0;
  static int externals = 0;
  static bool fake_call_mask_empty = false;
  static bool external_mask_empty = false;
  done = false;
  fake_calls = 0;
  externals = 0;
  ASSERT_EQ(0, pt_mutex_init(&m));
  ASSERT_EQ(0, pt_cond_init(&c));
  ASSERT_EQ(0, pt_sigaction(SIGUSR2, +[](int) {
    ++fake_calls;
    fake_call_mask_empty = RealMaskEmpty();
  }, 0));
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, +[](int) {
    ++externals;
    external_mask_empty = RealMaskEmpty(SIGUSR1);  // runs in main's SIGUSR1 frame
  }, 0));
  auto body = +[](void*) -> void* {
    pt_mutex_lock(&m);
    while (!done) {
      pt_cond_wait(&c, &m);  // the fake call interrupts this wait (EINTR, mutex re-held)
    }
    pt_mutex_unlock(&m);
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();  // the waiter blocks on the condition
  ASSERT_EQ(0, pt_kill(t, SIGUSR2));
  pt_yield();  // the fake call runs, and the waiter waits again
  EXPECT_EQ(1, fake_calls);
  EXPECT_TRUE(fake_call_mask_empty);

  ::kill(::getpid(), SIGUSR1);
  EXPECT_EQ(1, externals) << "an external signal after the fake call was not delivered";
  EXPECT_TRUE(external_mask_empty);
  EXPECT_TRUE(RealMaskEmpty());

  pt_mutex_lock(&m);
  done = true;
  pt_cond_signal(&c);
  pt_mutex_unlock(&m);
  ASSERT_EQ(0, pt_join(t, nullptr));
  pt_cond_destroy(&c);
  pt_mutex_destroy(&m);
}

TEST_F(OsMaskTest, HandlerNestingStaysBoundedOnASmallStack) {
  // The handler runs with only its own signal blocked, so other signals can nest on it but a
  // second instance of its own cannot (with SA_NODEFER, this storm overflows any stack). A
  // forked child sends a burst of SIGUSR1 at the process while a thread with a 16 KiB stack
  // runs, so every handler frame lands on that stack; an overflow would kill the test binary.
  constexpr int kSent = 20000;
  static volatile int handled = 0;
  handled = 0;
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, +[](int) { handled = handled + 1; }, 0));
  static pid_t child = 0;
  auto spin = +[](void*) -> void* {
    int status = 0;
    while (::waitpid(child, &status, WNOHANG) == 0) {
    }
    return nullptr;
  };
  ThreadAttr small;
  small.stack_size = 16 * 1024;
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, &small, spin, nullptr));  // inherits main's empty mask
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR1), nullptr));  // t takes them
  const pid_t parent = ::getpid();
  child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    for (int i = 0; i < kSent; ++i) {
      ::kill(parent, SIGUSR1);
    }
    ::_exit(0);
  }
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_GT(handled, 0);
  EXPECT_LE(handled, kSent);  // standard signals coalesce while one is pending
  EXPECT_TRUE(RealMaskEmpty());
}

TEST_F(OsMaskTest, ReinitLeavesTheMaskEmpty) {
  ::kill(::getpid(), SIGCHLD);  // a delivery (default-ignored) before the reinit
  pt_reinit();
  EXPECT_TRUE(RealMaskEmpty());
  EXPECT_EQ(sig::OsMask::kNone, sig::OsMaskShadow());
}

// The idle-sleep race, once per io backend. main waits in pt_sigwait with a 2 s timeout, so
// no other thread runs and the process goes to sleep; the raise action sends the awaited
// signal from inside the sleep's host-call wrapper, after the dispatch loop last looked at
// the deferred set. Without the restartable sleep the signal is only logged and the process
// sleeps until the timeout.
class IdleRaceTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    ASSERT_EQ(0, ::setenv("FSUP_IO_BACKEND", GetParam(), 1));
    fault::Clear();
    pt_reinit();
  }
  void TearDown() override {
    ::unsetenv("FSUP_IO_BACKEND");
    fault::Clear();
    pt_reinit();
  }
};

TEST_P(IdleRaceTest, SignalLoggedJustBeforeTheSleepEndsIt) {
  const hostos::Call sleep_call =
      GetParam()[0] == 'p' ? hostos::Call::kPoll : hostos::Call::kEpollWait;
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR1), nullptr));
  // A signal replayed only after the timeout finds main no longer waiting: give it a handler
  // so that the failure is a failed expectation rather than the default action's exit.
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, +[](int) {}, 0));
  ASSERT_TRUE(fault::ParseSpec(
      (std::string(fault::CallName(sleep_call)) + ":n=1:raise=SIGUSR1").c_str()));
  const int64_t t0 = NowNs();
  int signo = 0;
  const int rc = pt_sigwait(SigBit(SIGUSR1), &signo, 2'000'000'000);
  const int64_t waited_ms = (NowNs() - t0) / 1'000'000;
  EXPECT_EQ(1u, fault::InjectedCount(sleep_call)) << "the raise never fired";
  EXPECT_EQ(0, rc) << "the signal waited for the 2 s watchdog timeout";
  EXPECT_EQ(SIGUSR1, signo);
  EXPECT_LT(waited_ms, 1000);
}

INSTANTIATE_TEST_SUITE_P(Backends, IdleRaceTest, ::testing::Values("epoll", "poll"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param[0] == 'e' ? "Epoll" : "Poll");
                         });

}  // namespace
}  // namespace fsup
