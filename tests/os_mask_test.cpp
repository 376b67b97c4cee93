// The process signal mask against fsup's model of it. The universal handler runs under the
// mask it interrupted (empty sa_mask; SIGPROF excepted), a delivery that switches threads
// returns into the preemption thunk before it switches, and so every thread runs with nothing
// blocked except inside a live handler frame. Each case reads the real mask with a raw
// pthread_sigmask, outside hostos.
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

class HostMaskTest : public ::testing::Test {
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
  hi.inherit_policy = false;  // FIFO even when main is round-robin
  pt_thread_t t{};
  EXPECT_EQ(0, pt_create(&t, &hi, &WaitLoop, w));  // preempts us and blocks in pt_sigwait
  return t;
}

TEST_F(HostMaskTest, HandlerReadiesAHigherPriorityThreadThatRunsUnblocked) {
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR1), nullptr));
  Waiter w;
  w.signo = SIGUSR1;
  w.rounds = 3;
  const pt_thread_t t = StartWaiter(&w);
  for (int i = 1; i <= w.rounds; ++i) {
    ::kill(::getpid(), SIGUSR1);  // the handler on main switches to the waiter
    // main is back: its handler returned first, and the preemption thunk switched.
    EXPECT_EQ(i, w.taken);
    EXPECT_TRUE(RealMaskEmpty());
  }
  EXPECT_TRUE(w.mask_empty_every_time) << "the readied thread ran with signals blocked";
  ASSERT_EQ(0, pt_join(t, nullptr));
}

// main runs round-robin under a long slice, so every switch back to it re-arms the slice with
// one setitimer, inside the kernel. main takes SIGUSR1, which readies waiter A: main is
// preempted. A takes it and exits, and the raise action lands SIGUSR2 just before the
// setitimer of the switch back to main, so it is deferred, and main's kernel exit replays it.
void PreemptMainAndDeferSigusr2(Waiter* a) {
  pt_enable_time_slicing(10 * 1000 * 1000);
  ASSERT_EQ(0, pt_setschedpolicy(pt_self(), SchedPolicy::kRr));
  a->signo = SIGUSR1;
  const pt_thread_t ta = StartWaiter(a);
  fault::RaiseNth(hostos::Call::kSetitimer, 2, SIGUSR2);  // #1 disarms the slice for A
  ::kill(::getpid(), SIGUSR1);
  EXPECT_EQ(1u, fault::InjectedCount(hostos::Call::kSetitimer));
  EXPECT_EQ(1, a->taken);
  EXPECT_TRUE(a->mask_empty_every_time);
  ASSERT_EQ(0, pt_join(ta, nullptr));
}

TEST_F(HostMaskTest, ThreadSwitchedToFromAJustPreemptedThreadRunsUnblocked) {
  // The replayed SIGUSR2 readies waiter B, switched to from main before main's preemption has
  // returned to the interrupted code.
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR1) | SigBit(SIGUSR2), nullptr));
  Waiter a, b;
  b.signo = SIGUSR2;
  const pt_thread_t tb = StartWaiter(&b);
  PreemptMainAndDeferSigusr2(&a);
  EXPECT_EQ(1, b.taken);
  EXPECT_TRUE(b.mask_empty_every_time) << "B inherited a blocked mask from main";
  EXPECT_TRUE(RealMaskEmpty());
  ASSERT_EQ(0, pt_join(tb, nullptr));
}

TEST_F(HostMaskTest, HandlerDrainedOnAJustPreemptedThreadRunsUnblocked) {
  // The replayed SIGUSR2 goes to main itself (A has exited), so its handler is self-directed:
  // ExitProtocol runs it on main, right after the switch back. It must run preemptible.
  static bool ran = false;
  static bool mask_empty = false;
  ran = false;
  mask_empty = false;
  ASSERT_EQ(0, pt_sigaction(SIGUSR2, +[](int) {
    ran = true;
    mask_empty = RealMaskEmpty();
  }, 0));
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR1), nullptr));
  Waiter a;
  PreemptMainAndDeferSigusr2(&a);
  EXPECT_TRUE(ran);
  EXPECT_TRUE(mask_empty) << "the drained handler ran with signals blocked";
  EXPECT_TRUE(RealMaskEmpty());
}

TEST_F(HostMaskTest, ThreadSwitchedToFromAHandlerFrameRunsUnblocked) {
  // main's SIGUSR1 handler runs in its universal-handler frame, where the host blocks
  // SIGUSR1, and yields to a worker from there: the worker must not inherit that mask.
  static bool worker_mask_empty = false;
  worker_mask_empty = false;
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, +[](int) { pt_yield(); }, 0));
  auto worker = +[](void*) -> void* {
    worker_mask_empty = RealMaskEmpty();
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, worker, nullptr));
  ::kill(::getpid(), SIGUSR1);
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_TRUE(worker_mask_empty) << "the worker ran under main's handler-frame mask";
  EXPECT_TRUE(RealMaskEmpty());
}

TEST_F(HostMaskTest, HandlerSleepingInItsFrameWakesOnItsOwnSignal) {
  // main's SIGUSR1 handler, in its frame, waits for another SIGUSR1 with no other thread to
  // run, so the process sleeps; the raise action sends SIGUSR1 just before the sleep. The
  // sleep must not start with SIGUSR1 still blocked by the frame, or it waits out the 2 s.
  static int rc = -1;
  static int64_t waited_ms = -1;
  static int runs = 0;
  rc = -1;
  waited_ms = -1;
  runs = 0;
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, +[](int) {
    if (++runs > 1) {
      return;  // the raised signal, when the sleep did not take it
    }
    ASSERT_TRUE(fault::ParseSpec("epoll_wait:n=1:raise=SIGUSR1;poll:n=1:raise=SIGUSR1"));
    const int64_t t0 = NowNs();
    int signo = 0;
    rc = pt_sigwait(SigBit(SIGUSR1), &signo, 2'000'000'000);
    waited_ms = (NowNs() - t0) / 1'000'000;
  }, 0));
  ::kill(::getpid(), SIGUSR1);
  EXPECT_EQ(0, rc) << "the handler's sleep waited for its timeout";
  EXPECT_LT(waited_ms, 1000);
  EXPECT_TRUE(RealMaskEmpty());
}

TEST_F(HostMaskTest, ExternalSignalAfterAFakeCallOnACondWaiterIsDelivered) {
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

TEST_F(HostMaskTest, HandlerNestingStaysBoundedOnASmallStack) {
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

TEST_F(HostMaskTest, SwitchingStormStaysBoundedOnASmallStack) {
  // The storm above, but every signal readies a higher-priority waiter, so every delivery
  // that lands outside the kernel switches threads: each returns into the preemption thunk on
  // the 16 KiB stack, and one that lands in a thunk's tail re-dispatches from that thunk's
  // frame. The child paces its signals 3 µs apart: an unpaced burst lands almost entirely in
  // the kernel, where the dispatcher replays deferred signals until the burst ends, and
  // makes only a handful of switching deliveries.
  constexpr int kSent = 20000;
  static Waiter w;
  static volatile bool stop = false;
  w = Waiter{};
  stop = false;
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR1), nullptr));  // all but w mask it
  auto wait_loop = +[](void*) -> void* {
    while (!stop) {
      int signo = 0;
      if (pt_sigwait(SigBit(SIGUSR1), &signo) != 0) {
        return nullptr;
      }
      w.mask_empty_every_time &= RealMaskEmpty();
      ++w.taken;
    }
    return nullptr;
  };
  ThreadAttr hi;
  hi.priority = kDefaultPrio + 1;
  pt_thread_t waiter;
  ASSERT_EQ(0, pt_create(&waiter, &hi, wait_loop, nullptr));  // blocks in pt_sigwait
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
  ASSERT_EQ(0, pt_create(&t, &small, spin, nullptr));
  const pid_t parent = ::getpid();
  child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    for (int i = 0; i < kSent; ++i) {
      ::kill(parent, SIGUSR1);
      const int64_t until = NowNs() + 3000;
      while (NowNs() < until) {
      }
    }
    ::_exit(0);
  }
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_GT(w.taken, 0);
  EXPECT_LE(w.taken, kSent);
  EXPECT_TRUE(w.mask_empty_every_time);
  stop = true;
  ::kill(::getpid(), SIGUSR1);
  ASSERT_EQ(0, pt_join(waiter, nullptr));
  EXPECT_TRUE(RealMaskEmpty());
}

TEST_F(HostMaskTest, ReinitLeavesTheMaskEmpty) {
  ::kill(::getpid(), SIGCHLD);  // a delivery (default-ignored) before the reinit
  pt_reinit();
  EXPECT_TRUE(RealMaskEmpty());
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
