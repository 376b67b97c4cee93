// Cancellation — the paper's Table 1, row by row, plus interruption-point semantics, cleanup
// interaction, and a pending cancel staying pending across mask changes and handler returns.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"

namespace fsup {
namespace {

class CancelTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

TEST_F(CancelTest, Table1Row3AsyncCancelActsImmediately) {
  static int progressed = 0;
  progressed = 0;
  auto body = +[](void*) -> void* {
    pt_setintrtype(true);  // asynchronous
    for (;;) {
      ++progressed;
      pt_yield();
    }
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();
  ASSERT_GT(progressed, 0);
  const int seen = progressed;
  ASSERT_EQ(0, pt_cancel(t));
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(kCanceled, ret);
  EXPECT_LE(progressed, seen + 1);  // no full extra loop after the cancel
}

TEST_F(CancelTest, Table1Row2ControlledPendsUntilInterruptionPoint) {
  static int phase = 0;
  phase = 0;
  auto body = +[](void*) -> void* {
    // Default: enabled + controlled. Spin without any interruption point.
    for (int i = 0; i < 3; ++i) {
      ++phase;
      pt_yield();  // yield is NOT an interruption point
    }
    phase = 100;
    pt_testintr();  // explicit interruption point: acts on the pending cancel here
    phase = 200;    // never reached
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();
  ASSERT_EQ(0, pt_cancel(t));  // pends: thread is running, controlled
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(kCanceled, ret);
  EXPECT_EQ(100, phase);  // cancelled exactly at the testintr, not before, not after
}

TEST_F(CancelTest, Table1Row1DisabledPendsUntilEnabled) {
  static int phase = 0;
  phase = 0;
  auto body = +[](void*) -> void* {
    pt_setintr(false);
    pt_yield();  // cancellation arrives here and pends
    phase = 1;
    pt_testintr();  // disabled: no effect
    phase = 2;
    pt_setintr(true);   // still controlled: pends until a point
    pt_testintr();      // acts here
    phase = 3;          // never reached
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();
  ASSERT_EQ(0, pt_cancel(t));
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(kCanceled, ret);
  EXPECT_EQ(2, phase);
}

TEST_F(CancelTest, EnablingAsyncWithPendingCancelActsImmediately) {
  static int phase = 0;
  phase = 0;
  auto body = +[](void*) -> void* {
    pt_setintr(false);
    pt_yield();  // cancel pends
    phase = 1;
    pt_setintrtype(true);  // async but still disabled: keeps pending
    phase = 2;
    pt_setintr(true);  // enabled + async + pending → acts here
    phase = 3;         // never reached
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();
  ASSERT_EQ(0, pt_cancel(t));
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(kCanceled, ret);
  EXPECT_EQ(2, phase);
}

TEST_F(CancelTest, CancelWakesCondWaiterThroughCleanup) {
  // Controlled cancellation of a thread suspended at an interruption point (cond wait): the
  // mutex is re-acquired before the exit unwinds, so the cleanup handler can unlock it.
  struct Arg {
    pt_mutex_t m;
    pt_cond_t c;
    bool cleanup_saw_mutex_held = false;
  };
  static Arg a;
  a.cleanup_saw_mutex_held = false;
  ASSERT_EQ(0, pt_mutex_init(&a.m));
  ASSERT_EQ(0, pt_cond_init(&a.c));
  auto cleanup = +[](void* ap) {
    auto* arg = static_cast<Arg*>(ap);
    arg->cleanup_saw_mutex_held = arg->m.holder() == pt_self();
    if (arg->cleanup_saw_mutex_held) {
      pt_mutex_unlock(&arg->m);
    }
  };
  auto body = +[](void* ap) -> void* {
    auto* arg = static_cast<Arg*>(ap);
    pt_cleanup_push(+[](void* p) {
      auto* arg2 = static_cast<Arg*>(p);
      arg2->cleanup_saw_mutex_held = arg2->m.holder() == pt_self();
      if (arg2->cleanup_saw_mutex_held) {
        pt_mutex_unlock(&arg2->m);
      }
    }, arg);
    EXPECT_EQ(0, pt_mutex_lock(&arg->m));
    for (;;) {
      pt_cond_wait(&arg->c, &arg->m);  // cancellation point
    }
  };
  (void)cleanup;
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, &a));
  pt_yield();  // blocks in the wait
  ASSERT_EQ(0, pt_cancel(t));
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(kCanceled, ret);
  EXPECT_TRUE(a.cleanup_saw_mutex_held);
  EXPECT_EQ(nullptr, a.m.holder());  // cleanup released it
  pt_cond_destroy(&a.c);
  pt_mutex_destroy(&a.m);
}

TEST_F(CancelTest, MutexWaitIsNotAnInterruptionPoint) {
  // Paper: "a thread cannot be cancelled while in controlled interruptibility when it
  // suspends due to mutex contention".
  static pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  ASSERT_EQ(0, pt_mutex_lock(&m));
  static bool got_mutex = false;
  got_mutex = false;
  auto body = +[](void*) -> void* {
    EXPECT_EQ(0, pt_mutex_lock(&m));  // blocks; cancel pends, does NOT interrupt
    got_mutex = true;
    EXPECT_EQ(0, pt_mutex_unlock(&m));
    pt_testintr();  // the pending cancel acts here
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();  // child blocks on m
  ASSERT_EQ(0, pt_cancel(t));
  pt_yield();
  EXPECT_FALSE(got_mutex);  // still blocked — the cancel did not wake it
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_TRUE(got_mutex);
  EXPECT_EQ(kCanceled, ret);
  EXPECT_EQ(nullptr, m.holder());  // the mutex was unlocked deterministically before exit
  pt_mutex_destroy(&m);
}

TEST_F(CancelTest, SelfCancelControlled) {
  auto body = +[](void*) -> void* {
    pt_cancel(pt_self());  // pends (controlled, running)
    pt_testintr();         // acts
    return nullptr;        // never reached
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(kCanceled, ret);
}

TEST_F(CancelTest, SelfCancelAsyncExitsInsideCall) {
  auto body = +[](void*) -> void* {
    pt_setintrtype(true);
    pt_cancel(pt_self());  // acts before pt_cancel returns
    ADD_FAILURE() << "not reached";
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(kCanceled, ret);
}

TEST_F(CancelTest, DelayIsInterruptionPoint) {
  auto body = +[](void*) -> void* {
    pt_delay(3600LL * 1000 * 1000 * 1000);  // an hour; cancellation must cut it short
    ADD_FAILURE() << "not reached";
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();  // child sleeps
  ASSERT_EQ(0, pt_cancel(t));
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(kCanceled, ret);
}

TEST_F(CancelTest, SigwaitIsInterruptionPoint) {
  auto body = +[](void*) -> void* {
    int signo = 0;
    pt_sigwait(SigBit(SIGUSR1), &signo);
    ADD_FAILURE() << "not reached";
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();
  ASSERT_EQ(0, pt_cancel(t));
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(kCanceled, ret);
}

TEST_F(CancelTest, CancelTerminatedThreadIsEsrch) {
  pt_thread_t t;
  auto body = +[](void*) -> void* { return nullptr; };
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();
  EXPECT_EQ(ESRCH, pt_cancel(t));
  ASSERT_EQ(0, pt_join(t, nullptr));
}

TEST_F(CancelTest, GoingAsyncActsOnAPendingCancel) {
  static int phase = 0;
  phase = 0;
  auto body = +[](void*) -> void* {
    pt_yield();  // cancel pends: controlled, not at a point
    phase = 1;
    pt_setintrtype(true);  // enabled + async + pending → acts here
    phase = 2;             // never reached
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();
  ASSERT_EQ(0, pt_cancel(t));
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t, &ret));
  EXPECT_EQ(kCanceled, ret);
  EXPECT_EQ(1, phase);
}

// A pending cancel is not a deliverable signal: opening the mask (pt_sigmask, a handler's
// return) must leave it pending for the next interruption point, not redeliver it. Each case
// runs in a forked child killed after 2 s, so a kernel that spins on the redelivery fails the
// test instead of hanging it.
::testing::AssertionResult FinishesInChild(bool (*body)()) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    return ::testing::AssertionFailure() << "fork failed";
  }
  if (pid == 0) {
    ::_exit(body() ? 0 : 1);
  }
  for (int i = 0; i < 200; ++i) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        return ::testing::AssertionSuccess();
      }
      return ::testing::AssertionFailure() << "child ended with status " << status;
    }
    ::usleep(10 * 1000);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return ::testing::AssertionFailure() << "child still running after 2 s: killed";
}

bool g_reached = false;
int g_handled = 0;

// Creates body's thread, lets it run to its first yield, cancels it there (the cancel pends),
// optionally sends it SIGUSR1, then joins: true if it was cancelled after reaching the end.
bool CancelAtFirstYield(void* (*body)(void*), bool kill_too) {
  g_reached = false;
  g_handled = 0;
  pt_thread_t t;
  if (pt_create(&t, nullptr, body, nullptr) != 0) {
    return false;
  }
  pt_yield();
  if (pt_cancel(t) != 0 || (kill_too && pt_kill(t, SIGUSR1) != 0)) {
    return false;
  }
  void* ret = nullptr;
  return pt_join(t, &ret) == 0 && ret == kCanceled && g_reached;
}

TEST_F(CancelTest, SigmaskOnControlledThreadKeepsTheCancelPending) {
  EXPECT_TRUE(FinishesInChild(+[] {
    return CancelAtFirstYield(+[](void*) -> void* {
      pt_yield();  // the cancel pends here
      pt_sigmask(SigMaskHow::kSetMask, 0, nullptr);
      g_reached = true;
      pt_testintr();  // acts
      return nullptr;
    }, false);
  }));
}

TEST_F(CancelTest, SigmaskOnDisabledThreadKeepsTheCancelPending) {
  EXPECT_TRUE(FinishesInChild(+[] {
    return CancelAtFirstYield(+[](void*) -> void* {
      pt_setintr(false);
      pt_yield();  // the cancel pends here
      pt_sigmask(SigMaskHow::kUnblock, SigBit(SIGUSR1), nullptr);
      g_reached = true;
      pt_setintr(true);
      pt_testintr();  // acts
      return nullptr;
    }, false);
  }));
}

TEST_F(CancelTest, HandlerReturnOnThreadWithPendingCancelKeepsItPending) {
  EXPECT_TRUE(FinishesInChild(+[] {
    if (pt_sigaction(SIGUSR1, +[](int) { ++g_handled; }, 0) != 0) {
      return false;
    }
    // The handler runs when the thread resumes from its yield, then returns into it.
    return CancelAtFirstYield(+[](void*) -> void* {
      pt_yield();
      g_reached = g_handled == 1;
      pt_testintr();  // acts
      return nullptr;
    }, true);
  }));
}

TEST_F(CancelTest, SetIntrReportsPreviousState) {
  Interruptibility old;
  ASSERT_EQ(0, pt_setintr(false, &old));
  EXPECT_EQ(Interruptibility::kControlled, old);
  ASSERT_EQ(0, pt_setintr(true, &old));
  EXPECT_EQ(Interruptibility::kDisabled, old);
  ASSERT_EQ(0, pt_setintrtype(true, &old));
  EXPECT_EQ(Interruptibility::kControlled, old);
  ASSERT_EQ(0, pt_setintrtype(false, &old));
  EXPECT_EQ(Interruptibility::kAsynchronous, old);
}

}  // namespace
}  // namespace fsup
