// Dispatcher behaviour (paper Figure 2): deferred signal replay, preemption decisions,
// the paper's "two sigsetmask calls per signal" claim, and idle-loop wakeups.

#include <gtest/gtest.h>

#include <csignal>
#include <unistd.h>

#include <vector>

#include "src/core/pthread.hpp"
#include "src/hostos/unix_if.hpp"
#include "src/kernel/kernel.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

class DispatcherTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

TEST_F(DispatcherTest, SignalCaughtInKernelIsDeferredAndReplayed) {
  static int handled = 0;
  handled = 0;
  auto handler = +[](int) { ++handled; };
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, handler, 0));

  const uint64_t deferred_before = pt_stats().deferred_signals;
  kernel::Enter();
  ::kill(::getpid(), SIGUSR1);  // a REAL process signal, arriving while in the kernel
  // The universal handler must have logged it without acting.
  EXPECT_EQ(0, handled);
  EXPECT_EQ(deferred_before + 1, pt_stats().deferred_signals);
  kernel::Exit();  // Figure 2: the exit replays the log
  EXPECT_EQ(1, handled);
}

TEST_F(DispatcherTest, SignalOutsideKernelHandledImmediately) {
  static int handled = 0;
  handled = 0;
  auto handler = +[](int) { ++handled; };
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, handler, 0));
  ::kill(::getpid(), SIGUSR1);
  // Delivery is synchronous on a single-CPU process: the handler ran before kill returned.
  EXPECT_EQ(1, handled);
}

TEST_F(DispatcherTest, TwoSigprocmasksPerExternalSignal) {
  // Paper: "This implementation uses two calls to sigsetmask for each signal received by the
  // process." Measured, not asserted from prose: deliver an external signal to a handler and
  // count the mask syscalls in the window. The no-context-switch delivery path performs one
  // unblock on handler entry (call #1); the second call is only needed when the dispatcher
  // resumes an interrupted thread — so the count is 1 here and ≤2 in general.
  static int handled = 0;
  handled = 0;
  auto handler = +[](int) { ++handled; };
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, handler, 0));
  hostos::ResetCallCounts();
  ::kill(::getpid(), SIGUSR1);
  EXPECT_EQ(1, handled);
  EXPECT_LE(hostos::CallCount(hostos::Call::kSigprocmask), 2u);
  EXPECT_GE(hostos::CallCount(hostos::Call::kSigprocmask), 1u);
}

TEST_F(DispatcherTest, ExternalSignalPreemptsForHigherPriorityThread) {
  // A real signal readies a higher-priority thread; the interrupted thread must be preempted
  // before the handler frame unwinds (dispatch happens inside the universal handler).
  static bool woke_ran = false;
  static pt_sem_t sem;
  woke_ran = false;
  ASSERT_EQ(0, pt_sem_init(&sem, 0));
  auto hi_body = +[](void*) -> void* {
    pt_sem_wait(&sem);
    woke_ran = true;
    return nullptr;
  };
  ThreadAttr hi;
  hi.priority = kDefaultPrio + 1;
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, &hi, hi_body, nullptr));
  pt_yield();  // high thread blocks on the semaphore

  auto handler = +[](int) {
    pt_sem_post(&sem);  // readies the higher-priority thread from handler context
  };
  ASSERT_EQ(0, pt_sigaction(SIGUSR2, handler, 0));
  ::kill(::getpid(), SIGUSR2);
  // By the time kill returns, the high thread must have preempted us and finished.
  EXPECT_TRUE(woke_ran);
  ASSERT_EQ(0, pt_join(t, nullptr));
  pt_sem_destroy(&sem);
}

TEST_F(DispatcherTest, PreemptedThreadGoesToHeadOfItsLevel) {
  // Preemption (unlike yield) must not cost the thread its queue position.
  static std::vector<int>* order;
  std::vector<int> local;
  order = &local;
  struct Arg {
    int id;
  };
  auto body = +[](void* ap) -> void* {
    order->push_back(static_cast<Arg*>(ap)->id);
    return nullptr;
  };
  Arg a1{1}, a2{2};
  pt_thread_t t1, t2, thi;
  ASSERT_EQ(0, pt_create(&t1, nullptr, body, &a1));
  ASSERT_EQ(0, pt_create(&t2, nullptr, body, &a2));
  (void)a1;
  (void)a2;
  // A higher-priority thread preempts us now; when it blocks, WE must resume before t1/t2
  // (we were preempted, so we re-enter at the head of our level).
  ThreadAttr hi;
  hi.priority = kDefaultPrio + 1;
  static pt_sem_t sem;
  ASSERT_EQ(0, pt_sem_init(&sem, 0));
  auto hi_body = +[](void*) -> void* {
    pt_sem_wait(&sem);
    return nullptr;
  };
  ASSERT_EQ(0, pt_create(&thi, &hi, hi_body, nullptr));  // preempts us, blocks on sem
  order->push_back(0);  // we are running again — before t1 and t2
  ASSERT_EQ(0, pt_sem_post(&sem));
  ASSERT_EQ(0, pt_join(t1, nullptr));
  ASSERT_EQ(0, pt_join(t2, nullptr));
  ASSERT_EQ(0, pt_join(thi, nullptr));
  ASSERT_EQ(3u, local.size());
  EXPECT_EQ(0, local[0]);
  EXPECT_EQ(1, local[1]);
  EXPECT_EQ(2, local[2]);
  pt_sem_destroy(&sem);
}

TEST_F(DispatcherTest, IdleLoopWakesOnExternalSignalForSigwait) {
  // Every thread blocked (main in sigwait): the idle loop must sleep and wake on the real
  // signal rather than deadlock-abort (sigwait counts as an external wakeup source).
  const pid_t pid = ::getpid();
  // A helper OS process sends SIGUSR1 after 50ms. fork() is safe here: the child execs
  // nothing and only sleeps + kills.
  const pid_t child = ::fork();
  if (child == 0) {
    ::usleep(50 * 1000);
    ::kill(pid, SIGUSR1);
    ::_exit(0);
  }
  int got = 0;
  const int rc = pt_sigwait(SigBit(SIGUSR1), &got, 5LL * 1000 * 1000 * 1000);
  EXPECT_EQ(0, rc);
  EXPECT_EQ(SIGUSR1, got);
}

}  // namespace
}  // namespace fsup
