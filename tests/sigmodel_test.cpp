// The signal delivery model's precedence rules (paper, "Signal Handling"), pinned case by
// case: recipient selection (directed > synchronous > timer > I/O > linear search > process
// pend) and action selection (mask > timer wake > sigwait > handler > cancel > ignore >
// default).

#include <gtest/gtest.h>

#include <csignal>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"
#include "src/kernel/kernel.hpp"
#include "src/signals/sigmodel.hpp"

namespace fsup {
namespace {

class SigModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pt_reinit();
    g_handled_on = nullptr;
    g_handled_count = 0;
  }

 public:
  static pt_thread_t g_handled_on;
  static int g_handled_count;
  static void Recorder(int) {
    g_handled_on = pt_self();
    ++g_handled_count;
  }
};

pt_thread_t SigModelTest::g_handled_on = nullptr;
int SigModelTest::g_handled_count = 0;

// Blocks the given thread on a semaphore until released.
struct Parked {
  pt_sem_t sem;
  pt_thread_t t = nullptr;

  void Start(SigSet mask = 0) {
    EXPECT_EQ(0, pt_sem_init(&sem, 0));
    struct Arg {
      Parked* p;
      SigSet mask;
    };
    static Arg arg;
    arg = Arg{this, mask};
    auto body = +[](void* ap) -> void* {
      auto* a = static_cast<Arg*>(ap);
      // Absolute mask: created threads inherit the creator's mask, which these precedence
      // tests deliberately perturb on main.
      pt_sigmask(SigMaskHow::kSetMask, a->mask, nullptr);
      pt_sem_wait(&a->p->sem);
      return nullptr;
    };
    EXPECT_EQ(0, pt_create(&t, nullptr, body, &arg));
    pt_yield();  // let it park (and set its mask)
  }
  void Finish() {
    EXPECT_EQ(0, pt_sem_post(&sem));
    EXPECT_EQ(0, pt_join(t, nullptr));
    pt_sem_destroy(&sem);
  }
};

TEST_F(SigModelTest, Recipient1DirectedBeatsEverything) {
  // pt_kill names a thread; the linear search never runs even though other threads (main)
  // have the signal unmasked.
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, &Recorder, 0));
  Parked p;
  p.Start();
  ASSERT_EQ(0, pt_kill(p.t, SIGUSR1));
  p.Finish();
  EXPECT_EQ(p.t, g_handled_on);
}

TEST_F(SigModelTest, Recipient3TimerTargetsTheArmerNotTheSearchWinner) {
  // Main is first in the all-threads list with SIGALRM unmasked; the alarm must still go to
  // the thread that armed it (recipient rule 3 beats rule 5).
  ASSERT_EQ(0, pt_sigaction(SIGALRM, &Recorder, 0));
  struct Arg {
    volatile bool done = false;
  };
  static Arg a;
  a.done = false;
  auto body = +[](void*) -> void* {
    pt_alarm(5 * 1000 * 1000);  // 5ms
    while (SigModelTest::g_handled_count == 0) {
      pt_yield();
    }
    a.done = true;
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  while (!a.done) {
    pt_yield();
  }
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(t, g_handled_on);
  EXPECT_NE(pt_self(), g_handled_on);
}

TEST_F(SigModelTest, Recipient5LinearSearchSkipsMaskedThreads) {
  // Deliver an *external-style* signal while the first candidate (main) masks it: the search
  // must land on the unmasked parked thread.
  ASSERT_EQ(0, pt_sigaction(SIGUSR2, &Recorder, 0));
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR2), nullptr));  // mask on main
  Parked p;
  p.Start();
  kernel::Enter();
  sig::DeliverToProcess(SIGUSR2);
  kernel::Exit();
  p.Finish();
  EXPECT_EQ(p.t, g_handled_on);
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kUnblock, SigBit(SIGUSR2), nullptr));
}

TEST_F(SigModelTest, Recipient5ProcessSignalPassesMaskersAndRecycledTcbsTakeTheCreatorsMask) {
  // The search passes every thread that masks the signal (main, then a parked masker) and
  // lands on the first unmasked one behind them.
  ASSERT_EQ(0, pt_sigaction(SIGUSR2, &Recorder, 0));
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR2), nullptr));
  Parked masker;
  masker.Start(SigBit(SIGUSR2));
  Parked open;
  open.Start();
  kernel::Enter();
  sig::DeliverToProcess(SIGUSR2);
  kernel::Exit();
  masker.Finish();
  open.Finish();
  EXPECT_EQ(open.t, g_handled_on);
  EXPECT_EQ(1, g_handled_count);

  // An exited thread holds every signal masked until its TCB is reaped. A thread created on
  // that recycled TCB starts with its creator's mask, not the leftover full one, so it is
  // still found.
  pt_thread_t gone;
  ASSERT_EQ(0, pt_create(&gone, nullptr, +[](void*) -> void* { return nullptr; }, nullptr));
  ASSERT_EQ(0, pt_join(gone, nullptr));
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kSetMask, SigBit(SIGUSR1), nullptr));
  static pt_sem_t sem;
  ASSERT_EQ(0, pt_sem_init(&sem, 0));
  pt_thread_t reborn;
  ASSERT_EQ(0, pt_create(&reborn, nullptr, +[](void*) -> void* {
    pt_sem_wait(&sem);
    return nullptr;
  }, nullptr));
  ASSERT_EQ(gone, reborn) << "the TCB was not recycled";
  EXPECT_EQ(SigBit(SIGUSR1), reborn->sigmask);
  pt_yield();  // let it park
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR2), nullptr));
  kernel::Enter();
  sig::DeliverToProcess(SIGUSR2);
  kernel::Exit();
  ASSERT_EQ(0, pt_sem_post(&sem));
  ASSERT_EQ(0, pt_join(reborn, nullptr));
  pt_sem_destroy(&sem);
  EXPECT_EQ(reborn, g_handled_on);
  EXPECT_EQ(2, g_handled_count);
  EXPECT_FALSE(SigIsMember(pt_sigpending(), SIGUSR2));
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kSetMask, 0, nullptr));
}

TEST_F(SigModelTest, Recipient6PendsOnProcessWhenAllMask) {
  ASSERT_EQ(0, pt_sigaction(SIGUSR2, &Recorder, 0));
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR2), nullptr));
  Parked p;
  p.Start(SigBit(SIGUSR2));  // the parked thread masks it too
  kernel::Enter();
  sig::DeliverToProcess(SIGUSR2);
  kernel::Exit();
  EXPECT_EQ(0, g_handled_count);
  EXPECT_TRUE(SigIsMember(pt_sigpending(), SIGUSR2));  // pending at process level
  // First thread to unmask receives it.
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kUnblock, SigBit(SIGUSR2), nullptr));
  EXPECT_EQ(1, g_handled_count);
  EXPECT_EQ(pt_self(), g_handled_on);
  p.Finish();
}

TEST_F(SigModelTest, Action1MaskBeatsSigwait) {
  // A thread whose *mask* includes the signal pends it even while suspended in sigwait for a
  // DIFFERENT set (the mask check is action rule 1; sigwait is rule 3).
  struct Arg {
    int got = 0;
    int rc = -1;
  };
  static Arg a;
  a = Arg{};
  auto body = +[](void*) -> void* {
    pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR2), nullptr);
    a.rc = pt_sigwait(SigBit(SIGUSR1), &a.got);  // waits for USR1 only
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();
  ASSERT_EQ(0, pt_kill(t, SIGUSR2));       // masked: pends on the thread
  EXPECT_TRUE(SigIsMember(t->pending, SIGUSR2));
  ASSERT_EQ(0, pt_kill(t, SIGUSR1));       // the waited signal: wakes it
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(0, a.rc);
  EXPECT_EQ(SIGUSR1, a.got);
}

TEST_F(SigModelTest, Action3SigwaitBeatsHandler) {
  // A registered handler must NOT run when the recipient is suspended in sigwait for that
  // signal — the sigwait consumes it (rule 3 precedes rule 4).
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, &Recorder, 0));
  struct Arg {
    int got = 0;
  };
  static Arg a;
  a.got = 0;
  auto body = +[](void*) -> void* {
    pt_sigwait(SigBit(SIGUSR1), &a.got);
    return nullptr;
  };
  pt_thread_t t;
  ASSERT_EQ(0, pt_create(&t, nullptr, body, nullptr));
  pt_yield();
  ASSERT_EQ(0, pt_kill(t, SIGUSR1));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ(SIGUSR1, a.got);
  EXPECT_EQ(0, g_handled_count);  // handler skipped
}

TEST_F(SigModelTest, Action6IgnoreDiscardsEvenWhenPendedFirst) {
  ASSERT_EQ(0, pt_sigignore(SIGUSR1));
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR1), nullptr));
  ASSERT_EQ(0, pt_kill(pt_self(), SIGUSR1));  // pends (mask wins over ignore)
  EXPECT_TRUE(SigIsMember(pt_sigpending(), SIGUSR1));
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kUnblock, SigBit(SIGUSR1), nullptr));
  EXPECT_FALSE(SigIsMember(pt_sigpending(), SIGUSR1));  // discarded at unmask
  EXPECT_EQ(0, g_handled_count);
}

TEST_F(SigModelTest, HandlerChangeWhilePendingUsesNewDisposition) {
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR1), nullptr));
  ASSERT_EQ(0, pt_kill(pt_self(), SIGUSR1));  // pends with NO handler installed
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, &Recorder, 0));  // install while pending
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kUnblock, SigBit(SIGUSR1), nullptr));
  EXPECT_EQ(1, g_handled_count);  // delivered through the NEW handler
}

TEST_F(SigModelTest, MultiplePendingSignalsAllDeliveredOnUnmask) {
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, &Recorder, 0));
  ASSERT_EQ(0, pt_sigaction(SIGUSR2, &Recorder, 0));
  ASSERT_EQ(0, pt_sigaction(SIGHUP, &Recorder, 0));
  const SigSet three = SigBit(SIGUSR1) | SigBit(SIGUSR2) | SigBit(SIGHUP);
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, three, nullptr));
  ASSERT_EQ(0, pt_kill(pt_self(), SIGUSR1));
  ASSERT_EQ(0, pt_kill(pt_self(), SIGUSR2));
  ASSERT_EQ(0, pt_kill(pt_self(), SIGHUP));
  EXPECT_EQ(0, g_handled_count);
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kUnblock, three, nullptr));
  EXPECT_EQ(3, g_handled_count);
}

TEST_F(SigModelTest, SamePendingSignalNotQueued) {
  // Classic UNIX semantics: pending is a set, not a queue — N sends, one delivery.
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, &Recorder, 0));
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR1), nullptr));
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(0, pt_kill(pt_self(), SIGUSR1));
  }
  ASSERT_EQ(0, pt_sigmask(SigMaskHow::kUnblock, SigBit(SIGUSR1), nullptr));
  EXPECT_EQ(1, g_handled_count);
}

bool ExternalWakeupPossibleNow() {
  kernel::Enter();
  const bool possible = sig::ExternalWakeupPossible();
  kernel::Exit();
  return possible;
}

TEST_F(SigModelTest, ExternalWakeupPossibleReflectsState) {
  EXPECT_FALSE(ExternalWakeupPossibleNow());  // fresh runtime: no handlers, nobody in sigwait
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, &Recorder, 0));
  EXPECT_TRUE(ExternalWakeupPossibleNow());
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, nullptr, 0));  // back to default disposition
  EXPECT_FALSE(ExternalWakeupPossibleNow());

  // No handler, one peer blocked in sigwait: it could take an external signal.
  static int got;
  got = 0;
  pt_thread_t waiter;
  ASSERT_EQ(0, pt_create(&waiter, nullptr, +[](void*) -> void* {
    pt_sigwait(SigBit(SIGUSR2), &got);
    return nullptr;
  }, nullptr));
  pt_yield();  // let it block
  EXPECT_TRUE(ExternalWakeupPossibleNow());
  ASSERT_EQ(0, pt_kill(waiter, SIGUSR2));
  ASSERT_EQ(0, pt_join(waiter, nullptr));
  EXPECT_EQ(SIGUSR2, got);
  EXPECT_FALSE(ExternalWakeupPossibleNow());
}

}  // namespace
}  // namespace fsup
