// Restartable atomic sequences (paper Figure 4): the three lock primitives, the list and
// idle-sleep sequences, the preemption thunk's tail, the registry, and PC-rewind behaviour
// under real signal interruption.

#include <gtest/gtest.h>

#include <sys/syscall.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>

#include "src/arch/context.hpp"
#include "src/arch/ras.hpp"
#include "src/core/pthread.hpp"
#include "src/kernel/kernel.hpp"
#include "src/sync/mutex.hpp"
#include "src/util/dual_loop_timer.hpp"

namespace fsup {
namespace {

class RasTest : public ::testing::Test {
 protected:
  void SetUp() override { pt_reinit(); }
};

TEST_F(RasTest, RasLockAcquiresAndRecordsOwner) {
  volatile uint8_t lock = 0;
  void* volatile owner = nullptr;
  int self = 0;
  EXPECT_EQ(0, fsup_ras_lock(&lock, &self, &owner));
  EXPECT_EQ(1, lock);
  EXPECT_EQ(&self, owner);
}

TEST_F(RasTest, RasLockFailsWhenHeld) {
  volatile uint8_t lock = 1;
  void* volatile owner = nullptr;
  int self = 0;
  EXPECT_EQ(1, fsup_ras_lock(&lock, &self, &owner));
  EXPECT_EQ(nullptr, owner);  // not overwritten on failure
}

TEST_F(RasTest, RasUnlockReleasesWhenNoWaiters) {
  int self = 0;
  void* volatile word = &self;
  volatile uint8_t has_waiters = 0;
  EXPECT_EQ(0, fsup_ras_owner_unlock(&word, &has_waiters));
  EXPECT_EQ(nullptr, word);
}

TEST_F(RasTest, RasUnlockDivertsWithWaiters) {
  int self = 0;
  void* volatile word = &self;
  volatile uint8_t has_waiters = 1;
  EXPECT_EQ(1, fsup_ras_owner_unlock(&word, &has_waiters));
  EXPECT_EQ(&self, word);  // untouched: the kernel handoff path must run
}

TEST_F(RasTest, XchgLockReturnsPreviousValue) {
  volatile uint8_t lock = 0;
  EXPECT_EQ(0, fsup_xchg_lock(&lock));
  EXPECT_EQ(1, lock);
  EXPECT_EQ(1, fsup_xchg_lock(&lock));
}

TEST_F(RasTest, CasLockAcquiresAndReportsOwner) {
  void* volatile word = nullptr;
  int me = 0, other = 0;
  EXPECT_EQ(nullptr, fsup_cas_lock(&word, &me));  // acquired
  EXPECT_EQ(&me, word);                           // owner == lock word, one instruction
  EXPECT_EQ(&me, fsup_cas_lock(&word, &other));   // held: returns current owner
}

TEST_F(RasTest, SequencesAreRegistered) {
  EXPECT_TRUE(ras::Inside(reinterpret_cast<uintptr_t>(fsup_ras_lock_begin)));
  EXPECT_FALSE(ras::Inside(reinterpret_cast<uintptr_t>(fsup_ras_lock_end)));
  EXPECT_TRUE(ras::Inside(reinterpret_cast<uintptr_t>(fsup_ras_owner_unlock_begin)));
  EXPECT_FALSE(ras::Inside(reinterpret_cast<uintptr_t>(fsup_ras_owner_unlock_end)));
  EXPECT_TRUE(ras::Inside(reinterpret_cast<uintptr_t>(fsup_ras_list_pop_begin)));
  EXPECT_FALSE(ras::Inside(reinterpret_cast<uintptr_t>(fsup_ras_list_pop_end)));
  EXPECT_TRUE(ras::Inside(reinterpret_cast<uintptr_t>(fsup_ras_list_push_begin)));
  EXPECT_FALSE(ras::Inside(reinterpret_cast<uintptr_t>(fsup_ras_list_push_end)));
  EXPECT_TRUE(ras::Inside(reinterpret_cast<uintptr_t>(fsup_ras_idle_syscall_begin)));
  EXPECT_FALSE(ras::Inside(reinterpret_cast<uintptr_t>(fsup_ras_idle_syscall_end)));
  EXPECT_FALSE(ras::Inside(reinterpret_cast<uintptr_t>(&ras::Register)));
}

TEST_F(RasTest, IdleSyscallSleepsOnlyOverAnEmptyDeferredSet) {
  volatile uint64_t deferred = 0;
  EXPECT_EQ(::getpid(), fsup_ras_idle_syscall(SYS_getpid, 0, 0, 0, 0, &deferred));
  deferred = SigBit(SIGUSR1);
  EXPECT_EQ(-EINTR, fsup_ras_idle_syscall(SYS_getpid, 0, 0, 0, 0, &deferred));
  // A signal that lands on the syscall instruction itself (2 bytes, the last of the sequence)
  // is rewound to the test; one that lands after it, i.e. during the sleep, is not.
  const auto begin = reinterpret_cast<uintptr_t>(fsup_ras_idle_syscall_begin);
  uintptr_t pc = reinterpret_cast<uintptr_t>(fsup_ras_idle_syscall_end) - 2;
  EXPECT_TRUE(ras::RewindIfInside(&pc));
  EXPECT_EQ(begin, pc);
  pc = reinterpret_cast<uintptr_t>(fsup_ras_idle_syscall_end);
  EXPECT_FALSE(ras::RewindIfInside(&pc));
}

TEST_F(RasTest, PreemptionThunkTailIsRegistered) {
  const auto begin = reinterpret_cast<uintptr_t>(fsup_preempt_tail_begin);
  const auto end = reinterpret_cast<uintptr_t>(fsup_preempt_tail_end);
  EXPECT_TRUE(ras::Inside(begin));
  EXPECT_TRUE(ras::Inside(end - 1));
  EXPECT_FALSE(ras::Inside(end));  // the last pops move %rsp: the handler finishes them
  EXPECT_FALSE(ras::Inside(reinterpret_cast<uintptr_t>(&fsup_preempt_thunk)));
  EXPECT_FALSE(ras::Inside(reinterpret_cast<uintptr_t>(&fsup_preempt_redispatch)));
}

// Calls the installed universal handler directly on a hand-made ucontext, for a SIGUSR1 that
// a higher-priority thread waits for: a switching delivery. The handler returns with the
// kernel held and the context redirected; running the dispatch it left pending (the thunk
// body's job) lets the waiter take the signal.
class PreemptRedirectTest : public RasTest {
 protected:
  void SetUp() override {
    RasTest::SetUp();
    taken_ = 0;
    ASSERT_EQ(0, pt_sigmask(SigMaskHow::kBlock, SigBit(SIGUSR1), nullptr));
    auto waiter = +[](void*) -> void* {
      while (taken_ < kRounds) {
        int signo = 0;
        if (pt_sigwait(SigBit(SIGUSR1), &signo) != 0) {
          return nullptr;
        }
        ++taken_;
      }
      return nullptr;
    };
    ThreadAttr hi;
    hi.priority = kDefaultPrio + 1;
    ASSERT_EQ(0, pt_create(&waiter_, &hi, waiter, nullptr));  // blocks in pt_sigwait
    struct sigaction sa{};
    ASSERT_EQ(0, ::sigaction(SIGUSR1, nullptr, &sa));
    handler_ = sa.sa_sigaction;
    ASSERT_EQ(0, ::getcontext(&uc_));
    // What the host writes into an xsave signal frame's fxsave area to describe the image:
    // magic, extended size, features (x87 and SSE here), standard-format size.
    const uint32_t sw_bytes[5] = {0x46505853, 580, 3, 0, 576};
    std::memcpy(reinterpret_cast<char*>(uc_.uc_mcontext.fpregs) + 464, sw_bytes,
                sizeof(sw_bytes));
  }
  void TearDown() override {
    while (taken_ < kRounds) {
      ::kill(::getpid(), SIGUSR1);
    }
    ASSERT_EQ(0, pt_join(waiter_, nullptr));
  }

  // Delivers at `pc`/`sp`; returns with the dispatch done and the redirected context in uc_.
  void DeliverAt(uintptr_t pc, uintptr_t sp) {
    uc_.uc_mcontext.gregs[REG_RIP] = static_cast<greg_t>(pc);
    uc_.uc_mcontext.gregs[REG_RSP] = static_cast<greg_t>(sp);
    fsup_preempt_pc = 0;
    const int before = taken_;
    handler_(SIGUSR1, nullptr, &uc_);
    EXPECT_TRUE(kernel::InKernel()) << "the handler must leave the switch to the thunk";
    EXPECT_EQ(before, taken_);
    kernel::Dispatch();
    EXPECT_EQ(before + 1, taken_);
  }
  greg_t Reg(int r) const { return uc_.uc_mcontext.gregs[r]; }

  static constexpr int kRounds = 4;
  static inline int taken_ = 0;
  pt_thread_t waiter_{};
  void (*handler_)(int, siginfo_t*, void*) = nullptr;
  ucontext_t uc_{};
};

TEST_F(PreemptRedirectTest, RewindHappensBeforeTheRedirect) {
  uint64_t stack[8] = {};
  const auto sp = reinterpret_cast<uintptr_t>(&stack[4]);
  DeliverAt(reinterpret_cast<uintptr_t>(fsup_ras_lock_begin) + 3, sp);
  EXPECT_EQ(reinterpret_cast<greg_t>(&fsup_preempt_thunk), Reg(REG_RIP));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(fsup_ras_lock_begin), fsup_preempt_pc)
      << "the thunk must return to the start of the interrupted sequence";
  EXPECT_EQ(static_cast<greg_t>(sp), Reg(REG_RSP));
}

TEST_F(PreemptRedirectTest, DeliveryInTheTailRedispatchesFromTheExistingFrame) {
  uint64_t stack[8] = {};
  const auto sp = reinterpret_cast<uintptr_t>(&stack[4]);
  DeliverAt(reinterpret_cast<uintptr_t>(fsup_preempt_tail_end) - 1, sp);
  EXPECT_EQ(reinterpret_cast<greg_t>(&fsup_preempt_redispatch), Reg(REG_RIP));
  EXPECT_EQ(0u, fsup_preempt_pc) << "no second frame";
  EXPECT_EQ(static_cast<greg_t>(sp), Reg(REG_RSP));
}

TEST_F(PreemptRedirectTest, DeliveryInTheLastPopsFinishesThemFirst) {
  const auto end = reinterpret_cast<uintptr_t>(fsup_preempt_tail_end);
  // The frame's top, as the pops see it: flags, the interrupted %rbp, the interrupted PC.
  uint64_t frame[3] = {0x247, 0x1234, 0x5678};
  const auto top = reinterpret_cast<greg_t>(&frame[3]) + 128;  // ret $128 skips the red zone
  uc_.uc_mcontext.gregs[REG_EFL] = 0x202;
  uc_.uc_mcontext.gregs[REG_RBP] = 0;
  DeliverAt(end, reinterpret_cast<uintptr_t>(&frame[0]));  // at popfq
  EXPECT_EQ(reinterpret_cast<greg_t>(&fsup_preempt_thunk), Reg(REG_RIP));
  EXPECT_EQ(0x5678u, fsup_preempt_pc);
  EXPECT_EQ(top, Reg(REG_RSP));
  EXPECT_EQ(0x247, Reg(REG_EFL));
  EXPECT_EQ(0x1234, Reg(REG_RBP));

  uc_.uc_mcontext.gregs[REG_EFL] = 0x202;
  DeliverAt(end + 2, reinterpret_cast<uintptr_t>(&frame[2]));  // at ret $128
  EXPECT_EQ(0x5678u, fsup_preempt_pc);
  EXPECT_EQ(top, Reg(REG_RSP));
  EXPECT_EQ(0x202, Reg(REG_EFL));  // already popped
}

TEST_F(RasTest, ListPushPopIsLifoThroughTheFirstWord) {
  struct Node {
    Node* next;
    int id;
  };
  void* volatile head = nullptr;
  Node a{nullptr, 1}, b{nullptr, 2};
  EXPECT_EQ(nullptr, fsup_ras_list_pop(&head));  // empty
  fsup_ras_list_push(&head, &a);
  fsup_ras_list_push(&head, &b);
  EXPECT_EQ(&a, b.next);
  EXPECT_EQ(&b, fsup_ras_list_pop(&head));
  EXPECT_EQ(&a, fsup_ras_list_pop(&head));
  EXPECT_EQ(nullptr, head);
}

TEST_F(RasTest, CleanupNodeListSurvivesTimeSlicedThreads) {
  // Two round-robin threads sliced every 50µs push and pop cleanup handlers, whose nodes come
  // from one shared list guarded only by restart. A torn pop hands both threads the same node,
  // and one thread's handler then runs with the other's argument.
  pt_enable_time_slicing(50);
  ThreadAttr rr;
  rr.inherit_policy = false;
  rr.policy = SchedPolicy::kRr;
  struct Worker {
    long pushed = 0;
    long ran = 0;
  };
  auto body = +[](void* arg) -> void* {
    auto* w = static_cast<Worker*>(arg);
    const int64_t until = NowNs() + 150 * 1000 * 1000;
    while (NowNs() < until) {
      for (int i = 0; i < 3; ++i) {
        pt_cleanup_push(+[](void* a) { ++static_cast<Worker*>(a)->ran; }, w);
      }
      w->pushed += 3;
      for (int i = 0; i < 3; ++i) {
        pt_cleanup_pop(1);
      }
    }
    return nullptr;
  };
  Worker w1, w2;
  pt_thread_t t1, t2;
  ASSERT_EQ(0, pt_create(&t1, &rr, body, &w1));
  ASSERT_EQ(0, pt_create(&t2, &rr, body, &w2));
  ASSERT_EQ(0, pt_join(t1, nullptr));
  ASSERT_EQ(0, pt_join(t2, nullptr));
  pt_disable_time_slicing();
  EXPECT_GT(w1.pushed, 0);
  EXPECT_GT(w2.pushed, 0);
  EXPECT_EQ(w1.pushed, w1.ran);
  EXPECT_EQ(w2.pushed, w2.ran);
}

TEST_F(RasTest, RewindMovesPcToSequenceStart) {
  auto begin = reinterpret_cast<uintptr_t>(fsup_ras_lock_begin);
  uintptr_t pc = begin + 3;  // somewhere inside
  EXPECT_TRUE(ras::RewindIfInside(&pc));
  EXPECT_EQ(begin, pc);
  uintptr_t outside = reinterpret_cast<uintptr_t>(fsup_ras_lock_end) + 8;
  EXPECT_FALSE(ras::RewindIfInside(&outside));
}

TEST_F(RasTest, MutexFastPathSurvivesSignalStorm) {
  // Hammer the RAS-based mutex fast path while a real interval timer fires as fast as the
  // kernel allows. Any lost restart shows up as a corrupted counter or a stuck lock.
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m));
  static volatile int alarms = 0;
  alarms = 0;
  auto handler = +[](int) { alarms = alarms + 1; };
  ASSERT_EQ(0, pt_sigaction(SIGALRM, handler, 0));

  long counter = 0;
  const int64_t until = NowNs() + 300 * 1000 * 1000;  // 300ms of hammering
  while (NowNs() < until) {
    const int before = alarms;
    // 50µs: long enough that the arm call returns before delivery, short enough that
    // thousands of interrupts land inside the lock/unlock hammering below.
    ASSERT_EQ(0, pt_alarm(50 * 1000));
    while (alarms == before && NowNs() < until) {
      for (int i = 0; i < 200; ++i) {
        ASSERT_EQ(0, pt_mutex_lock(&m));
        ++counter;
        ASSERT_EQ(0, pt_mutex_unlock(&m));
      }
    }
  }
  EXPECT_GT(alarms, 3);  // the storm really happened
  EXPECT_EQ(nullptr, m.holder());
  EXPECT_EQ(nullptr, m.owner);  // the owner word IS the lock state: cleared on release
  EXPECT_GT(counter, 0);
  pt_mutex_destroy(&m);
}

}  // namespace
}  // namespace fsup
