// Wake ordering and broadcast-requeue semantics of the shared priority wait queues:
// same-priority FIFO across mutex handoff, cond signal and broadcast-requeue; a broadcast's
// picked waiter queued first on its own mutex instead of woken to block again (its order,
// its single switch-in, its cancelled timer, its return value under a signal, its handoff
// of a free mutex); waiters requeued each onto its own mutex, held or free; the inheritance
// boost a requeue gives the holder; timeout, signal interruption and cancellation of a
// waiter that a broadcast requeued onto the mutex's wait queue; and the
// MutexSetCeiling-as-first-entry-point regression.

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <vector>

#include "src/core/attr.hpp"
#include "src/core/pthread.hpp"
#include "src/debug/trace.hpp"

namespace fsup {
namespace {

class SyncQueueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pt_reinit();
    debug::trace::Enable(false);
  }
};

// Number of kCondRequeue records in the trace ring, and the waiter count of the last one.
struct RequeueTrace {
  int events = 0;
  uint32_t last_moved = 0;
};

RequeueTrace ScanRequeues() {
  RequeueTrace r;
  std::vector<debug::trace::Record> buf(debug::trace::Capacity());
  const size_t n = debug::trace::Snapshot(buf.data(), buf.size());
  for (size_t i = 0; i < n; ++i) {
    if (buf[i].event == debug::trace::Event::kCondRequeue) {
      ++r.events;
      r.last_moved = buf[i].a;
    }
  }
  return r;
}

// ---------------------------------------------------------------------------------------
// MutexSetCeiling must behave like every other public entry point (satellite regression).
// ---------------------------------------------------------------------------------------

TEST_F(SyncQueueTest, SetCeilingIsAFullEntryPointAfterReinit) {
  // First synchronization calls after a teardown/reinit cycle: nothing here may rely on a
  // previous entry point having initialized the runtime.
  pt_mutexattr_t attr;
  attr.protocol = MutexProtocol::kProtect;
  attr.ceiling = kDefaultPrio;
  pt_mutex_t m;
  ASSERT_EQ(0, pt_mutex_init(&m, &attr));
  int old = -1;
  ASSERT_EQ(0, pt_mutex_setceiling(&m, kDefaultPrio + 3, &old));
  EXPECT_EQ(kDefaultPrio, old);
  // The new ceiling is live: locking raises the caller to it.
  ASSERT_EQ(0, pt_mutex_lock(&m));
  int prio = -1;
  ASSERT_EQ(0, pt_getprio(pt_self(), &prio));
  EXPECT_EQ(kDefaultPrio + 3, prio);
  ASSERT_EQ(0, pt_mutex_unlock(&m));
  ASSERT_EQ(0, pt_getprio(pt_self(), &prio));
  EXPECT_EQ(kDefaultPrio, prio);
  EXPECT_EQ(EINVAL, pt_mutex_setceiling(&m, kMaxPrio + 1, nullptr));
  ASSERT_EQ(0, pt_mutex_destroy(&m));
}

// ---------------------------------------------------------------------------------------
// Same-priority FIFO wake order.
// ---------------------------------------------------------------------------------------

struct OrderShared {
  pt_mutex_t m;
  pt_cond_t c;
  bool flag = false;
  std::vector<int> order;

  void Init() {
    ASSERT_EQ(0, pt_mutex_init(&m));
    ASSERT_EQ(0, pt_cond_init(&c));
  }
  void Destroy() {
    EXPECT_EQ(0, pt_cond_destroy(&c));
    EXPECT_EQ(0, pt_mutex_destroy(&m));
  }
};

struct OrderArg {
  OrderShared* s;
  int id;
};

void* LockAndRecord(void* ap) {
  auto* a = static_cast<OrderArg*>(ap);
  EXPECT_EQ(0, pt_mutex_lock(&a->s->m));
  a->s->order.push_back(a->id);
  EXPECT_EQ(0, pt_mutex_unlock(&a->s->m));
  return nullptr;
}

void* WaitAndRecord(void* ap) {
  auto* a = static_cast<OrderArg*>(ap);
  EXPECT_EQ(0, pt_mutex_lock(&a->s->m));
  while (!a->s->flag) {
    EXPECT_EQ(0, pt_cond_wait(&a->s->c, &a->s->m));
  }
  a->s->order.push_back(a->id);
  EXPECT_EQ(0, pt_mutex_unlock(&a->s->m));
  return nullptr;
}

TEST_F(SyncQueueTest, MutexHandoffSamePrioIsFifo) {
  OrderShared s;
  s.Init();
  ASSERT_EQ(0, pt_mutex_lock(&s.m));
  constexpr int kN = 6;
  std::vector<OrderArg> args;
  for (int i = 0; i < kN; ++i) {
    args.push_back({&s, i});
  }
  std::vector<pt_thread_t> ts(kN);
  ThreadAttr a = MakeThreadAttr(kDefaultPrio + 1);
  for (int i = 0; i < kN; ++i) {
    // Higher priority: each thread preempts us at creation and blocks on the held mutex, so
    // the wait queue holds them in creation order.
    ASSERT_EQ(0, pt_create(&ts[i], &a, &LockAndRecord, &args[i]));
  }
  ASSERT_EQ(0, pt_mutex_unlock(&s.m));
  for (auto& t : ts) {
    ASSERT_EQ(0, pt_join(t, nullptr));
  }
  ASSERT_EQ(static_cast<size_t>(kN), s.order.size());
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(i, s.order[i]) << "handoff order not FIFO at position " << i;
  }
  s.Destroy();
}

TEST_F(SyncQueueTest, CondSignalSamePrioIsFifo) {
  OrderShared s;
  s.Init();
  constexpr int kN = 5;
  std::vector<OrderArg> args;
  for (int i = 0; i < kN; ++i) {
    args.push_back({&s, i});
  }
  std::vector<pt_thread_t> ts(kN);
  ThreadAttr a = MakeThreadAttr(kDefaultPrio + 1);
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(0, pt_create(&ts[i], &a, &WaitAndRecord, &args[i]));  // blocks on the cond
  }
  ASSERT_EQ(0, pt_mutex_lock(&s.m));
  s.flag = true;
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(0, pt_cond_signal(&s.c));  // each wakeup re-contends the held mutex, FIFO
  }
  ASSERT_EQ(0, pt_mutex_unlock(&s.m));
  for (auto& t : ts) {
    ASSERT_EQ(0, pt_join(t, nullptr));
  }
  ASSERT_EQ(static_cast<size_t>(kN), s.order.size());
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(i, s.order[i]) << "signal order not FIFO at position " << i;
  }
  s.Destroy();
}

TEST_F(SyncQueueTest, BroadcastWakesByPriorityAndRequeuesFifo) {
  // One high-priority waiter plus four equal-priority ones. The broadcast picks the high one
  // and queues it first on the held mutex; the rest move to the mutex queue without running
  // and acquire in their original FIFO order behind it.
  OrderShared s;
  s.Init();
  debug::trace::Enable(true);
  debug::trace::Clear();
  constexpr int kN = 4;
  OrderArg hi_arg{&s, 100};
  std::vector<OrderArg> args;
  for (int i = 0; i < kN; ++i) {
    args.push_back({&s, i});
  }
  ThreadAttr a_hi = MakeThreadAttr(kDefaultPrio + 2);
  ThreadAttr a_lo = MakeThreadAttr(kDefaultPrio + 1);
  pt_thread_t t_hi;
  std::vector<pt_thread_t> ts(kN);
  ASSERT_EQ(0, pt_create(&t_hi, &a_hi, &WaitAndRecord, &hi_arg));
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(0, pt_create(&ts[i], &a_lo, &WaitAndRecord, &args[i]));
  }
  ASSERT_EQ(0, pt_mutex_lock(&s.m));
  s.flag = true;
  ASSERT_EQ(0, pt_cond_broadcast(&s.c));
  ASSERT_EQ(0, pt_mutex_unlock(&s.m));
  ASSERT_EQ(0, pt_join(t_hi, nullptr));
  for (auto& t : ts) {
    ASSERT_EQ(0, pt_join(t, nullptr));
  }
  const RequeueTrace rq = ScanRequeues();
  debug::trace::Enable(false);
  ASSERT_EQ(static_cast<size_t>(kN + 1), s.order.size());
  EXPECT_EQ(100, s.order[0]);  // the picked thread: highest priority
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(i, s.order[i + 1]) << "requeued waiters lost FIFO order at position " << i;
  }
  EXPECT_EQ(1, rq.events);  // the broadcast requeued instead of waking the herd
  EXPECT_EQ(static_cast<uint32_t>(kN), rq.last_moved);  // the rest; the picked one not counted
  s.Destroy();
}

TEST_F(SyncQueueTest, BroadcastWithZeroOrOneWaitersDoesNotRequeue) {
  OrderShared s;
  s.Init();
  debug::trace::Enable(true);
  debug::trace::Clear();
  ASSERT_EQ(0, pt_cond_broadcast(&s.c));  // zero waiters: no-op
  OrderArg a1{&s, 1};
  pt_thread_t t;
  ThreadAttr a = MakeThreadAttr(kDefaultPrio + 1);
  ASSERT_EQ(0, pt_create(&t, &a, &WaitAndRecord, &a1));
  ASSERT_EQ(0, pt_mutex_lock(&s.m));
  s.flag = true;
  ASSERT_EQ(0, pt_cond_broadcast(&s.c));  // one waiter: equivalent to signal
  ASSERT_EQ(0, pt_mutex_unlock(&s.m));
  ASSERT_EQ(0, pt_join(t, nullptr));
  const RequeueTrace rq = ScanRequeues();
  debug::trace::Enable(false);
  EXPECT_EQ(0, rq.events);
  ASSERT_EQ(1u, s.order.size());
  s.Destroy();
}

// Waiters 1..3 (and optionally a locker already blocked on the held mutex, id 9), all one
// priority above the holder, so each runs and blocks as soon as it is created. The holder
// broadcasts with the mutex held, unlocks, and returns the acquisition order.
std::vector<int> BroadcastHeldOrder(bool with_locker) {
  OrderShared s;
  s.Init();
  OrderArg args[] = {{&s, 1}, {&s, 2}, {&s, 3}};
  OrderArg locker_arg{&s, 9};
  ThreadAttr a = MakeThreadAttr(kDefaultPrio + 1);
  pt_thread_t ts[3];
  pt_thread_t locker = nullptr;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(0, pt_create(&ts[i], &a, &WaitAndRecord, &args[i]));
  }
  EXPECT_EQ(0, pt_mutex_lock(&s.m));
  if (with_locker) {
    EXPECT_EQ(0, pt_create(&locker, &a, &LockAndRecord, &locker_arg));
  }
  s.flag = true;
  EXPECT_EQ(0, pt_cond_broadcast(&s.c));
  EXPECT_EQ(0, pt_mutex_unlock(&s.m));
  for (pt_thread_t t : ts) {
    EXPECT_EQ(0, pt_join(t, nullptr));
  }
  if (with_locker) {
    EXPECT_EQ(0, pt_join(locker, nullptr));
  }
  s.Destroy();
  return s.order;
}

TEST_F(SyncQueueTest, BroadcastWithMutexHeldKeepsSamePrioFifo) {
  // The picked waiter (longest waiting) is queued at the head of its level on the held
  // mutex: it acquires first instead of waking, re-blocking and landing behind the others.
  EXPECT_EQ((std::vector<int>{1, 2, 3}), BroadcastHeldOrder(/*with_locker=*/false));
}

TEST_F(SyncQueueTest, BroadcastPickedWaiterPrecedesEarlierLocker) {
  // Head placement puts the picked waiter ahead of a same-priority thread that blocked in
  // pt_mutex_lock before the broadcast; the requeued rest still queue behind that locker.
  EXPECT_EQ((std::vector<int>{1, 9, 2, 3}), BroadcastHeldOrder(/*with_locker=*/true));
}

struct SwitchArg {
  OrderShared* s;
  uint64_t switches = 0;  // this waiter's switch-ins between entering and leaving its wait
};

void* WaitAndCountSwitches(void* ap) {
  auto* a = static_cast<SwitchArg*>(ap);
  EXPECT_EQ(0, pt_mutex_lock(&a->s->m));
  const uint64_t before = pt_self()->switches_in;
  while (!a->s->flag) {
    EXPECT_EQ(0, pt_cond_wait(&a->s->c, &a->s->m));
  }
  a->switches = pt_self()->switches_in - before;
  EXPECT_EQ(0, pt_mutex_unlock(&a->s->m));
  return nullptr;
}

// n waiters one priority above the holder; the holder broadcasts with the mutex held and
// unlocks. Returns each waiter's switch-ins inside its wait.
std::vector<uint64_t> BroadcastHeldSwitchIns(int n) {
  OrderShared s;
  s.Init();
  std::vector<SwitchArg> args(n, SwitchArg{&s});
  std::vector<pt_thread_t> ts(n);
  ThreadAttr a = MakeThreadAttr(kDefaultPrio + 1);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(0, pt_create(&ts[i], &a, &WaitAndCountSwitches, &args[i]));
  }
  EXPECT_EQ(0, pt_mutex_lock(&s.m));
  s.flag = true;
  EXPECT_EQ(0, pt_cond_broadcast(&s.c));
  EXPECT_EQ(0, pt_mutex_unlock(&s.m));
  std::vector<uint64_t> switches;
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(0, pt_join(ts[i], nullptr));
    switches.push_back(args[i].switches);
  }
  s.Destroy();
  return switches;
}

TEST_F(SyncQueueTest, BroadcastWithMutexHeldTakesOneSwitchInPerWaiter) {
  // Every waiter runs exactly once, when an unlock hands it the mutex. A woken picked waiter
  // would run twice: once to block (behind the requeued rest, or on the mutex its lower-
  // priority holder still has), once to take the mutex. One waiter is the second case.
  EXPECT_EQ(std::vector<uint64_t>(1, 1), BroadcastHeldSwitchIns(1));
  EXPECT_EQ(std::vector<uint64_t>(8, 1), BroadcastHeldSwitchIns(8));
}

TEST_F(SyncQueueTest, BroadcastHandsAFreeMutexToThePickedWaiter) {
  // The broadcaster unlocked before it broadcast: the picked waiter is handed the free mutex
  // at once, so the broadcaster's own lock right after queues behind it.
  OrderShared s;
  s.Init();
  OrderArg arg{&s, 1};
  pt_thread_t t;
  ThreadAttr a = MakeThreadAttr(kDefaultPrio);
  ASSERT_EQ(0, pt_create(&t, &a, &WaitAndRecord, &arg));
  pt_yield();  // the waiter runs and blocks on the cond
  ASSERT_EQ(0, pt_mutex_lock(&s.m));
  s.flag = true;
  ASSERT_EQ(0, pt_mutex_unlock(&s.m));
  ASSERT_EQ(0, pt_cond_broadcast(&s.c));
  ASSERT_EQ(0, pt_mutex_lock(&s.m));
  s.order.push_back(0);
  ASSERT_EQ(0, pt_mutex_unlock(&s.m));
  ASSERT_EQ(0, pt_join(t, nullptr));
  EXPECT_EQ((std::vector<int>{1, 0}), s.order);
  s.Destroy();
}

TEST_F(SyncQueueTest, BroadcastOntoHeldInheritMutexBoostsTheHolder) {
  // Waiters at 20 and 18 wait with an inheritance mutex. A broadcast made while main (15)
  // holds it queues both on the mutex, so main inherits its top waiter's priority until the
  // unlock hands the mutex on.
  OrderShared s;
  pt_mutexattr_t attr;
  attr.protocol = MutexProtocol::kInherit;
  ASSERT_EQ(0, pt_mutex_init(&s.m, &attr));
  ASSERT_EQ(0, pt_cond_init(&s.c));
  OrderArg a_hi{&s, kDefaultPrio + 5};
  OrderArg a_lo{&s, kDefaultPrio + 3};
  ThreadAttr at_hi = MakeThreadAttr(kDefaultPrio + 5);
  ThreadAttr at_lo = MakeThreadAttr(kDefaultPrio + 3);
  pt_thread_t t_hi, t_lo;
  ASSERT_EQ(0, pt_create(&t_lo, &at_lo, &WaitAndRecord, &a_lo));
  ASSERT_EQ(0, pt_create(&t_hi, &at_hi, &WaitAndRecord, &a_hi));
  ASSERT_EQ(0, pt_mutex_lock(&s.m));
  int prio = -1;
  ASSERT_EQ(0, pt_getprio(pt_self(), &prio));
  EXPECT_EQ(kDefaultPrio, prio);
  s.flag = true;
  ASSERT_EQ(0, pt_cond_broadcast(&s.c));
  ASSERT_EQ(0, pt_getprio(pt_self(), &prio));
  EXPECT_EQ(kDefaultPrio + 5, prio);
  ASSERT_EQ(0, pt_mutex_unlock(&s.m));
  ASSERT_EQ(0, pt_getprio(pt_self(), &prio));
  EXPECT_EQ(kDefaultPrio, prio);
  ASSERT_EQ(0, pt_join(t_hi, nullptr));
  ASSERT_EQ(0, pt_join(t_lo, nullptr));
  EXPECT_EQ((std::vector<int>{kDefaultPrio + 5, kDefaultPrio + 3}), s.order);
  s.Destroy();
}

TEST_F(SyncQueueTest, SetprioRepositionsABlockedMutexWaiter) {
  // Two waiters block at different priorities; raising the lower one above the other while
  // it is blocked must re-bucket it so it wins the next handoff.
  OrderShared s;
  s.Init();
  ASSERT_EQ(0, pt_mutex_lock(&s.m));
  OrderArg a_lo{&s, 1};
  OrderArg a_hi{&s, 2};
  pt_thread_t t_lo, t_hi;
  ThreadAttr at_lo = MakeThreadAttr(kDefaultPrio + 1);
  ThreadAttr at_hi = MakeThreadAttr(kDefaultPrio + 2);
  ASSERT_EQ(0, pt_create(&t_lo, &at_lo, &LockAndRecord, &a_lo));
  ASSERT_EQ(0, pt_create(&t_hi, &at_hi, &LockAndRecord, &a_hi));
  ASSERT_EQ(0, pt_setprio(t_lo, kDefaultPrio + 3));  // now above t_hi, while blocked
  ASSERT_EQ(0, pt_mutex_unlock(&s.m));
  ASSERT_EQ(0, pt_join(t_lo, nullptr));
  ASSERT_EQ(0, pt_join(t_hi, nullptr));
  ASSERT_EQ(2u, s.order.size());
  EXPECT_EQ(1, s.order[0]);  // the boosted thread acquired first
  EXPECT_EQ(2, s.order[1]);
  s.Destroy();
}

// ---------------------------------------------------------------------------------------
// Requeued waiters: timeout, signal interruption, cancellation.
// ---------------------------------------------------------------------------------------

struct RequeueShared {
  pt_mutex_t m;
  pt_cond_t c;
  bool flag = false;
  bool hi_woke = false;
  int rc = -1;
  bool held_at_return = false;

  void Init() {
    ASSERT_EQ(0, pt_mutex_init(&m));
    ASSERT_EQ(0, pt_cond_init(&c));
  }
  void Destroy() {
    EXPECT_EQ(0, pt_cond_destroy(&c));
    EXPECT_EQ(0, pt_mutex_destroy(&m));
  }
};

// High-priority waiter: takes the broadcast's picked slot so the thread under test is
// always among the rest it requeues.
void* HiWaiter(void* ap) {
  auto* s = static_cast<RequeueShared*>(ap);
  EXPECT_EQ(0, pt_mutex_lock(&s->m));
  while (!s->flag) {
    EXPECT_EQ(0, pt_cond_wait(&s->c, &s->m));
  }
  s->hi_woke = true;
  EXPECT_EQ(0, pt_mutex_unlock(&s->m));
  return nullptr;
}

TEST_F(SyncQueueTest, RequeuedTimedWaiterTimesOutWithMutexHeld) {
  RequeueShared s;
  s.Init();
  auto timed_body = +[](void* ap) -> void* {
    auto* s = static_cast<RequeueShared*>(ap);
    EXPECT_EQ(0, pt_mutex_lock(&s->m));
    s->rc = pt_cond_timedwait(&s->c, &s->m, 30 * 1000 * 1000);  // 30ms
    s->held_at_return = s->m.holder() == pt_self();
    EXPECT_EQ(0, pt_mutex_unlock(&s->m));
    return nullptr;
  };
  pt_thread_t t_timed, t_hi;
  ThreadAttr a_lo = MakeThreadAttr(kDefaultPrio + 1);
  ThreadAttr a_hi = MakeThreadAttr(kDefaultPrio + 2);
  ASSERT_EQ(0, pt_create(&t_timed, &a_lo, timed_body, &s));
  ASSERT_EQ(0, pt_create(&t_hi, &a_hi, &HiWaiter, &s));
  ASSERT_EQ(0, pt_mutex_lock(&s.m));
  s.flag = true;
  ASSERT_EQ(0, pt_cond_broadcast(&s.c));  // picks t_hi, requeues t_timed with timer armed
  // Hold the mutex past the timeout: the requeued waiter's block timer must fire on the
  // mutex queue and convert the wait into ETIMEDOUT-after-reacquisition.
  EXPECT_EQ(0, pt_delay(120 * 1000 * 1000));
  ASSERT_EQ(0, pt_mutex_unlock(&s.m));
  ASSERT_EQ(0, pt_join(t_timed, nullptr));
  ASSERT_EQ(0, pt_join(t_hi, nullptr));
  EXPECT_EQ(ETIMEDOUT, s.rc);
  EXPECT_TRUE(s.held_at_return);
  EXPECT_TRUE(s.hi_woke);
  s.Destroy();
}

TEST_F(SyncQueueTest, PickedTimedWaiterPastDeadlineReturnsZero) {
  // The picked waiter's block timer is cancelled when the broadcast queues it on the held
  // mutex: its deadline passing while the holder keeps the mutex does not turn the signalled
  // wait into ETIMEDOUT.
  RequeueShared s;
  s.Init();
  auto timed_body = +[](void* ap) -> void* {
    auto* s = static_cast<RequeueShared*>(ap);
    EXPECT_EQ(0, pt_mutex_lock(&s->m));
    s->rc = pt_cond_timedwait(&s->c, &s->m, 10 * 1000 * 1000);  // 10ms
    s->held_at_return = s->m.holder() == pt_self();
    EXPECT_EQ(0, pt_mutex_unlock(&s->m));
    return nullptr;
  };
  auto lo_body = +[](void* ap) -> void* {
    auto* s = static_cast<RequeueShared*>(ap);
    EXPECT_EQ(0, pt_mutex_lock(&s->m));
    while (!s->flag) {
      EXPECT_EQ(0, pt_cond_wait(&s->c, &s->m));
    }
    EXPECT_EQ(0, pt_mutex_unlock(&s->m));
    return nullptr;
  };
  pt_thread_t t_timed, t_lo;
  ThreadAttr a_hi = MakeThreadAttr(kDefaultPrio + 2);
  ThreadAttr a_lo = MakeThreadAttr(kDefaultPrio + 1);
  ASSERT_EQ(0, pt_create(&t_timed, &a_hi, timed_body, &s));  // the one the broadcast picks
  ASSERT_EQ(0, pt_create(&t_lo, &a_lo, lo_body, &s));        // requeued behind it
  ASSERT_EQ(0, pt_mutex_lock(&s.m));
  s.flag = true;
  ASSERT_EQ(0, pt_cond_broadcast(&s.c));
  EXPECT_EQ(0, pt_delay(40 * 1000 * 1000));  // past the picked waiter's deadline
  ASSERT_EQ(0, pt_mutex_unlock(&s.m));
  ASSERT_EQ(0, pt_join(t_timed, nullptr));
  ASSERT_EQ(0, pt_join(t_lo, nullptr));
  EXPECT_EQ(0, s.rc);
  EXPECT_TRUE(s.held_at_return);
  s.Destroy();
}

bool g_usr1_ran = false;
void Usr1Handler(int) { g_usr1_ran = true; }

TEST_F(SyncQueueTest, RequeuedWaiterInterruptedBySignalReturnsEintr) {
  RequeueShared s;
  s.Init();
  g_usr1_ran = false;
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, &Usr1Handler, 0));
  auto wait_body = +[](void* ap) -> void* {
    auto* s = static_cast<RequeueShared*>(ap);
    EXPECT_EQ(0, pt_mutex_lock(&s->m));
    s->rc = pt_cond_wait(&s->c, &s->m);
    s->held_at_return = s->m.holder() == pt_self();
    EXPECT_EQ(0, pt_mutex_unlock(&s->m));
    return nullptr;
  };
  pt_thread_t t_victim, t_hi;
  ThreadAttr a_lo = MakeThreadAttr(kDefaultPrio + 1);
  ThreadAttr a_hi = MakeThreadAttr(kDefaultPrio + 2);
  ASSERT_EQ(0, pt_create(&t_victim, &a_lo, wait_body, &s));
  ASSERT_EQ(0, pt_create(&t_hi, &a_hi, &HiWaiter, &s));
  ASSERT_EQ(0, pt_mutex_lock(&s.m));
  s.flag = true;
  ASSERT_EQ(0, pt_cond_broadcast(&s.c));  // t_victim is now parked on the mutex queue
  ASSERT_EQ(0, pt_kill(t_victim, SIGUSR1));
  ASSERT_EQ(0, pt_mutex_unlock(&s.m));
  ASSERT_EQ(0, pt_join(t_victim, nullptr));
  ASSERT_EQ(0, pt_join(t_hi, nullptr));
  // Draft-6 semantics survive the requeue: the handler ran, the wrapper re-acquired the
  // mutex before it, and the conditional wait terminated with EINTR holding the mutex.
  EXPECT_TRUE(g_usr1_ran);
  EXPECT_EQ(EINTR, s.rc);
  EXPECT_TRUE(s.held_at_return);
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, nullptr, 0));
  s.Destroy();
}

TEST_F(SyncQueueTest, PickedWaiterInterruptedBySignalReturnsZero) {
  // The broadcast reached the picked waiter before the signal did: queued on the held mutex
  // it is a plain mutex waiter, as if it had woken and blocked in pt_mutex_lock. The handler
  // runs, the wait re-acquires the mutex and returns 0, not EINTR.
  RequeueShared s;
  s.Init();
  g_usr1_ran = false;
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, &Usr1Handler, 0));
  auto wait_body = +[](void* ap) -> void* {
    auto* s = static_cast<RequeueShared*>(ap);
    EXPECT_EQ(0, pt_mutex_lock(&s->m));
    s->rc = pt_cond_wait(&s->c, &s->m);
    s->held_at_return = s->m.holder() == pt_self();
    EXPECT_EQ(0, pt_mutex_unlock(&s->m));
    return nullptr;
  };
  pt_thread_t t_picked, t_rest;
  ThreadAttr a_hi = MakeThreadAttr(kDefaultPrio + 3);
  ThreadAttr a_rest = MakeThreadAttr(kDefaultPrio + 2);  // HiWaiter, requeued behind it
  ASSERT_EQ(0, pt_create(&t_picked, &a_hi, wait_body, &s));
  ASSERT_EQ(0, pt_create(&t_rest, &a_rest, &HiWaiter, &s));
  ASSERT_EQ(0, pt_mutex_lock(&s.m));
  s.flag = true;
  ASSERT_EQ(0, pt_cond_broadcast(&s.c));  // t_picked is now queued first on the held mutex
  ASSERT_EQ(0, pt_kill(t_picked, SIGUSR1));
  ASSERT_EQ(0, pt_mutex_unlock(&s.m));
  ASSERT_EQ(0, pt_join(t_picked, nullptr));
  ASSERT_EQ(0, pt_join(t_rest, nullptr));
  EXPECT_TRUE(s.hi_woke);
  EXPECT_TRUE(g_usr1_ran);
  EXPECT_EQ(0, s.rc);
  EXPECT_TRUE(s.held_at_return);
  ASSERT_EQ(0, pt_sigaction(SIGUSR1, nullptr, 0));
  s.Destroy();
}

TEST_F(SyncQueueTest, RequeuedWaiterCancellationRunsCleanupWithMutexHeld) {
  RequeueShared s;
  s.Init();
  auto cancel_body = +[](void* ap) -> void* {
    auto* s = static_cast<RequeueShared*>(ap);
    EXPECT_EQ(0, pt_mutex_lock(&s->m));
    pt_cleanup_push(+[](void* mp) { pt_mutex_unlock(static_cast<pt_mutex_t*>(mp)); }, &s->m);
    while (!s->flag || true) {  // cancelled inside the wait; never exits normally
      pt_cond_wait(&s->c, &s->m);
    }
    pt_cleanup_pop(true);
    return nullptr;
  };
  pt_thread_t t_victim, t_hi;
  ThreadAttr a_lo = MakeThreadAttr(kDefaultPrio + 1);
  ThreadAttr a_hi = MakeThreadAttr(kDefaultPrio + 2);
  ASSERT_EQ(0, pt_create(&t_victim, &a_lo, cancel_body, &s));
  ASSERT_EQ(0, pt_create(&t_hi, &a_hi, &HiWaiter, &s));
  ASSERT_EQ(0, pt_mutex_lock(&s.m));
  s.flag = true;
  ASSERT_EQ(0, pt_cond_broadcast(&s.c));  // t_victim requeued onto the mutex
  ASSERT_EQ(0, pt_cancel(t_victim));
  ASSERT_EQ(0, pt_mutex_unlock(&s.m));
  void* ret = nullptr;
  ASSERT_EQ(0, pt_join(t_victim, &ret));
  ASSERT_EQ(0, pt_join(t_hi, nullptr));
  EXPECT_EQ(kCanceled, ret);
  // The cleanup handler unlocked: the mutex must be free again.
  EXPECT_EQ(0, pt_mutex_trylock(&s.m));
  EXPECT_EQ(0, pt_mutex_unlock(&s.m));
  s.Destroy();
}

// ---------------------------------------------------------------------------------------
// Requeue onto an UNLOCKED mutex (headline regression). Waiters parked on a mutex queue are
// only ever popped by an unlock — but lockers of an unlocked mutex barge past the queue, so
// if a broadcast requeues waiters onto a mutex nobody holds and nobody locks again, the
// queue is orphaned and the process dies in the idle loop's deadlock abort. The broadcast
// must synthesize the unlock handoff itself.
// ---------------------------------------------------------------------------------------

struct SplitShared {
  pt_cond_t c;
  pt_mutex_t ma, mb, mc;
  int done = 0;
  bool flag = false;

  void Init() {
    ASSERT_EQ(0, pt_cond_init(&c));
    ASSERT_EQ(0, pt_mutex_init(&ma));
    ASSERT_EQ(0, pt_mutex_init(&mb));
    ASSERT_EQ(0, pt_mutex_init(&mc));
  }
  void Destroy() {
    EXPECT_EQ(0, pt_cond_destroy(&c));
    EXPECT_EQ(0, pt_mutex_destroy(&ma));
    EXPECT_EQ(0, pt_mutex_destroy(&mb));
    EXPECT_EQ(0, pt_mutex_destroy(&mc));
  }
};

struct SplitArg {
  SplitShared* s;
  pt_mutex_t* m;  // this waiter's own mutex (concurrent waits through different mutexes)
  int id = 0;
  std::vector<int>* order = nullptr;  // when set, where the waiter records its id holding m
};

void* SplitWaiter(void* ap) {
  auto* a = static_cast<SplitArg*>(ap);
  EXPECT_EQ(0, pt_mutex_lock(a->m));
  while (!a->s->flag) {
    EXPECT_EQ(0, pt_cond_wait(&a->s->c, a->m));
  }
  // Whichever path woke us (contention or direct handoff), the wait returns holding m.
  EXPECT_EQ(pt_self(), a->m->holder());
  ++a->s->done;
  if (a->order != nullptr) {
    a->order->push_back(a->id);
  }
  EXPECT_EQ(0, pt_mutex_unlock(a->m));
  return nullptr;
}

TEST_F(SyncQueueTest, BroadcastRequeueOntoUnlockedMutexHandsOff) {
  // The picked (highest-priority) waiter goes onto ma, the rest of the cond queue onto mb —
  // which is unlocked (its waiter released it inside cond_wait) and which no other thread
  // ever locks or unlocks again. Without the broadcast-side handoff the mb waiter hangs
  // forever and the join below deadlock-aborts.
  SplitShared s;
  s.Init();
  SplitArg arg_hi{&s, &s.ma};
  SplitArg arg_lo{&s, &s.mb};
  pt_thread_t t_hi, t_lo;
  ThreadAttr a_hi = MakeThreadAttr(kDefaultPrio + 2);
  ThreadAttr a_lo = MakeThreadAttr(kDefaultPrio + 1);
  ASSERT_EQ(0, pt_create(&t_hi, &a_hi, &SplitWaiter, &arg_hi));  // runs and blocks first
  ASSERT_EQ(0, pt_create(&t_lo, &a_lo, &SplitWaiter, &arg_lo));
  s.flag = true;
  ASSERT_EQ(0, pt_cond_broadcast(&s.c));
  ASSERT_EQ(0, pt_join(t_hi, nullptr));
  ASSERT_EQ(0, pt_join(t_lo, nullptr));
  EXPECT_EQ(2, s.done);
  // Both mutexes came all the way back to unlocked.
  EXPECT_EQ(0, pt_mutex_trylock(&s.ma));
  EXPECT_EQ(0, pt_mutex_unlock(&s.ma));
  EXPECT_EQ(0, pt_mutex_trylock(&s.mb));
  EXPECT_EQ(0, pt_mutex_unlock(&s.mb));
  s.Destroy();
}

TEST_F(SyncQueueTest, BroadcastRequeueOntoUnlockedMutexesNonUniform) {
  // The remaining waiters split across mb and mc: the broadcast must hand off EACH orphaned
  // unlocked mutex, not just one target.
  SplitShared s;
  s.Init();
  SplitArg arg_a{&s, &s.ma};
  SplitArg arg_b{&s, &s.mb};
  SplitArg arg_c{&s, &s.mc};
  pt_thread_t ta, tb, tc;
  ThreadAttr attr_a = MakeThreadAttr(kDefaultPrio + 3);
  ThreadAttr attr_b = MakeThreadAttr(kDefaultPrio + 2);
  ThreadAttr attr_c = MakeThreadAttr(kDefaultPrio + 1);
  ASSERT_EQ(0, pt_create(&ta, &attr_a, &SplitWaiter, &arg_a));
  ASSERT_EQ(0, pt_create(&tb, &attr_b, &SplitWaiter, &arg_b));
  ASSERT_EQ(0, pt_create(&tc, &attr_c, &SplitWaiter, &arg_c));
  s.flag = true;
  ASSERT_EQ(0, pt_cond_broadcast(&s.c));
  ASSERT_EQ(0, pt_join(ta, nullptr));
  ASSERT_EQ(0, pt_join(tb, nullptr));
  ASSERT_EQ(0, pt_join(tc, nullptr));
  EXPECT_EQ(3, s.done);
  s.Destroy();
}

TEST_F(SyncQueueTest, BroadcastRequeueOntoHeldMixedMutexesKeepsFifo) {
  // Waiters 1 and 2 wait with ma, 3 and 4 with mb, on one cond and at one priority. Main
  // holds both mutexes when it broadcasts: each waiter queues on its own mutex in arrival
  // order, the picked one (1) at the head of ma, and each unlock hands its mutex down.
  SplitShared s;
  s.Init();
  std::vector<int> order_a;
  std::vector<int> order_b;
  SplitArg args[] = {{&s, &s.ma, 1, &order_a},
                     {&s, &s.ma, 2, &order_a},
                     {&s, &s.mb, 3, &order_b},
                     {&s, &s.mb, 4, &order_b}};
  ThreadAttr a = MakeThreadAttr(kDefaultPrio + 1);
  pt_thread_t ts[4];
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(0, pt_create(&ts[i], &a, &SplitWaiter, &args[i]));  // runs and blocks at once
  }
  ASSERT_EQ(0, pt_mutex_lock(&s.ma));
  ASSERT_EQ(0, pt_mutex_lock(&s.mb));
  s.flag = true;
  ASSERT_EQ(0, pt_cond_broadcast(&s.c));
  ASSERT_EQ(0, pt_mutex_unlock(&s.ma));
  ASSERT_EQ(0, pt_mutex_unlock(&s.mb));
  for (pt_thread_t t : ts) {
    ASSERT_EQ(0, pt_join(t, nullptr));
  }
  EXPECT_EQ(4, s.done);
  EXPECT_EQ((std::vector<int>{1, 2}), order_a);
  EXPECT_EQ((std::vector<int>{3, 4}), order_b);
  s.Destroy();
}

TEST_F(SyncQueueTest, BroadcastRequeueSameUnlockedMutexNoDoubleOwner) {
  // All three wait with one unlocked mutex. The broadcast hands it to the picked (highest-
  // priority) waiter, and the rest queue behind it: one owner at a time, priority order.
  // Handing it to a lower-priority waiter first, or to two owners, would break the order.
  OrderShared s;
  s.Init();
  OrderArg a1{&s, 1}, a2{&s, 2}, a3{&s, 3};
  pt_thread_t t1, t2, t3;
  ThreadAttr hi = MakeThreadAttr(kDefaultPrio + 3);
  ThreadAttr mid = MakeThreadAttr(kDefaultPrio + 2);
  ThreadAttr lo = MakeThreadAttr(kDefaultPrio + 1);
  ASSERT_EQ(0, pt_create(&t1, &hi, &WaitAndRecord, &a1));
  ASSERT_EQ(0, pt_create(&t2, &mid, &WaitAndRecord, &a2));
  ASSERT_EQ(0, pt_create(&t3, &lo, &WaitAndRecord, &a3));
  // Broadcast WITHOUT holding s.m: the mutex is unlocked at requeue time, and t1 (picked,
  // highest priority) is the thread that must win it first.
  s.flag = true;
  ASSERT_EQ(0, pt_cond_broadcast(&s.c));
  ASSERT_EQ(0, pt_join(t1, nullptr));
  ASSERT_EQ(0, pt_join(t2, nullptr));
  ASSERT_EQ(0, pt_join(t3, nullptr));
  EXPECT_EQ((std::vector<int>{1, 2, 3}), s.order);
  EXPECT_EQ(0, pt_mutex_trylock(&s.m));
  EXPECT_EQ(0, pt_mutex_unlock(&s.m));
  s.Destroy();
}

}  // namespace
}  // namespace fsup
